//! Element-wise activation kernels, pinned bit for bit.
//!
//! [`tanh`] is a scalar port of the fdlibm `tanhf` and `expm1f` that glibc
//! 2.36 ships (`sysdeps/ieee754/flt-32/s_tanhf.c`, `s_expm1f.c`): the same
//! float operations in the same order, with every constant given by its bit
//! pattern and no fused multiply-add. Its result does not depend on the
//! host's libm, so the trainer and its oracles agree on every host; on a
//! glibc 2.36 host it also equals `f32::tanh` on every input (an ignored
//! test checks all 2^32).
//!
//! [`tanh_into`] computes [`tanh`] eight lanes at a time with AVX2, found
//! by runtime detection. Each lane runs the scalar port's operations; the
//! branches between `tanhf`'s two formulas and between `expm1f`'s argument
//! reductions and `k` classes become blends, so every lane computes every
//! class and keeps its own. Lanes outside `[2^-55, 22)` in magnitude (zeros,
//! subnormals, tiny values, saturated values, infinities and NaN) and a
//! slice's last `len % 8` elements take the scalar port. Detection changes
//! speed only: both paths return the same bits.

/// `ln 2`'s high part: `k·LN2_HI` is exact for the `k` `expm1f` reaches.
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
/// `ln 2 − LN2_HI`.
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
/// `1 / ln 2`.
const INV_LN2: f32 = f32::from_bits(0x3fb8_aa3b);
/// `expm1f`'s scaled rational coefficients.
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);

/// `|x|` bits at and above which `expm1f` reduces its argument: `0.5·ln 2`
/// (exclusive).
const HALF_LN2_BITS: u32 = 0x3eb1_7218;
/// `|x|` bits from which the reduction computes `k` rather than `±1`:
/// `1.5·ln 2`.
const THREE_HALVES_LN2_BITS: u32 = 0x3f85_1592;
/// `|x|` bits below which `expm1f` returns `x`: `2^-25`.
const TINY_EXPM1_BITS: u32 = 0x3300_0000;
/// `|x|` bits below which `tanhf` returns `x·(1 + x)`: `2^-55`.
const TINY_TANH_BITS: u32 = 0x2400_0000;
/// `|x|` bits from which `tanhf` returns `±1`: `22`.
const SATURATED_TANH_BITS: u32 = 0x41b0_0000;

/// Adds `k` to the exponent of `y` through its bit pattern, as `expm1f`
/// does.
fn scale(y: f32, k: i32) -> f32 {
    f32::from_bits((y.to_bits() as i32).wrapping_add(k << 23) as u32)
}

/// `expm1f` on the arguments [`tanh`] passes it: `2|x|` for `1 ≤ |x| < 22`
/// and `−2|x|` for `2^-55 ≤ |x| < 1`, so finite, nonzero and in `(−2, 44)`.
/// `expm1f`'s filter for huge and non-finite arguments (`|x| ≥ 27·ln 2`,
/// which only returns early for negative `x`) never fires on them, nor
/// does its `k = 128` case.
fn expm1(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    let negative = x.is_sign_negative();
    let (x, c, k) = if hx > HALF_LN2_BITS {
        let (hi, lo, k) = if hx < THREE_HALVES_LN2_BITS {
            if negative {
                (x + LN2_HI, -LN2_LO, -1)
            } else {
                (x - LN2_HI, LN2_LO, 1)
            }
        } else {
            let k = (INV_LN2 * x + if negative { -0.5 } else { 0.5 }) as i32;
            let t = k as f32;
            (x - t * LN2_HI, t * LN2_LO, k)
        };
        let x = hi - lo;
        (x, (hi - x) - lo, k)
    } else if hx < TINY_EXPM1_BITS {
        return x;
    } else {
        (x, 0.0, 0)
    };
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs);
    }
    let e = (x * (e - c) - c) - hxs;
    match k {
        -1 => 0.5 * (x - e) - 0.5,
        1 if x < -0.25 => -2.0 * (e - (x + 0.5)),
        1 => 1.0 + 2.0 * (x - e),
        k if k <= -2 || k > 56 => scale(1.0 - (e - x), k) - 1.0,
        k if k < 23 => scale(
            f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k)) - (e - x),
            k,
        ),
        k => scale(
            (x - (e + f32::from_bits(((0x7f - k) << 23) as u32))) + 1.0,
            k,
        ),
    }
}

/// `tanh(x)`, bit for bit as glibc 2.36's `tanhf` computes it, on any host.
pub fn tanh(x: f32) -> f32 {
    let ix = x.to_bits() & 0x7fff_ffff;
    let negative = x.is_sign_negative();
    if ix >= 0x7f80_0000 {
        // ±1 for ±inf; NaN stays NaN.
        return if negative {
            1.0 / x - 1.0
        } else {
            1.0 / x + 1.0
        };
    }
    let z = if ix < SATURATED_TANH_BITS {
        if ix == 0 {
            return x;
        }
        if ix < TINY_TANH_BITS {
            return x * (1.0 + x);
        }
        if ix >= 0x3f80_0000 {
            let t = expm1(2.0 * x.abs());
            1.0 - 2.0 / (t + 2.0)
        } else {
            let t = expm1(-2.0 * x.abs());
            -t / (t + 2.0)
        }
    } else {
        // `1 − 1e-30`, which rounds to 1.
        1.0 - 1.0e-30
    };
    if negative {
        -z
    } else {
        z
    }
}

/// Writes [`tanh`] of every element of `src` to `dst`, eight lanes at a
/// time when the host has AVX2: the same bits as the scalar loop.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn tanh_into(src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "tanh length mismatch");
    #[cfg(target_arch = "x86_64")]
    let done = if x86::avx2_available() {
        let blocks = src.len() - src.len() % 8;
        // SAFETY: AVX2 was detected at runtime.
        unsafe { x86::tanh_avx2(&src[..blocks], &mut dst[..blocks]) };
        blocks
    } else {
        0
    };
    #[cfg(not(target_arch = "x86_64"))]
    let done = 0;
    for (d, &s) in dst[done..].iter_mut().zip(&src[done..]) {
        *d = tanh(s);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use std::arch::x86_64::*;
    use std::sync::OnceLock;

    /// Whether this host has AVX2, detected once.
    pub(super) fn avx2_available() -> bool {
        static AVX2: OnceLock<bool> = OnceLock::new();
        *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }

    /// [`tanh`] of eight lanes whose magnitudes all lie in `[2^-55, 22)`,
    /// which makes the argument of `expm1f` finite, nonzero and in `(−2,
    /// 44)`. Every line is a scalar-port line run on all lanes; each lane
    /// keeps the branch its own value takes.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    unsafe fn tanh8(x: __m256) -> __m256 {
        let f = _mm256_set1_ps;
        let i = _mm256_set1_epi32;
        let sign = f(-0.0);
        let a = _mm256_andnot_ps(sign, x);
        // |x| ≥ 1 takes expm1(2|x|), the rest expm1(−2|x|).
        let big = _mm256_cmp_ps::<_CMP_GE_OQ>(a, f(1.0));
        let two_a = _mm256_mul_ps(f(2.0), a);
        let y = _mm256_blendv_ps(_mm256_xor_ps(two_a, sign), two_a, big);

        // expm1(y): k = 0 for |y| ≤ 0.5·ln 2, −1 below 1.5·ln 2 (y is
        // negative there: positive arguments are at least 2), else
        // k = trunc(y/ln 2 ± 0.5). Reducing by the general formula with
        // t = 0 or t = −1 gives exactly the fixed reductions' hi and lo.
        let hy = _mm256_castps_si256(_mm256_andnot_ps(sign, y));
        let reduce = _mm256_cmpgt_epi32(hy, i(HALF_LN2_BITS as i32));
        let general = _mm256_cmpgt_epi32(hy, i(THREE_HALVES_LN2_BITS as i32 - 1));
        let half = _mm256_blendv_ps(f(-0.5), f(0.5), big);
        let kg = _mm256_cvttps_epi32(_mm256_add_ps(_mm256_mul_ps(f(INV_LN2), y), half));
        let k = _mm256_blendv_epi8(reduce, kg, general);
        let t = _mm256_cvtepi32_ps(k);
        let hi = _mm256_sub_ps(y, _mm256_mul_ps(t, f(LN2_HI)));
        let lo = _mm256_mul_ps(t, f(LN2_LO));
        let xr = _mm256_sub_ps(hi, lo);
        let c = _mm256_sub_ps(_mm256_sub_ps(hi, xr), lo);

        let hfx = _mm256_mul_ps(f(0.5), xr);
        let hxs = _mm256_mul_ps(xr, hfx);
        let mut p = _mm256_add_ps(f(Q4), _mm256_mul_ps(hxs, f(Q5)));
        for q in [Q3, Q2, Q1] {
            p = _mm256_add_ps(f(q), _mm256_mul_ps(hxs, p));
        }
        let r1 = _mm256_add_ps(f(1.0), _mm256_mul_ps(hxs, p));
        let tt = _mm256_sub_ps(f(3.0), _mm256_mul_ps(r1, hfx));
        let e = _mm256_mul_ps(
            hxs,
            _mm256_div_ps(
                _mm256_sub_ps(r1, tt),
                _mm256_sub_ps(f(6.0), _mm256_mul_ps(xr, tt)),
            ),
        );
        let r_k0 = _mm256_sub_ps(xr, _mm256_sub_ps(_mm256_mul_ps(xr, e), hxs));
        let e = _mm256_sub_ps(
            _mm256_sub_ps(_mm256_mul_ps(xr, _mm256_sub_ps(e, c)), c),
            hxs,
        );
        let r_km1 = _mm256_sub_ps(_mm256_mul_ps(f(0.5), _mm256_sub_ps(xr, e)), f(0.5));
        // Adds k to a vector's exponents.
        let exp_k = _mm256_slli_epi32::<23>(k);
        macro_rules! scale {
            ($v:expr) => {
                _mm256_castsi256_ps(_mm256_add_epi32(_mm256_castps_si256($v), exp_k))
            };
        }
        let e_minus_x = _mm256_sub_ps(e, xr);
        let r_far = _mm256_sub_ps(scale!(_mm256_sub_ps(f(1.0), e_minus_x)), f(1.0));
        let t_lo = _mm256_castsi256_ps(_mm256_sub_epi32(
            i(0x3f80_0000),
            _mm256_srlv_epi32(i(0x0100_0000), k),
        ));
        let r_lo = scale!(_mm256_sub_ps(t_lo, e_minus_x));
        let t_mid = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_sub_epi32(i(0x7f), k)));
        let r_mid = scale!(_mm256_add_ps(
            _mm256_sub_ps(xr, _mm256_add_ps(e, t_mid)),
            f(1.0),
        ));
        // Each lane keeps its class's result; later picks win.
        macro_rules! pick {
            ($r:expr, $s:expr, $mask:expr) => {
                _mm256_blendv_ps($r, $s, _mm256_castsi256_ps($mask))
            };
        }
        let mut r = pick!(r_mid, r_lo, _mm256_cmpgt_epi32(i(23), k));
        let far = _mm256_or_si256(_mm256_cmpgt_epi32(i(-1), k), _mm256_cmpgt_epi32(k, i(56)));
        r = pick!(r, r_far, far);
        r = pick!(r, r_km1, _mm256_cmpeq_epi32(k, i(-1)));
        r = pick!(r, r_k0, _mm256_cmpeq_epi32(k, _mm256_setzero_si256()));
        r = pick!(r, y, _mm256_cmpgt_epi32(i(TINY_EXPM1_BITS as i32), hy));

        // tanh: 1 − 2/(t + 2) for |x| ≥ 1, −t/(t + 2) below, signed as x.
        let q = _mm256_div_ps(
            _mm256_blendv_ps(_mm256_xor_ps(r, sign), f(2.0), big),
            _mm256_add_ps(r, f(2.0)),
        );
        let z = _mm256_blendv_ps(q, _mm256_sub_ps(f(1.0), q), big);
        _mm256_xor_ps(z, _mm256_and_ps(x, sign))
    }

    /// [`tanh`] of `src` into `dst`, both a whole number of eight-lane
    /// blocks long. A block holding a lane outside `[2^-55, 22)` (or NaN)
    /// recomputes that lane with the scalar port.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tanh_avx2(src: &[f32], dst: &mut [f32]) {
        debug_assert!(src.len() == dst.len() && src.len().is_multiple_of(8));
        let lo = _mm256_set1_epi32(TINY_TANH_BITS as i32 - 1);
        let hi = _mm256_set1_epi32(SATURATED_TANH_BITS as i32);
        let magnitude = _mm256_set1_epi32(0x7fff_ffff);
        for (s, d) in src.chunks_exact(8).zip(dst.chunks_exact_mut(8)) {
            // SAFETY: `s` and `d` hold eight f32 each.
            let x = unsafe { _mm256_loadu_ps(s.as_ptr()) };
            let ix = _mm256_and_si256(_mm256_castps_si256(x), magnitude);
            let inside = _mm256_and_si256(_mm256_cmpgt_epi32(ix, lo), _mm256_cmpgt_epi32(hi, ix));
            // SAFETY: `d` holds eight f32, and the caller verified AVX2.
            unsafe { _mm256_storeu_ps(d.as_mut_ptr(), tanh8(x)) };
            let mut outside = !_mm256_movemask_ps(_mm256_castsi256_ps(inside)) & 0xff;
            while outside != 0 {
                let lane = outside.trailing_zeros() as usize;
                d[lane] = tanh(s[lane]);
                outside &= outside - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Asserts that `tanh_into` equals `tanh` bit for bit on `src`.
    fn check(src: &[f32]) {
        let mut dst = vec![0.0; src.len()];
        tanh_into(src, &mut dst);
        for (&x, &y) in src.iter().zip(&dst) {
            assert_eq!(
                y.to_bits(),
                tanh(x).to_bits(),
                "tanh_into({x:e} = {:#010x}) = {y:e}, tanh = {:e}",
                x.to_bits(),
                tanh(x)
            );
        }
    }

    /// The `k` `expm1f` computes for the argument `y` past `1.5·ln 2`.
    fn k_of(y: f32) -> i32 {
        (INV_LN2 * y + if y < 0.0 { -0.5 } else { 0.5 }) as i32
    }

    /// The last `x > 0` whose `expm1` argument has `k` below `edge` and the
    /// first at `edge`, found by walking bit patterns from an estimate.
    fn k_edge(edge: i32, negative: bool) -> [f32; 2] {
        let arg = |x: f32| if negative { -2.0 * x } else { 2.0 * x };
        let k = |x: f32| k_of(arg(x)).abs();
        let mut bits = ((edge as f32 - 0.5) * std::f32::consts::LN_2 / 2.0).to_bits();
        while k(f32::from_bits(bits)) >= edge {
            bits -= 1;
        }
        while k(f32::from_bits(bits + 1)) < edge {
            bits += 1;
        }
        [f32::from_bits(bits), f32::from_bits(bits + 1)]
    }

    /// Every class boundary of `tanhf` and `expm1f`, with its neighbours,
    /// both signs.
    fn boundaries() -> Vec<f32> {
        let mut bits: Vec<u32> = vec![
            0,
            1,
            0x007f_ffff,
            0x0080_0000,
            TINY_TANH_BITS,
            // expm1's 2^-25 on the argument 2x.
            TINY_EXPM1_BITS - (1 << 23),
            // 0.5·ln 2 and 1.5·ln 2 on the argument 2x.
            HALF_LN2_BITS - (1 << 23),
            THREE_HALVES_LN2_BITS - (1 << 23),
            0x3f80_0000,
            SATURATED_TANH_BITS,
            0x7f7f_ffff,
        ];
        let mut values: Vec<f32> = Vec::new();
        for &b in &bits.clone() {
            bits.extend([b.wrapping_sub(1), b + 1, b + 2]);
        }
        values.extend(bits.iter().map(|&b| f32::from_bits(b)));
        // The k classes of expm1(2x): 23 and 56 split its three exponent
        // adjustments; every other edge moves k alone.
        for edge in 4..=63 {
            values.extend(k_edge(edge, false));
        }
        values.extend(k_edge(3, true));
        values.extend([
            0.5,
            1.0,
            2.0,
            f32::INFINITY,
            f32::NAN,
            f32::from_bits(0x7fa0_0001),
            f32::from_bits(0x7fff_ffff),
        ]);
        let negated: Vec<f32> = values.iter().map(|&v| -v).collect();
        values.extend(negated);
        values
    }

    #[test]
    fn k_edges_sit_where_the_classes_change() {
        let [below, at] = k_edge(23, false);
        assert_eq!((k_of(2.0 * below), k_of(2.0 * at)), (22, 23));
        let [below, at] = k_edge(57, false);
        assert_eq!((k_of(2.0 * below), k_of(2.0 * at)), (56, 57));
        let [below, at] = k_edge(3, true);
        assert_eq!((k_of(-2.0 * below), k_of(-2.0 * at)), (-2, -3));
    }

    #[test]
    fn tanh_into_matches_tanh_at_every_class_boundary() {
        let values = boundaries();
        // Each value alone in every lane of a block and in the tail, among
        // in-range neighbours.
        for &v in &values {
            for at in 0..17 {
                let mut src: Vec<f32> = (0..17).map(|i| 0.1 + i as f32 * 0.3).collect();
                src[at] = v;
                check(&src);
            }
        }
        check(&values);
    }

    #[test]
    fn tanh_keeps_the_special_values() {
        assert_eq!(tanh(0.0).to_bits(), 0);
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(tanh(f32::INFINITY), 1.0);
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
        assert_eq!(tanh(22.0), 1.0);
        assert!(tanh(f32::NAN).is_nan());
        let tiny = f32::from_bits(1);
        assert_eq!(tanh(tiny).to_bits(), tiny.to_bits());
    }

    #[test]
    fn tanh_into_matches_tanh_on_a_strided_sweep_at_every_tail_length() {
        // 2^20 bit patterns spread over all 2^32, low bits varying too.
        let src: Vec<f32> = (0..1u32 << 20)
            .map(|i| f32::from_bits(i.wrapping_mul(4099)))
            .collect();
        let mut rest = &src[..];
        for len in (0..=17).cycle() {
            if rest.is_empty() {
                break;
            }
            let (head, tail) = rest.split_at(len.min(rest.len()));
            check(head);
            rest = tail;
        }
    }

    #[test]
    fn tanh_digest_over_the_strided_sweep_is_pinned() {
        // FNV-1a over the results of the sweep above (NaN results as one
        // word): the port's bits on glibc 2.36, where they equal tanhf's
        // on every input. A changed constant or operation shows here on
        // any host.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for i in 0..1u32 << 20 {
            let y = tanh(f32::from_bits(i.wrapping_mul(4099)));
            h ^= u64::from(if y.is_nan() { u32::MAX } else { y.to_bits() });
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(h, 0x5dc5_ad0e_d2ed_a01b);
    }

    /// Runs `mismatch(block)` over all 2^32 bit patterns in blocks of
    /// 2^16 on the worker pool and returns the total mismatch count and
    /// the first block's first mismatch.
    fn sweep_all(mismatches: impl Fn(&[f32]) -> (u64, Option<u32>) + Sync) -> (u64, Option<u32>) {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Mutex;
        let count = AtomicU64::new(0);
        let first = Mutex::new(None::<u32>);
        crate::parallel::for_each_range(1 << 16, 1, |blocks| {
            let mut src = vec![0.0f32; 1 << 16];
            for block in blocks {
                for (i, x) in src.iter_mut().enumerate() {
                    *x = f32::from_bits(((block as u32) << 16) | i as u32);
                }
                let (n, at) = mismatches(&src);
                count.fetch_add(n, Ordering::Relaxed);
                if let Some(bits) = at {
                    let mut first = first.lock().unwrap();
                    *first = Some(first.map_or(bits, |b| b.min(bits)));
                }
            }
        });
        (count.into_inner(), first.into_inner().unwrap())
    }

    /// The exhaustive form of the sweep above: `tanh_into` against the
    /// scalar port on every f32. It checks this crate's code, not the
    /// host, so it holds everywhere. About a minute at two threads in a
    /// release build: `cargo test --release -p lergan-tensor --lib --
    /// --ignored tanh_into_matches_tanh_on_every_f32`.
    #[test]
    #[ignore = "2^32 inputs: run in release"]
    fn tanh_into_matches_tanh_on_every_f32() {
        let (count, first) = sweep_all(|src| {
            let mut dst = vec![0.0f32; src.len()];
            tanh_into(src, &mut dst);
            let bad = src
                .iter()
                .zip(&dst)
                .filter(|(&x, &y)| y.to_bits() != tanh(x).to_bits());
            let first = bad.clone().next().map(|(&x, _)| x.to_bits());
            (bad.count() as u64, first)
        });
        assert_eq!(count, 0, "{count} mismatches, first at {first:#x?}");
    }

    /// The scalar port against the host's `f32::tanh` (its libm `tanhf`)
    /// on every f32. It holds on glibc 2.36; another libm may round some
    /// inputs differently, so this one describes the host rather than the
    /// code.
    #[test]
    #[ignore = "2^32 inputs, and depends on the host's libm"]
    fn tanh_matches_host_libm_on_every_f32() {
        let (count, first) = sweep_all(|src| {
            let bad = src
                .iter()
                .filter(|x| x.tanh().to_bits() != tanh(**x).to_bits());
            let first = bad.clone().next().map(|x| x.to_bits());
            (bad.count() as u64, first)
        });
        assert_eq!(count, 0, "{count} mismatches, first at {first:#x?}");
    }
}
