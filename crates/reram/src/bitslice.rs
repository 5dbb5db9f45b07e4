//! Bit-slicing of 16-bit weights across 4-bit ReRAM cells.
//!
//! A 16-bit weight code occupies `cells_per_weight` adjacent cells of a
//! crossbar row (4 cells of 4 bits each with Table IV's configuration);
//! the shift-and-add units recombine per-slice partial sums after the
//! ADCs. This module implements the encode/decode pair and the per-slice
//! dot-product identity the analog pipeline relies on.

use crate::config::ReramConfig;
use std::fmt;

/// Most cells one weight can span: a code of up to 32 bits over cells of
/// at least one bit each.
pub const MAX_SLICES: usize = 32;

/// One weight's cell levels, least-significant slice first, held inline so
/// slicing never touches the heap. Dereferences to `[u8]`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Slices {
    levels: [u8; MAX_SLICES],
    len: usize,
}

impl std::ops::Deref for Slices {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.levels[..self.len]
    }
}

impl fmt::Debug for Slices {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Splits a two's-complement code of `data_bits` into `cells_per_weight`
/// unsigned cell values, least-significant slice first.
///
/// # Panics
///
/// Panics if the code does not fit in `data_bits`, or if a weight spans
/// more than [`MAX_SLICES`] cells.
pub fn slice_weight(code: i32, config: &ReramConfig) -> Slices {
    let bits = config.data_bits;
    assert!(
        config.codes().contains(&i64::from(code)),
        "code {code} does not fit {bits} bits"
    );
    let len = config.cells_per_weight();
    assert!(
        len <= MAX_SLICES,
        "a weight spans {len} > {MAX_SLICES} cells"
    );
    let unsigned = (code as i64 & ((1i64 << bits) - 1)) as u64;
    let cell_bits = config.cell_bits;
    let mask = (1u64 << cell_bits) - 1;
    let mut levels = [0u8; MAX_SLICES];
    for (i, level) in levels[..len].iter_mut().enumerate() {
        *level = ((unsigned >> (i as u32 * cell_bits)) & mask) as u8;
    }
    Slices { levels, len }
}

/// Recombines slices (least-significant first) into the original code.
///
/// # Panics
///
/// Panics if the slice count disagrees with the configuration.
pub fn unslice_weight(slices: &[u8], config: &ReramConfig) -> i32 {
    assert_eq!(
        slices.len(),
        config.cells_per_weight(),
        "slice count mismatch"
    );
    let bits = config.data_bits;
    let mut unsigned: u64 = 0;
    for (i, &s) in slices.iter().enumerate() {
        unsigned |= (s as u64) << (i as u32 * config.cell_bits);
    }
    // Sign-extend.
    let sign_bit = 1u64 << (bits - 1);
    if unsigned & sign_bit != 0 {
        (unsigned as i64 - (1i64 << bits)) as i32
    } else {
        unsigned as i32
    }
}

/// Computes a dot product slice-wise, exactly as the crossbar columns and
/// shift-and-add units do: per-slice partial dot products, shifted by the
/// slice significance and summed. Returns the same value as the direct
/// integer dot product — the identity the analog pipeline depends on.
///
/// Inputs stay full-precision codes here (they stream bit-serially in
/// time, which is already captured by the MMV latency model).
///
/// # Panics
///
/// Panics if the operand lengths differ.
pub fn sliced_dot(weights: &[i32], inputs: &[i32], config: &ReramConfig) -> i64 {
    assert_eq!(weights.len(), inputs.len(), "operand length mismatch");
    let cell_bits = config.cell_bits;
    let n_slices = config.cells_per_weight();
    let mut total: i64 = 0;
    for slice in 0..n_slices {
        let mut partial: i64 = 0;
        for (&w, &x) in weights.iter().zip(inputs.iter()) {
            let s = slice_weight(w, config)[slice] as i64;
            partial += s * x as i64;
        }
        total += partial << (slice as u32 * cell_bits);
    }
    // Correct the two's-complement bias: the top slice carried the sign
    // bits as unsigned magnitude, overshooting negative weights by 2^bits.
    let bias: i64 = weights
        .iter()
        .zip(inputs.iter())
        .filter(|(&w, _)| w < 0)
        .map(|(_, &x)| (x as i64) << config.data_bits)
        .sum();
    total - bias
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_round_trip() {
        let cfg = ReramConfig::default();
        for code in [-32768, -1, 0, 1, 1234, 32767, -20000] {
            let slices = slice_weight(code, &cfg);
            assert_eq!(slices.len(), 4);
            assert!(slices.iter().all(|&s| s < 16));
            assert_eq!(unslice_weight(&slices, &cfg), code, "code {code}");
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_code_rejected() {
        let _ = slice_weight(40000, &ReramConfig::default());
    }

    #[test]
    fn sliced_dot_equals_integer_dot() {
        let cfg = ReramConfig::default();
        let w = [1234, -5678, 32767, -32768, 0, 17];
        let x = [5, -3, 2, 7, 100, -1];
        let direct: i64 = w
            .iter()
            .zip(x.iter())
            .map(|(&a, &b)| a as i64 * b as i64)
            .sum();
        assert_eq!(sliced_dot(&w, &x, &cfg), direct);
    }

    #[test]
    fn sliced_dot_with_quantized_operands() {
        // Bridge test: tensor-side quantisation feeds hardware-side
        // slicing; the whole pipeline is exact in the integer domain.
        let cfg = ReramConfig::default();
        let w: Vec<i32> = (0..16).map(|i| (i * 977 % 4001) - 2000).collect();
        let x: Vec<i32> = (0..16).map(|i| (i * 313 % 301) - 150).collect();
        let direct: i64 = w
            .iter()
            .zip(x.iter())
            .map(|(&a, &b)| a as i64 * b as i64)
            .sum();
        assert_eq!(sliced_dot(&w, &x, &cfg), direct);
    }
}
