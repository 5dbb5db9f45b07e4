//! Fixed-point quantisation for the 16-bit PIM data path.
//!
//! LerGAN (like PipeLayer) trains with 16-bit inputs, weights and
//! outputs. This module models that data path: symmetric two's-complement
//! fixed point with a configurable fraction width, saturating rounding,
//! and the round-trip error bounds the hardware-facing tests lean on.

use crate::tensor::Tensor;

/// A signed fixed-point format: `total_bits` two's-complement bits with
/// `frac_bits` of fraction.
///
/// # Example
///
/// ```
/// use lergan_tensor::quant::FixedPoint;
/// let q = FixedPoint::new(16, 12).unwrap();
/// let code = q.quantize(0.7512);
/// assert!((q.dequantize(code) - 0.7512).abs() <= q.step());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FixedPoint {
    total_bits: u32,
    frac_bits: u32,
}

impl FixedPoint {
    /// Creates a format. Returns `None` unless
    /// `0 < total_bits ≤ 32` and `frac_bits < total_bits`.
    pub fn new(total_bits: u32, frac_bits: u32) -> Option<Self> {
        if total_bits == 0 || total_bits > 32 || frac_bits >= total_bits {
            return None;
        }
        Some(FixedPoint {
            total_bits,
            frac_bits,
        })
    }

    /// The paper's 16-bit activation/weight format with 12 fraction bits
    /// (range ±8, resolution ~2.4e-4) — a common training fixed point.
    pub fn paper_default() -> Self {
        FixedPoint {
            total_bits: 16,
            frac_bits: 12,
        }
    }

    /// Total bit width.
    pub fn total_bits(&self) -> u32 {
        self.total_bits
    }

    /// Fraction bit width.
    pub fn frac_bits(&self) -> u32 {
        self.frac_bits
    }

    /// Quantisation step (the value of one LSB).
    pub fn step(&self) -> f32 {
        (2.0f32).powi(-(self.frac_bits as i32))
    }

    /// Largest representable value.
    pub fn max_value(&self) -> f32 {
        (self.max_code() as f32) * self.step()
    }

    /// Largest representable code.
    pub fn max_code(&self) -> i32 {
        (1i32 << (self.total_bits - 1)) - 1
    }

    /// Smallest representable code.
    pub fn min_code(&self) -> i32 {
        -(1i32 << (self.total_bits - 1))
    }

    /// Quantises a value (round-to-nearest, saturating).
    pub fn quantize(&self, v: f32) -> i32 {
        let scaled = (v / self.step()).round();
        scaled.clamp(self.min_code() as f32, self.max_code() as f32) as i32
    }

    /// Dequantises a code.
    pub fn dequantize(&self, code: i32) -> f32 {
        code as f32 * self.step()
    }

    /// Quantises a whole tensor into codes.
    pub fn quantize_tensor(&self, t: &Tensor) -> Vec<i32> {
        t.data().iter().map(|&v| self.quantize(v)).collect()
    }

    /// Round-trip quantisation of a tensor (what the PIM data path does to
    /// every operand).
    pub fn round_trip(&self, t: &Tensor) -> Tensor {
        t.map(|v| self.dequantize(self.quantize(v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_validation() {
        assert!(FixedPoint::new(16, 12).is_some());
        assert!(FixedPoint::new(0, 0).is_none());
        assert!(FixedPoint::new(16, 16).is_none());
        assert!(FixedPoint::new(40, 8).is_none());
    }

    #[test]
    fn round_trip_error_is_bounded_by_one_step() {
        let q = FixedPoint::paper_default();
        for v in [-0.9, -0.1234, 0.0, 0.001, 0.5, 3.99] {
            let rt = q.dequantize(q.quantize(v));
            assert!(
                (rt - v).abs() <= q.step() / 2.0 + 1e-7,
                "value {v}: round trip {rt}"
            );
        }
    }

    #[test]
    fn saturation_at_the_rails() {
        let q = FixedPoint::paper_default();
        assert_eq!(q.quantize(1e9), q.max_code());
        assert_eq!(q.quantize(-1e9), q.min_code());
        assert!(q.max_value() > 7.99);
    }

    #[test]
    fn tensor_round_trip_preserves_shape_and_bounds() {
        let q = FixedPoint::new(8, 4).unwrap();
        let t = Tensor::from_fn(&[3, 3], |i| i[0] as f32 - i[1] as f32 * 0.3);
        let rt = q.round_trip(&t);
        assert_eq!(rt.shape(), t.shape());
        for (&a, &b) in rt.data().iter().zip(t.data().iter()) {
            assert!((a - b).abs() <= q.step() / 2.0 + 1e-6);
        }
    }
}
