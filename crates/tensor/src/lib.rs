//! Dense `f32` tensors and reference convolution kernels for the LerGAN
//! reproduction.
//!
//! This crate is the numerical ground truth of the workspace. Everything the
//! accelerator model claims to compute — strided convolution (S-CONV),
//! transposed convolution (T-CONV), and the weight-gradient convolution
//! (W-CONV) — has a straightforward, obviously-correct implementation here,
//! including the *zero-insertion* formulation of T-CONV/W-CONV that the paper
//! analyses in Section III-A (Fig. 4–6). The zero-free execution of every
//! conv-family layer, [`im2col::ConvPlan`], is validated bit for bit
//! against these kernels.
//!
//! # Example
//!
//! ```
//! use lergan_tensor::{Tensor, conv::Conv2d};
//!
//! // A 1-channel 4x4 input and a single 3x3 kernel, stride 1, pad 1.
//! let input = Tensor::from_fn(&[1, 4, 4], |idx| (idx[1] + idx[2]) as f32);
//! let weights = Tensor::ones(&[1, 1, 3, 3]);
//! let conv = Conv2d::new(1, 1, 3, 1, 1).unwrap();
//! let out = conv.forward(&input, &weights);
//! assert_eq!(out.shape(), &[1, 4, 4]);
//! ```

pub mod conv;
pub mod dconv;
pub mod elementwise;
pub mod geometry;
pub mod im2col;
pub mod kernel;
pub mod parallel;
pub mod quant;
pub mod tensor;
pub mod workspace;
pub mod zero_insert;

pub use conv::Conv2d;
pub use elementwise::{tanh, tanh_into};
pub use geometry::{DconvAxis, DconvGeometry, SconvGeometry, TconvGeometry, WconvGeometry};
pub use kernel::{gemm_into, gemm_nt_into, mmv_into};
pub use tensor::{gemm, gemm_nt, Tensor};
pub use workspace::Workspace;

/// Absolute tolerance used by test helpers when comparing two floating point
/// tensors produced by algebraically equivalent computations.
pub const DEFAULT_TOLERANCE: f32 = 1e-3;

/// Asserts that two tensors have identical shape and element-wise agreement
/// within `tol`, with a relative-error fallback for large magnitudes.
///
/// # Panics
///
/// Panics with a descriptive message on the first mismatching element.
pub fn assert_tensors_close(a: &Tensor, b: &Tensor, tol: f32) {
    assert_eq!(
        a.shape(),
        b.shape(),
        "tensor shape mismatch: {:?} vs {:?}",
        a.shape(),
        b.shape()
    );
    for (i, (&x, &y)) in a.data().iter().zip(b.data().iter()).enumerate() {
        let denom = x.abs().max(y.abs()).max(1.0);
        assert!(
            (x - y).abs() / denom <= tol,
            "tensors differ at flat index {i}: {x} vs {y} (shape {:?})",
            a.shape()
        );
    }
}
