//! Zero-Free Data Reshaping (Sec. IV-A): the simulator's cost model.
//!
//! ZFDR's key observation: when a kernel slides over a zero-inserted input
//! (T-CONV), the set of kernel elements that align with *true* inputs is a
//! function of the output position — and only a handful of distinct
//! alignment *patterns* exist. Reshaping the kernel once per pattern (and
//! gathering only true inputs) turns the convolution into dense MMVs with
//! no zero operand at all. The same idea applies to the zero-inserted
//! `∇output` kernel of W-CONV-S and the dilated kernel of D-CONV.
//!
//! Because rows and columns factorise, a pattern is a pair (triple, for
//! volumetric GANs) of *axis patterns*. [`plan::ZfdrPlan`] enumerates axis
//! patterns exactly, and [`closed_form`] implements the paper's Case 1/2/3
//! counting (CornerReshape / EdgeReshape / InsideReshape, Eq. 11–13), which
//! the tests cross-validate against the enumeration. The compiler and the
//! replica selection read their crossbar storage and MMV cycles from these
//! classes.
//!
//! This module computes no convolution. The workspace's one zero-free
//! executor is `lergan_tensor::im2col::ConvPlan`, which runs a T-CONV as
//! its `S′` output phases per axis: CONV1's 4 Inside classes are its 2×2
//! phases, and its Edge and Corner classes are the same phases with taps
//! clipped at the border. The `zfdr_plan_is_conv_plan` test pins both
//! directions: the taps the plan multiplies by real inputs are exactly the
//! class patterns, and the MACs its GEMMs execute are the patterns' useful
//! MACs plus a border term of taps that read im2col padding.

pub mod closed_form;
pub mod plan;

pub use plan::{AxisClass, ClassKind, KindSummaries, KindSummary, ZfdrPlan};
