//! LerGAN core: Zero-Free Data Reshaping (ZFDR), the ZFDM compiler, the
//! Fig. 13 iteration lowering and the LerGAN accelerator model.
//!
//! This crate implements the paper's primary contribution (Sec. IV–V):
//!
//! * [`zfdr`] — ZFDR for T-CONV, W-CONV-S and D-CONV: exact pattern
//!   enumeration and the paper's closed-form Case 1/2/3 counting
//!   (Eq. 11–13), the cost model the compiler maps onto crossbars. The
//!   classes are pinned to the taps `lergan_tensor::im2col::ConvPlan`,
//!   the zero-free executor, multiplies by real inputs;
//! * [`replica`] — the duplication machinery: `replica_e_max` /
//!   `replica_i_max` selection under the transfer-versus-compute constraint
//!   of Sec. V, the Table III degree presets, and Eq. 14's DataMapping
//!   replicas;
//! * [`compiler`] — ZFDM + DataMapping: maps every (phase, layer) workload
//!   onto CArray storage and MMV cycles under a chosen reshape scheme and
//!   duplication degree;
//! * [`schedule`] — the lowering from the shared op graph
//!   ([`lergan_gan::ir::OpGraph`]) plus tile allocations and fault state to
//!   the discrete-event task graph of one Fig. 13 iteration (mode switches,
//!   mappings, phase runs, transfers, updates), with per-op task labels;
//! * [`lergan`] — the assembled accelerator: compiled GAN + 3D-connected
//!   PIM + energy/latency reporting via the discrete-event engine.
//!
//! # Example
//!
//! ```
//! use lergan_core::{LerGan, ReplicaDegree};
//! use lergan_gan::benchmarks;
//!
//! let gan = benchmarks::cgan();
//! let accel = LerGan::builder(&gan)
//!     .replica_degree(ReplicaDegree::Low)
//!     .build()
//!     .expect("cGAN maps onto the default configuration");
//! let report = accel.train_iterations(1);
//! assert!(report.iteration_latency_ns > 0.0);
//! ```

pub mod compiler;
pub mod fault;
pub mod lergan;
pub mod link;
pub mod mapping;
pub mod recovery;
pub mod replica;
pub mod schedule;
pub mod zfdr;

pub use compiler::{CompiledGan, CompilerOptions, Connection, ReshapeScheme};
pub use fault::{DegradationReport, FaultError, SystemFaults};
pub use lergan::{BuildError, LerGan, LerGanBuilder, TrainingReport};
pub use link::{LinkChaos, LinkError, LinkReport, ReliableFabric, TransferOutcome};
pub use mapping::{MappingError, TileAllocation};
pub use recovery::{
    DrainedRuntime, IterationFigures, RecoveryError, RecoveryPolicy, RecoveryReport,
    SelfHealingRuntime, StartFailure, StepReport,
};
pub use replica::{ReplicaDegree, ReplicaPlan};
pub use schedule::{LoweredIteration, OpTask, ScheduleContext};
pub use zfdr::ZfdrPlan;
