//! H-tree and reconfigurable 3D-connected PIM interconnect models.
//!
//! This crate implements the paper's Sec. IV-B contribution substrate:
//!
//! * [`htree`] — the baseline H-tree of a 16-tile bank (Fig. 12a): a binary
//!   tree of multiplexing and merging routing nodes, the connection PRIME
//!   and PipeLayer use;
//! * [`dcu`] — the **3D data-wire connection unit (3DCU)**: three stacked
//!   banks with added *horizontal* wires between same-level nodes of
//!   different parents and *vertical* wires between corresponding nodes of
//!   adjacent banks, guarded by switches (one per node on the outer banks,
//!   two on the middle bank) and bypassable adders (Fig. 12b). A 3DCU is
//!   either in *Smode* (static H-tree, plain memory) or *Cmode*
//!   (reconfigured for a dataflow);
//! * [`dcu::DcuPair`] — two 3DCUs joined by direct top/bottom bypass links
//!   (Fig. 13), the unit a GAN (generator + discriminator) maps onto;
//! * [`fault`] — stuck switches and severed wires the router detours
//!   around;
//! * [`transient`] — CRC-checked transfers over wires with transient
//!   faults.
//!
//! Routes charge wire latency and energy only. Neither switch-capacity
//! conflicts between concurrent Cmode flows nor the bypassable adders'
//! in-network partial-sum merges are modelled.
//!
//! # Example
//!
//! ```
//! use lergan_noc::{NocConfig, dcu::{ThreeDcu, Mode, Endpoint}};
//!
//! let cfg = NocConfig::default();
//! let dcu = ThreeDcu::new(&cfg);
//! // Tiles 7 and 8 are physically adjacent but 8 tree hops apart in Smode…
//! let far = dcu.route(Endpoint::tile(0, 7), Endpoint::tile(0, 8), Mode::Smode).unwrap();
//! // …while Cmode's horizontal wires cut straight across (Fig. 12b).
//! let near = dcu.route(Endpoint::tile(0, 7), Endpoint::tile(0, 8), Mode::Cmode).unwrap();
//! assert!(near.latency_ns < far.latency_ns);
//! ```

pub mod config;
pub mod dcu;
pub mod fault;
pub mod htree;
pub mod transient;

pub use config::NocConfig;
pub use dcu::{DcuPair, Endpoint, Mode, Route, RouteError, ThreeDcu};
pub use fault::LinkFaults;
pub use htree::HTree;
pub use transient::{
    checked_transfer, crc32, route_wires, timeout_ns, BurstEpisode, CheckedTransfer,
    TransientFaults, TransientOutcome, WireId,
};
