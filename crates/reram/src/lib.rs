//! ReRAM crossbar / tile / bank timing, energy and area models.
//!
//! This crate is the hardware substrate of the LerGAN reproduction. The
//! paper evaluates on TaOx/TiO₂ ReRAM whose circuit characteristics it
//! publishes in Table IV; those numbers seed [`config::ReramConfig`], so the
//! model charges exactly the latencies and energies the paper's own
//! accounting used (the substitution for CACTI-6.5/CACTI-IO is documented
//! in `DESIGN.md`).
//!
//! The organisation follows PRIME/ISAAC, as Sec. V prescribes:
//!
//! * a **crossbar** of 128×128 4-bit cells stores 16-bit weights across 4
//!   adjacent cells and performs one matrix-multiply-vector per read cycle;
//! * a **tile** (128 MB) holds a CArray (64 MB of crossbars for compute), a
//!   BArray (2 MB of random-access buffer) and an SArray (62 MB of plain
//!   storage);
//! * a **bank** holds 16 tiles behind an H-tree (modelled in `lergan-noc`).
//!
//! [`energy::EnergyModel`] produces the Fig. 24 per-tile breakdown (ADC,
//! cell switching, DAC, shift-and-add, buffer) and supports the paper's
//! what-if (1-pJ cell switching + 60 % ADC saving ⇒ ≈3× power reduction).

pub mod abft;
pub mod area;
pub mod bitslice;
pub mod config;
pub mod crossbar;
pub mod energy;
pub mod fault;
pub mod tile;
pub mod variation;
pub mod wear;

pub use abft::{AbftBlock, AbftObservation};
pub use config::ReramConfig;
pub use crossbar::CrossbarLayout;
pub use energy::{EnergyCounts, EnergyModel, TileEnergyBreakdown};
pub use fault::{FaultMap, StuckAt, WritePolicy, WriteReport};
pub use tile::{BankSpec, TileSpec};
pub use variation::VariationModel;
pub use wear::{WearLimits, WearModel};
