//! System-level fault scenarios and the degradation they cost.
//!
//! A LerGAN accelerator can lose hardware at three granularities: ReRAM
//! cells (stuck-at, modelled per bank by [`lergan_reram::FaultMap`]),
//! whole tiles (peripheral failure, recorded in the same map), and
//! interconnect (broken added wires / frozen switches, modelled by
//! [`lergan_noc::LinkFaults`]). [`SystemFaults`] bundles all three into
//! one explicit, deterministic scenario keyed by the paper's B1–B6 bank
//! assignment (each [`Phase`] owns one bank, so per-phase fault maps *are*
//! per-bank fault maps).
//!
//! The builder consumes a scenario and degrades gracefully: dead tiles
//! shrink the bank the compiler sizes replicas against and the allocator
//! maps around them; broken wires re-route through the H-tree parent path.
//! When capacity is genuinely insufficient the builder returns a typed
//! [`FaultError`] instead of panicking, and when it succeeds a
//! [`DegradationReport`] quantifies exactly what the faults cost against
//! the fault-free plan.

use lergan_gan::Phase;
use lergan_noc::{LinkFaults, RouteError};
use lergan_reram::FaultMap;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// A complete, deterministic fault scenario for one DcuPair accelerator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SystemFaults {
    banks: BTreeMap<Phase, FaultMap>,
    links: LinkFaults,
}

impl SystemFaults {
    /// A scenario with no faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether the scenario holds no faults at all.
    pub fn is_empty(&self) -> bool {
        self.banks.values().all(|m| m.is_pristine()) && self.links.is_empty()
    }

    /// Whether a build under this scenario is the fault-free build: no dead
    /// tile and no link fault. [`crate::LerGanBuilder::build`] reads only
    /// those two; stuck cells and wear counters live in the banks' cell
    /// arrays, which the mapping, the fabric and the iteration simulation
    /// never look at.
    pub fn builds_fault_free(&self) -> bool {
        self.dead_tiles() == 0 && self.links.is_empty()
    }

    /// The part of this scenario a build reads: each bank's dead tiles and
    /// the link faults, without stuck cells or wear counters. A build under
    /// it is the build under `self` (see
    /// [`SystemFaults::builds_fault_free`]), and equal keys build equal
    /// accelerators; banks with no dead tile are left out, so the key does
    /// not depend on which banks were touched.
    pub fn build_key(&self) -> SystemFaults {
        let mut key = SystemFaults {
            links: self.links.clone(),
            ..SystemFaults::none()
        };
        for (&phase, map) in &self.banks {
            for tile in map.dead_tiles() {
                key.bank_mut(phase).kill_tile(tile);
            }
        }
        key
    }

    /// The fault map of a phase's bank, if one was recorded.
    pub fn bank(&self, phase: Phase) -> Option<&FaultMap> {
        self.banks.get(&phase)
    }

    /// Mutable fault map of a phase's bank, created pristine on first use.
    pub fn bank_mut(&mut self, phase: Phase) -> &mut FaultMap {
        self.banks.entry(phase).or_default()
    }

    /// The interconnect fault set.
    pub fn links(&self) -> &LinkFaults {
        &self.links
    }

    /// Mutable interconnect fault set.
    pub fn links_mut(&mut self) -> &mut LinkFaults {
        &mut self.links
    }

    /// Dead tiles in a phase's bank.
    pub fn dead_tiles_in(&self, phase: Phase) -> usize {
        self.bank(phase).map_or(0, |m| m.dead_tile_count())
    }

    /// Total dead tiles across all banks.
    pub fn dead_tiles(&self) -> usize {
        self.banks.values().map(|m| m.dead_tile_count()).sum()
    }

    /// Total stuck cells across all banks.
    pub fn stuck_cells(&self) -> usize {
        self.banks.values().map(|m| m.stuck_cells()).sum()
    }
}

/// Typed error for fault scenarios the accelerator cannot absorb.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultError {
    /// A layer needs more tiles than the phase's bank has left alive.
    InsufficientTiles {
        /// The phase whose bank is short.
        phase: Phase,
        /// Layer index within the model.
        layer: usize,
        /// Tiles the layer's mapping needs.
        needed: usize,
        /// Healthy tiles remaining in the bank.
        healthy: usize,
    },
    /// Every tile of a phase's bank is dead.
    BankDead {
        /// The phase whose bank died.
        phase: Phase,
    },
    /// Severed tree links partition the endpoints of a transfer the
    /// iteration needs.
    Unroutable(RouteError),
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::InsufficientTiles {
                phase,
                layer,
                needed,
                healthy,
            } => write!(
                f,
                "{phase} layer {layer} needs {needed} tile(s) but only {healthy} are healthy"
            ),
            FaultError::BankDead { phase } => {
                write!(f, "every tile of the {phase} bank is dead")
            }
            FaultError::Unroutable(e) => {
                write!(f, "severed tree links leave a transfer unroutable: {e}")
            }
        }
    }
}

impl Error for FaultError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FaultError::Unroutable(e) => Some(e),
            _ => None,
        }
    }
}

/// What a fault scenario costs against the fault-free plan: the same GAN,
/// options and hardware configuration, rebuilt without faults and
/// simulated side by side.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationReport {
    /// Iteration latency of the fault-free twin (ns).
    pub fault_free_latency_ns: f64,
    /// Iteration latency under faults (ns).
    pub degraded_latency_ns: f64,
    /// Iteration energy of the fault-free twin (pJ).
    pub fault_free_energy_pj: f64,
    /// Iteration energy under faults (pJ).
    pub degraded_energy_pj: f64,
    /// Stored values the fault-free plan holds (replicas included).
    pub fault_free_stored_values: u128,
    /// Stored values the degraded plan holds after replica rebalancing.
    pub degraded_stored_values: u128,
    /// Dead tiles across all banks.
    pub dead_tiles: usize,
    /// Broken horizontal/vertical wires.
    pub broken_wires: usize,
    /// Switches frozen in the parked position.
    pub stuck_switches: usize,
    /// Stuck-at cells across all banks.
    pub stuck_cells: usize,
}

impl DegradationReport {
    /// Latency ratio degraded / fault-free (1.0 = no slowdown).
    pub fn slowdown(&self) -> f64 {
        if self.fault_free_latency_ns > 0.0 {
            self.degraded_latency_ns / self.fault_free_latency_ns
        } else {
            1.0
        }
    }

    /// Fraction of fault-free throughput lost (0.0 = none).
    pub fn throughput_loss(&self) -> f64 {
        1.0 - 1.0 / self.slowdown().max(1.0)
    }

    /// Energy ratio degraded / fault-free.
    pub fn energy_overhead(&self) -> f64 {
        if self.fault_free_energy_pj > 0.0 {
            self.degraded_energy_pj / self.fault_free_energy_pj
        } else {
            1.0
        }
    }

    /// Replica copies shed to fit the surviving capacity (stored values).
    pub fn shed_stored_values(&self) -> u128 {
        self.fault_free_stored_values
            .saturating_sub(self.degraded_stored_values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lergan_reram::StuckAt;

    #[test]
    fn empty_scenario_is_empty() {
        let f = SystemFaults::none();
        assert!(f.is_empty());
        assert_eq!(f.dead_tiles(), 0);
        assert_eq!(f.stuck_cells(), 0);
        assert!(f.bank(Phase::GForward).is_none());
    }

    #[test]
    fn bank_mut_creates_and_tracks() {
        let mut f = SystemFaults::none();
        f.bank_mut(Phase::GForward).kill_tile(3);
        f.bank_mut(Phase::DForward).set_stuck(99, StuckAt::One);
        assert!(!f.is_empty());
        assert_eq!(f.dead_tiles(), 1);
        assert_eq!(f.dead_tiles_in(Phase::GForward), 1);
        assert_eq!(f.dead_tiles_in(Phase::DForward), 0);
        assert_eq!(f.stuck_cells(), 1);
    }

    #[test]
    fn pristine_touched_banks_still_count_as_empty() {
        let mut f = SystemFaults::none();
        let _ = f.bank_mut(Phase::GBackward); // touched but pristine
        assert!(f.is_empty());
    }

    #[test]
    fn degradation_ratios() {
        let r = DegradationReport {
            fault_free_latency_ns: 100.0,
            degraded_latency_ns: 125.0,
            fault_free_energy_pj: 10.0,
            degraded_energy_pj: 11.0,
            fault_free_stored_values: 1000,
            degraded_stored_values: 800,
            dead_tiles: 1,
            broken_wires: 2,
            stuck_switches: 0,
            stuck_cells: 5,
        };
        assert!((r.slowdown() - 1.25).abs() < 1e-12);
        assert!((r.throughput_loss() - 0.2).abs() < 1e-12);
        assert!((r.energy_overhead() - 1.1).abs() < 1e-12);
        assert_eq!(r.shed_stored_values(), 200);
    }
}
