//! Link-level recovery: CRC-checked transfers, a bounded retransmit
//! ladder, and soft-quarantine of flaky wires.
//!
//! `lergan-noc` models the *mechanism* of transient interconnect faults
//! ([`TransientFaults`]: seeded per-attempt bit-flips and drops on the
//! added wires, detected by an honest CRC-32 comparison). This module is
//! the *policy* above it — the link-layer arm of the recovery ladder:
//!
//! 1. **Detect** — every transfer is CRC-checked
//!    ([`lergan_noc::checked_transfer`]); a mismatch or a receiver
//!    timeout marks the attempt failed and raises a
//!    [`FaultEventKind::LinkCorrupted`] / [`FaultEventKind::LinkDropped`]
//!    event naming the guilty wire.
//! 2. **Retransmit** — failed attempts retry with the *same* capped
//!    exponential backoff the cell-level ladder uses
//!    ([`RecoveryPolicy::backoff_ns`]), up to
//!    [`RecoveryPolicy::max_retries`] attempts per route. A transfer that
//!    eventually lands this way resolves as
//!    [`RecoveryAction::Retransmitted`].
//! 3. **Soft-quarantine + re-route** — a wire that keeps failing (retry
//!    budget exhausted, or a consecutive-failure streak across transfers
//!    — the flaky-link signature of a burst episode) is retired into a
//!    *soft* [`LinkFaults`] overlay, unioned with the hard manufacturing
//!    faults, and the fabric is rebuilt so Dijkstra routes around it —
//!    the same detour machinery permanent breaks use, raised online.
//! 4. **Give up, typed** — added-wire quarantine can never partition the
//!    fabric (the H-tree always remains), but a pathological hazard that
//!    defeats the whole reroute budget surfaces as a typed
//!    [`LinkError::Undeliverable`], never a panic.
//!
//! Everything is deterministic: outcomes are pure hashes of
//! `(seed, wire, sequence, attempt)`, the backoff ladder is seedless
//! arithmetic, and quarantine decisions depend only on the transfer
//! history — a chaos schedule replays bit-identically at any thread
//! count.

use crate::recovery::RecoveryPolicy;
use lergan_noc::{
    checked_transfer, BurstEpisode, DcuPair, Endpoint, LinkFaults, Mode, NocConfig, Route,
    RouteError, TransientFaults, WireId,
};
use lergan_sim::{FaultEvent, FaultEventKind, RecoveryAction};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Serving-layer knobs for transient link chaos: enough to derive a
/// [`TransientFaults`] model per pair without the serve crate knowing the
/// NoC vocabulary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkChaos {
    /// Hazard seed (mixed per pair by the fleet).
    pub seed: u64,
    /// Baseline per-wire bit-flip probability per attempt.
    pub flip_rate: f64,
    /// Baseline per-wire drop probability per attempt.
    pub drop_rate: f64,
    /// Optional fabric-wide flaky episode: `(from_seq, until_seq,
    /// flip_rate)` over the pair's transfer sequence numbers.
    pub burst: Option<(u64, u64, f64)>,
}

impl LinkChaos {
    /// A quiet configuration (no transient hazard).
    pub fn quiet() -> Self {
        LinkChaos {
            seed: 0,
            flip_rate: 0.0,
            drop_rate: 0.0,
            burst: None,
        }
    }

    /// Whether this configuration can ever corrupt or drop a transfer.
    pub fn is_quiet(&self) -> bool {
        self.flip_rate == 0.0
            && self.drop_rate == 0.0
            && self.burst.is_none_or(|(_, _, rate)| rate == 0.0)
    }

    /// The transient-fault model this configuration describes, reseeded
    /// with `seed_mix` (so each pair in a fleet draws independent
    /// hazards from one spec).
    pub fn transients(&self, seed_mix: u64) -> TransientFaults {
        let mut t = TransientFaults::seeded(self.seed ^ seed_mix, self.flip_rate, self.drop_rate);
        if let Some((from_seq, until_seq, flip_rate)) = self.burst {
            t = t.with_burst(BurstEpisode {
                wire: None,
                from_seq,
                until_seq,
                flip_rate,
                drop_rate: 0.0,
            });
        }
        t
    }
}

/// Typed failure of the link layer.
#[derive(Debug, Clone, PartialEq)]
pub enum LinkError {
    /// No route exists even before transient hazards (hard faults
    /// partitioned the endpoints).
    Unreachable(RouteError),
    /// The retransmit ladder and the reroute budget were both exhausted
    /// without a clean delivery.
    Undeliverable {
        /// Attempts spent across every route tried.
        attempts: u32,
        /// Soft-quarantine reroutes performed before giving up.
        reroutes: u32,
    },
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::Unreachable(e) => write!(f, "link unreachable: {e}"),
            LinkError::Undeliverable { attempts, reroutes } => write!(
                f,
                "transfer undeliverable after {attempts} attempts and {reroutes} reroutes"
            ),
        }
    }
}

impl Error for LinkError {}

/// Cumulative link-layer accounting of one fabric.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkReport {
    /// Transfers requested.
    pub transfers: u64,
    /// Transfers ultimately delivered (CRC-clean).
    pub delivered: u64,
    /// Individual attempts, first tries included.
    pub attempts: u64,
    /// Attempts beyond the first, across all transfers.
    pub retransmits: u64,
    /// Transfers that needed more than one attempt and still landed —
    /// the [`RecoveryAction::Retransmitted`] arm's fire count.
    pub retransmitted: u64,
    /// Attempts the CRC rejected.
    pub corrupted: u64,
    /// Attempts the receiver timed out on.
    pub dropped: u64,
    /// Wires soft-quarantined (and routed around) so far.
    pub quarantined_wires: u64,
    /// Latency beyond each transfer's clean first attempt: timeouts,
    /// backoffs and retransmissions (ns). The clean attempt itself is
    /// already accounted by the schedule's iteration latency.
    pub extra_latency_ns: f64,
    /// Wire energy of *extra* attempts (pJ); corrupted and dropped
    /// attempts still drove the wires.
    pub extra_energy_pj: f64,
}

impl LinkReport {
    /// Retransmit attempts per attempt — the headline flakiness metric.
    pub fn retransmit_rate(&self) -> f64 {
        if self.attempts > 0 {
            self.retransmits as f64 / self.attempts as f64
        } else {
            0.0
        }
    }
}

/// What one [`ReliableFabric::send`] resolved to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferOutcome {
    /// Attempts taken, including the successful one.
    pub attempts: u32,
    /// `Some(Retransmitted)` when recovery was needed; `None` on a clean
    /// first attempt.
    pub action: Option<RecoveryAction>,
    /// Whether a soft-quarantine reroute happened during this transfer.
    pub rerouted: bool,
    /// Latency beyond the clean first attempt (ns).
    pub extra_latency_ns: f64,
    /// Wire energy beyond the clean first attempt (pJ).
    pub extra_energy_pj: f64,
}

/// Reroute budget per transfer. Inter-bank routes *must* cross added
/// wires until every vertical/horizontal detour is quarantined and the
/// route falls back to the hazard-free tree + shared-bus path, so the
/// budget is sized to drain every added wire a pair fabric owns — a
/// fabric-wide burst converges to the bus instead of erroring out.
const MAX_REROUTES: u32 = 64;

/// Consecutive-failure streak at which a wire is declared flaky and
/// soft-quarantined even though individual transfers kept recovering —
/// the escalation that ends a burst episode instead of riding it out.
const FLAKY_STREAK: u32 = 3;

/// A [`DcuPair`] fabric wrapped in CRC detection and the retransmit
/// ladder. See the module docs for the state machine.
#[derive(Debug, Clone)]
pub struct ReliableFabric {
    cfg: NocConfig,
    hard: LinkFaults,
    soft: LinkFaults,
    transients: TransientFaults,
    policy: RecoveryPolicy,
    pair: DcuPair,
    seq: u64,
    streaks: BTreeMap<WireId, u32>,
    events: Vec<FaultEvent>,
    report: LinkReport,
}

impl ReliableFabric {
    /// A fabric over `hard` permanent faults with a transient hazard.
    pub fn new(
        cfg: NocConfig,
        hard: LinkFaults,
        transients: TransientFaults,
        policy: RecoveryPolicy,
    ) -> Self {
        let pair = DcuPair::with_faults(&cfg, &hard);
        ReliableFabric {
            cfg,
            hard,
            soft: LinkFaults::none(),
            transients,
            policy,
            pair,
            seq: 0,
            streaks: BTreeMap::new(),
            events: Vec::new(),
            report: LinkReport::default(),
        }
    }

    /// The cumulative link accounting.
    pub fn report(&self) -> &LinkReport {
        &self.report
    }

    /// The soft-quarantine overlay accumulated so far (distinct from the
    /// hard faults the fabric was built with).
    pub fn quarantined(&self) -> &LinkFaults {
        &self.soft
    }

    /// Sequence number the next transfer will use.
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Fault events raised since the last drain, in order.
    pub fn drain_events(&mut self) -> Vec<FaultEvent> {
        std::mem::take(&mut self.events)
    }

    fn route(&self, from: Endpoint, to: Endpoint, mode: Mode) -> Result<Route, LinkError> {
        self.pair
            .route(from, to, mode)
            .map_err(LinkError::Unreachable)
    }

    fn rebuild(&mut self) {
        let merged = self.hard.union(&self.soft);
        self.pair = DcuPair::with_faults(&self.cfg, &merged);
    }

    fn push_event(&mut self, step: u64, time_ns: f64, label: String, kind: FaultEventKind) {
        self.events.push(FaultEvent {
            step,
            time_ns,
            label,
            kind,
        });
    }

    fn quarantine(&mut self, wire: WireId, step: u64, time_ns: f64) {
        wire.sever_in(&mut self.soft);
        self.streaks.remove(&wire);
        self.report.quarantined_wires += 1;
        self.push_event(
            step,
            time_ns,
            format!("link {wire}"),
            FaultEventKind::LinkQuarantined,
        );
        self.rebuild();
    }

    /// Moves `values` 16-bit words from `from` to `to`, walking the
    /// retransmit ladder until the payload lands CRC-clean or the budget
    /// is spent. `step` and `now_ns` stamp the fault events.
    pub fn send(
        &mut self,
        from: Endpoint,
        to: Endpoint,
        mode: Mode,
        values: u64,
        step: u64,
        now_ns: f64,
    ) -> Result<TransferOutcome, LinkError> {
        let seq = self.seq;
        self.seq += 1;
        self.report.transfers += 1;

        let mut route = self.route(from, to, mode)?;
        let (clean_latency, clean_energy) = route.transfer(values, &self.cfg);
        let mut extra_latency = 0.0;
        let mut extra_energy = 0.0;
        let mut attempts: u32 = 0;
        let mut attempts_on_route: u32 = 0;
        let mut reroutes: u32 = 0;

        loop {
            attempts += 1;
            attempts_on_route += 1;
            self.report.attempts += 1;
            if attempts > 1 {
                self.report.retransmits += 1;
            }
            let t = checked_transfer(&route, values, &self.cfg, &self.transients, seq, attempts);
            if t.delivered && t.crc_ok {
                // Every wire on the path behaved: streaks reset.
                for wire in lergan_noc::route_wires(&route) {
                    self.streaks.remove(&wire);
                }
                self.report.delivered += 1;
                let action = if attempts > 1 {
                    self.report.retransmitted += 1;
                    extra_latency += t.latency_ns;
                    extra_energy += t.energy_pj;
                    self.report.extra_latency_ns += extra_latency;
                    self.report.extra_energy_pj += extra_energy;
                    self.push_event(
                        step,
                        now_ns + extra_latency,
                        format!("link seq {seq}"),
                        FaultEventKind::LinkRecovered {
                            action: RecoveryAction::Retransmitted,
                            attempts,
                        },
                    );
                    Some(RecoveryAction::Retransmitted)
                } else {
                    None
                };
                return Ok(TransferOutcome {
                    attempts,
                    action,
                    rerouted: reroutes > 0,
                    extra_latency_ns: extra_latency,
                    extra_energy_pj: extra_energy,
                });
            }

            // The attempt failed. Charge it: the first attempt's *clean*
            // share is the schedule's business, everything else is ours.
            let charged = if attempts == 1 {
                (t.latency_ns - clean_latency).max(0.0)
            } else {
                t.latency_ns
            };
            extra_latency += charged;
            if attempts > 1 {
                extra_energy += t.energy_pj;
            } else {
                extra_energy += (t.energy_pj - clean_energy).max(0.0);
            }

            let wire = match t.outcome {
                lergan_noc::TransientOutcome::Corrupted { wire, flipped_bits } => {
                    self.report.corrupted += 1;
                    self.push_event(
                        step,
                        now_ns + extra_latency,
                        format!("link {wire}"),
                        FaultEventKind::LinkCorrupted { flipped_bits },
                    );
                    wire
                }
                lergan_noc::TransientOutcome::Dropped { wire } => {
                    self.report.dropped += 1;
                    self.push_event(
                        step,
                        now_ns + extra_latency,
                        format!("link {wire}"),
                        FaultEventKind::LinkDropped,
                    );
                    wire
                }
                lergan_noc::TransientOutcome::Delivered => {
                    unreachable!("a delivered CRC-clean attempt returned above")
                }
            };
            let streak = self.streaks.entry(wire).or_insert(0);
            *streak += 1;
            let flaky = *streak >= FLAKY_STREAK;

            // Escalate: quarantine the guilty wire and re-route when the
            // per-route retry budget is spent or the wire is flaky.
            if flaky || attempts_on_route > self.policy.max_retries {
                if reroutes >= MAX_REROUTES {
                    self.report.extra_latency_ns += extra_latency;
                    self.report.extra_energy_pj += extra_energy;
                    return Err(LinkError::Undeliverable { attempts, reroutes });
                }
                self.quarantine(wire, step, now_ns + extra_latency);
                reroutes += 1;
                attempts_on_route = 0;
                route = self.route(from, to, mode)?;
            }

            // Back off before the retransmission (same capped exponential
            // ladder as cell-level recovery).
            extra_latency += self.policy.backoff_ns(attempts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn endpoints() -> (Endpoint, Endpoint) {
        // Bank 0 → bank 2 crosses vertical added wires (the intra-3DCU
        // G-forward dataflow direction).
        (Endpoint::tile(0, 0), Endpoint::pair_tile(0, 2, 0))
    }

    fn fabric(transients: TransientFaults) -> ReliableFabric {
        ReliableFabric::new(
            NocConfig::default(),
            LinkFaults::none(),
            transients,
            RecoveryPolicy::default(),
        )
    }

    #[test]
    fn quiet_link_delivers_first_try_with_no_extra_cost() {
        let (from, to) = endpoints();
        let mut f = fabric(TransientFaults::quiet());
        for step in 0..16 {
            let out = f.send(from, to, Mode::Cmode, 256, step, 0.0).unwrap();
            assert_eq!(out.attempts, 1);
            assert_eq!(out.action, None);
            assert!(!out.rerouted);
            assert_eq!(out.extra_latency_ns, 0.0);
        }
        let r = f.report();
        assert_eq!(r.transfers, 16);
        assert_eq!(r.delivered, 16);
        assert_eq!(r.retransmits, 0);
        assert_eq!(r.extra_latency_ns, 0.0);
        assert!(f.drain_events().is_empty());
    }

    #[test]
    fn flaky_link_retransmits_and_charges_backoff() {
        let (from, to) = endpoints();
        let mut f = fabric(TransientFaults::seeded(9, 0.35, 0.05));
        let mut retransmitted = 0;
        for step in 0..60 {
            let out = f.send(from, to, Mode::Cmode, 256, step, 0.0).unwrap();
            if out.attempts > 1 {
                retransmitted += 1;
                assert_eq!(out.action, Some(RecoveryAction::Retransmitted));
                assert!(out.extra_latency_ns > 0.0, "retries must cost time");
            }
        }
        assert!(retransmitted > 0, "35% flip rate never needed a retry");
        let r = f.report();
        assert_eq!(r.delivered, r.transfers);
        assert_eq!(r.retransmitted, retransmitted);
        assert!(r.retransmit_rate() > 0.0);
        assert!(r.corrupted + r.dropped > 0);
        let events = f.drain_events();
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, FaultEventKind::LinkCorrupted { .. })
                || matches!(e.kind, FaultEventKind::LinkDropped)));
        assert!(events.iter().any(|e| matches!(
            e.kind,
            FaultEventKind::LinkRecovered {
                action: RecoveryAction::Retransmitted,
                ..
            }
        )));
    }

    #[test]
    fn burst_episode_soft_quarantines_the_flaky_wire_and_reroutes() {
        let (from, to) = endpoints();
        let transients = TransientFaults::seeded(4, 0.0, 0.0).with_burst(BurstEpisode {
            wire: None,
            from_seq: 0,
            until_seq: u64::MAX,
            flip_rate: 0.97,
            drop_rate: 0.0,
        });
        let mut f = fabric(transients);
        let mut quarantined = false;
        for step in 0..20 {
            let out = f.send(from, to, Mode::Cmode, 256, step, 0.0).unwrap();
            quarantined |= out.rerouted;
        }
        assert!(quarantined, "a near-certain hazard must force quarantine");
        let r = f.report().clone();
        assert!(r.quarantined_wires > 0);
        assert_eq!(r.delivered, r.transfers, "reroute must restore delivery");
        assert!(!f.quarantined().is_empty());
        assert!(f
            .drain_events()
            .iter()
            .any(|e| matches!(e.kind, FaultEventKind::LinkQuarantined)));
        // Once every added wire on the path is quarantined the route is
        // pure tree, which the hazard never touches: sends settle clean.
        let settled = f.send(from, to, Mode::Cmode, 256, 99, 0.0).unwrap();
        assert_eq!(settled.attempts, 1);
    }

    #[test]
    fn transfers_replay_bit_identically() {
        let run = || {
            let (from, to) = endpoints();
            let mut f = fabric(TransientFaults::seeded(21, 0.3, 0.1));
            let outs: Vec<_> = (0..40)
                .map(|s| f.send(from, to, Mode::Cmode, 256, s, 0.0).unwrap())
                .collect();
            (outs, f.report().clone(), f.drain_events())
        };
        let a = run();
        let b = run();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
    }

    #[test]
    fn hard_partition_is_a_typed_unreachable_error() {
        let mut hard = LinkFaults::none();
        // Sever the destination leaf's only wire on the far bank.
        hard.sever_tree(0, 2, 16);
        let mut f = ReliableFabric::new(
            NocConfig::default(),
            hard,
            TransientFaults::quiet(),
            RecoveryPolicy::default(),
        );
        let err = f
            .send(
                Endpoint::tile(0, 0),
                Endpoint::pair_tile(0, 2, 0),
                Mode::Cmode,
                64,
                0,
                0.0,
            )
            .unwrap_err();
        assert!(matches!(err, LinkError::Unreachable(_)));
    }

    #[test]
    fn backoff_ladder_is_the_shared_recovery_policy() {
        let p = RecoveryPolicy::default();
        assert_eq!(p.backoff_ns(1), p.backoff_base_ns);
        assert_eq!(p.backoff_ns(2), p.backoff_base_ns * 2.0);
        assert_eq!(p.backoff_ns(10), p.backoff_cap_ns);
    }
}
