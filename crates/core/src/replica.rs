//! Kernel-weight duplication (Sec. V, Table III and Eq. 14).
//!
//! CornerReshape matrices are never reused, so one copy suffices
//! (`replica_c = 1`). EdgeReshape and InsideReshape matrices are reused —
//! InsideReshape heavily — which serialises MMVs and leaves the I/O wires
//! attached to the corner/edge matrices idle. Duplication re-balances the
//! pipeline, bounded by the constraint that data transfer must not outrun
//! computation: `t_t_total ≤ t_c_total` defines `replica_e_max`, and
//! `replica_i_max = LL × replica_e_max`.

use crate::zfdr::plan::{ClassKind, KindSummaries, ZfdrPlan};
use lergan_reram::ReramConfig;

/// Programmer-facing duplication degree (the `replica_degree` structure
/// parameter of the Program stage).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplicaDegree {
    /// No duplication at all (the "ZFDR without duplication" point of
    /// Fig. 17/18; not a Table III level).
    NoDuplication,
    /// Minimal space: only InsideReshape is replicated.
    #[default]
    Low,
    /// Balanced: edge and inside replicated to `replica_e_max`.
    Middle,
    /// Maximal parallelism: inside replicated to `replica_i_max`.
    High,
}

impl ReplicaDegree {
    /// The Table III degrees in increasing parallelism order.
    pub const ALL: [ReplicaDegree; 3] = [
        ReplicaDegree::Low,
        ReplicaDegree::Middle,
        ReplicaDegree::High,
    ];

    /// Short label used in figure outputs.
    pub fn label(self) -> &'static str {
        match self {
            ReplicaDegree::NoDuplication => "no-dup",
            ReplicaDegree::Low => "low",
            ReplicaDegree::Middle => "middle",
            ReplicaDegree::High => "high",
        }
    }
}

/// Concrete per-kind replica counts for one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaPlan {
    /// Copies of each CornerReshape matrix (always 1 in the paper).
    pub corner: usize,
    /// Copies of each EdgeReshape matrix.
    pub edge: usize,
    /// Copies of each InsideReshape matrix.
    pub inside: usize,
}

impl ReplicaPlan {
    /// No duplication anywhere.
    pub fn unity() -> Self {
        ReplicaPlan {
            corner: 1,
            edge: 1,
            inside: 1,
        }
    }

    /// Replica count for a class kind.
    pub fn for_kind(&self, kind: ClassKind) -> usize {
        match kind {
            ClassKind::Corner => self.corner,
            ClassKind::Edge => self.edge,
            ClassKind::Inside => self.inside,
        }
    }

    /// Total CArray storage (values) of a layer's reshaped matrices under
    /// this plan, given the layer's [`ZfdrPlan::kind_summaries`].
    pub fn storage_values(&self, summaries: &KindSummaries, channel_pairs: u128) -> u128 {
        summaries
            .iter()
            .map(|(k, s)| s.pattern_volume * self.for_kind(k) as u128)
            .sum::<u128>()
            * channel_pairs
    }
}

/// Derives `replica_e_max` for a layer: the largest edge replica count
/// (with `replica_i = LL_proxy × replica_e`) keeping transfer time within
/// compute time, per Sec. V's ZFDM discussion.
///
/// `t_c_total = t_m × ⌈reuse_i / replica_i⌉` and
/// `t_t_total = (⌈layer_size / CArray_size⌉ − 1) × t_t`, with `t_t` one
/// neighbour-tile transfer. The interior-class count stands in for the
/// paper's loop length `LL` as the edge→inside multiplier (it is the
/// number of distinct inside matrices per axis, which is what the extra
/// replicas feed). `summaries` is `plan.kind_summaries(dims)` for the
/// layer's dimensionality.
pub fn replica_e_max(
    plan: &ZfdrPlan,
    summaries: &KindSummaries,
    channel_pairs: u128,
    config: &ReramConfig,
    tile_transfer_ns: f64,
) -> usize {
    let t_m = config.mmv_latency_ns();
    let inside = summaries.get(ClassKind::Inside);
    let edge = summaries.get(ClassKind::Edge);
    if inside.classes == 0 {
        return 1;
    }
    let multiplier = plan.interior_axis_classes().max(1);
    let carray_values = config.weights_per_tile() as u128;
    let mut best = 1usize;
    for r_e in 1..=64usize {
        let r_i = (r_e * multiplier) as u128;
        // No benefit replicating beyond the reuse itself.
        if r_i > inside.max_reuse.max(1) && r_e > edge.max_reuse.max(1) as usize {
            break;
        }
        let trial = ReplicaPlan {
            corner: 1,
            edge: r_e,
            inside: r_i as usize,
        };
        let size = trial.storage_values(summaries, channel_pairs);
        let tiles = size.div_ceil(carray_values);
        let t_t_total = tiles.saturating_sub(1) as f64 * tile_transfer_ns;
        let t_c_total = t_m * inside.max_reuse.div_ceil(r_i).max(1) as f64;
        if t_t_total <= t_c_total {
            best = r_e;
        } else {
            break;
        }
    }
    best
}

/// Builds the Table III replica plan for a degree. `summaries` is
/// `plan.kind_summaries(dims)` for the layer's dimensionality.
pub fn plan_for_degree(
    degree: ReplicaDegree,
    plan: &ZfdrPlan,
    summaries: &KindSummaries,
    channel_pairs: u128,
    config: &ReramConfig,
    tile_transfer_ns: f64,
) -> ReplicaPlan {
    let e_max = replica_e_max(plan, summaries, channel_pairs, config, tile_transfer_ns);
    let multiplier = plan.interior_axis_classes().max(1);
    let i_max = e_max * multiplier;
    match degree {
        ReplicaDegree::NoDuplication => ReplicaPlan::unity(),
        ReplicaDegree::Low => ReplicaPlan {
            corner: 1,
            edge: 1,
            inside: e_max,
        },
        ReplicaDegree::Middle => ReplicaPlan {
            corner: 1,
            edge: e_max,
            inside: e_max,
        },
        ReplicaDegree::High => ReplicaPlan {
            corner: 1,
            edge: e_max,
            inside: i_max,
        },
    }
}

/// Eq. 14: DataMapping replicas for *dense* workloads, sized against the
/// space the ZFDR'd phases occupy. `zfdr_values` is the duplicated ZFDR
/// storage of the corresponding reshaped phase, `dense_values` the plain
/// kernel storage.
pub fn dense_replicas(degree: ReplicaDegree, zfdr_values: u128, dense_values: u128) -> usize {
    if dense_values == 0 {
        return 1;
    }
    let ratio = (zfdr_values / dense_values) as usize;
    match degree {
        ReplicaDegree::NoDuplication | ReplicaDegree::Low => 1,
        ReplicaDegree::Middle => (ratio / 2).max(1),
        ReplicaDegree::High => ratio.max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lergan_tensor::TconvGeometry;

    fn conv1_plan() -> ZfdrPlan {
        ZfdrPlan::for_tconv(&TconvGeometry::for_upsampling(4, 5, 2).unwrap())
    }

    #[test]
    fn unity_plan_is_all_ones() {
        let p = ReplicaPlan::unity();
        for k in ClassKind::ALL {
            assert_eq!(p.for_kind(k), 1);
        }
    }

    #[test]
    fn storage_scales_with_replicas() {
        let summaries = conv1_plan().kind_summaries(2);
        let pairs = 1024 * 512;
        let base = ReplicaPlan::unity().storage_values(&summaries, pairs);
        assert_eq!(base, 100 * pairs); // Σ|p| squared = 100 per pair
        let doubled_inside = ReplicaPlan {
            corner: 1,
            edge: 1,
            inside: 2,
        }
        .storage_values(&summaries, pairs);
        assert!(doubled_inside > base);
        assert!(doubled_inside < 2 * base);
    }

    #[test]
    fn degrees_are_monotone_in_storage_and_cycles() {
        let plan = conv1_plan();
        let summaries = plan.kind_summaries(2);
        let cfg = ReramConfig::default();
        let pairs = 1024 * 512;
        let t_t = 15.0;
        let mut prev_storage = 0u128;
        let mut prev_cycles = u128::MAX;
        for degree in ReplicaDegree::ALL {
            let rp = plan_for_degree(degree, &plan, &summaries, pairs, &cfg, t_t);
            let storage = rp.storage_values(&summaries, pairs);
            let cycles = summaries.cycles(&rp);
            assert!(storage >= prev_storage, "{degree:?} storage regressed");
            assert!(cycles <= prev_cycles, "{degree:?} cycles regressed");
            prev_storage = storage;
            prev_cycles = cycles;
        }
    }

    #[test]
    fn replica_e_max_is_at_least_one() {
        let plan = conv1_plan();
        let cfg = ReramConfig::default();
        let e = replica_e_max(&plan, &plan.kind_summaries(2), 1024 * 512, &cfg, 15.0);
        assert!(e >= 1);
    }

    #[test]
    fn eq14_dense_replicas() {
        assert_eq!(dense_replicas(ReplicaDegree::Low, 1000, 100), 1);
        assert_eq!(dense_replicas(ReplicaDegree::Middle, 1000, 100), 5);
        assert_eq!(dense_replicas(ReplicaDegree::High, 1000, 100), 10);
        // Degenerate inputs stay sane.
        assert_eq!(dense_replicas(ReplicaDegree::High, 10, 100), 1);
        assert_eq!(dense_replicas(ReplicaDegree::High, 10, 0), 1);
    }

    #[test]
    fn degree_labels() {
        assert_eq!(ReplicaDegree::Low.label(), "low");
        assert_eq!(ReplicaDegree::High.label(), "high");
        assert_eq!(ReplicaDegree::default(), ReplicaDegree::Low);
    }
}
