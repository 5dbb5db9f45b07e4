//! Compiled-plan reuse across same-topology jobs.
//!
//! Compiling a GAN onto the accelerator ([`LerGan::builder`]) costs real
//! work — ZFDR pattern enumeration, replica selection, tile allocation,
//! and a discrete-event dry run for the iteration latency. A serving
//! fleet sees the same handful of Table V topologies over and over, so
//! the cache compiles each fault-free plan **once** and hands every
//! subsequent job of that topology the same [`Arc`]'d accelerator: one
//! [`CompiledGan`] (and with it one op graph) shared by all of them.
//! Sharing is safe precisely because the multi-tenant trainer state lives
//! *outside* the plan — each job carries its own [`lergan_gan::train::Gan`]
//! and checkpoints — which the interleaved checkpoint/restore tests in
//! `lergan-gan` guard.
//!
//! Hit/miss counters make the reuse observable in the serve report, and
//! each plan's one-iteration figures ([`IterationFigures`]: the iteration
//! latency and the `G→` phase latency) are memoised beside it, so
//! admission-time feasibility checks are O(1) and a self-healing job on a
//! faulted pair starts from them instead of rebuilding the fault-free
//! accelerator. A pair whose tiles died or whose links broke starts from
//! the figures of a build under its faults, memoised by topology and the
//! part of the faults a build reads ([`SystemFaults::build_key`]), so a
//! pair that remapped once builds once, not at every later job.

use lergan_core::{BuildError, CompiledGan, IterationFigures, LerGan, SystemFaults};
use lergan_gan::{benchmarks, GanSpec};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A cache of fault-free compiled plans, keyed by topology index.
pub struct PlanCache {
    specs: Vec<GanSpec>,
    built: BTreeMap<usize, Arc<LerGan>>,
    figures: BTreeMap<usize, IterationFigures>,
    /// Figures of faulted builds: topology, build key, figures.
    faulted: Vec<(usize, SystemFaults, IterationFigures)>,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    /// A cache over an explicit topology table.
    pub fn new(specs: Vec<GanSpec>) -> Self {
        PlanCache {
            specs,
            built: BTreeMap::new(),
            figures: BTreeMap::new(),
            faulted: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// A cache over the full Table V benchmark suite, in
    /// [`benchmarks::all`] order.
    pub fn table_v() -> Self {
        Self::new(benchmarks::all())
    }

    /// A cache over Table V *plus* the extended-grammar benchmarks
    /// ([`benchmarks::extended`]: dilated convs, skip edges, norm
    /// variants), appended after the eight Table V rows so existing
    /// topology indices stay valid and every new topology gets its own
    /// cache key.
    pub fn extended() -> Self {
        let mut specs = benchmarks::all();
        specs.extend(benchmarks::extended());
        Self::new(specs)
    }

    /// The topology table.
    pub fn specs(&self) -> &[GanSpec] {
        &self.specs
    }

    /// The spec at `topology`. Panics on an out-of-table index — job
    /// construction is the caller's code, not tenant input.
    pub fn spec(&self, topology: usize) -> &GanSpec {
        &self.specs[topology]
    }

    /// The shared fault-free plan of `topology`, compiling it on first
    /// use. Same-topology callers get clones of one [`Arc`]: the plan,
    /// its [`CompiledGan`] and the op graph inside are all shared.
    pub fn plan(&mut self, topology: usize) -> Result<Arc<LerGan>, BuildError> {
        if let Some(p) = self.built.get(&topology) {
            self.hits += 1;
            return Ok(Arc::clone(p));
        }
        self.misses += 1;
        let accel = Arc::new(LerGan::builder(&self.specs[topology]).build()?);
        self.figures.insert(topology, IterationFigures::of(&accel));
        self.built.insert(topology, Arc::clone(&accel));
        Ok(accel)
    }

    /// The compiled artifact all same-topology jobs share.
    pub fn compiled(&mut self, topology: usize) -> Result<Arc<LerGan>, BuildError> {
        self.plan(topology)
    }

    /// Fault-free per-iteration latency of `topology` (ns), memoised with
    /// the plan. A lookup of a resident plan counts as a hit.
    pub fn iteration_ns(&mut self, topology: usize) -> Result<f64, BuildError> {
        if self.figures.contains_key(&topology) {
            self.hits += 1;
        }
        Ok(self.figures(topology)?.iteration_ns)
    }

    /// The fault-free plan's one-iteration figures of `topology`, memoised
    /// with the plan. The hit and miss counters measure plan reuse by
    /// admission and dispatch, so a lookup of a resident plan counts
    /// nothing; a first lookup compiles the plan and counts its miss.
    pub fn figures(&mut self, topology: usize) -> Result<IterationFigures, BuildError> {
        if !self.figures.contains_key(&topology) {
            self.plan(topology)?;
        }
        Ok(self.figures[&topology])
    }

    /// The one-iteration figures of `topology` built under `faults`
    /// ([`IterationFigures::under`]): the fault-free plan's when the faults
    /// kill no tile and break no link, otherwise a faulted build's,
    /// memoised by topology and [`SystemFaults::build_key`]. A faulted
    /// build counts as neither a plan hit nor a plan miss.
    pub fn figures_under(
        &mut self,
        topology: usize,
        faults: &SystemFaults,
    ) -> Result<IterationFigures, BuildError> {
        let clean = self.figures(topology)?;
        if faults.builds_fault_free() {
            return Ok(clean);
        }
        let key = faults.build_key();
        let known = self
            .faulted
            .iter()
            .find(|(t, k, _)| *t == topology && *k == key);
        if let Some(&(_, _, figures)) = known {
            return Ok(figures);
        }
        let figures = IterationFigures::under(&self.specs[topology], &key, clean)?;
        self.faulted.push((topology, key, figures));
        Ok(figures)
    }

    /// The memoised faulted builds, in the order they were first built:
    /// topology, build key and figures.
    pub fn faulted_figures(
        &self,
    ) -> impl Iterator<Item = (usize, &SystemFaults, IterationFigures)> {
        self.faulted.iter().map(|(t, k, f)| (*t, k, *f))
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses (= compilations) so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Distinct plans resident.
    pub fn resident(&self) -> usize {
        self.built.len()
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("topologies", &self.specs.len())
            .field("resident", &self.built.len())
            .field("faulted", &self.faulted.len())
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish()
    }
}

/// The op graph a plan was lowered from (convenience for callers that
/// only need the shared graph, not the whole accelerator).
pub fn shared_graph(plan: &Arc<LerGan>) -> &CompiledGan {
    plan.compiled()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_topology_jobs_share_one_compiled_plan() {
        let mut cache = PlanCache::table_v();
        let a = cache.plan(0).unwrap();
        let b = cache.plan(0).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second job must reuse the first plan");
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        // The shared artifact really is one CompiledGan / one op graph.
        assert!(std::ptr::eq(shared_graph(&a), shared_graph(&b)));
    }

    #[test]
    fn distinct_topologies_compile_independently() {
        let mut cache = PlanCache::table_v();
        let dcgan = cache.plan(0).unwrap();
        let cgan = cache.plan(1).unwrap();
        assert!(!Arc::ptr_eq(&dcgan, &cgan));
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.resident(), 2);
    }

    #[test]
    fn extended_topologies_get_distinct_cache_keys() {
        let mut cache = PlanCache::extended();
        assert_eq!(cache.specs().len(), 10);
        assert_eq!(cache.spec(8).name, "ResDilatedGAN");
        assert_eq!(cache.spec(9).name, "AtrousPixelGAN");
        // Each extended topology compiles its own plan; re-requests hit.
        let res = cache.plan(8).unwrap();
        let atrous = cache.plan(9).unwrap();
        assert!(!Arc::ptr_eq(&res, &atrous));
        assert!(Arc::ptr_eq(&res, &cache.plan(8).unwrap()));
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.resident(), 2);
        // And their latencies are memoised independently.
        let a = cache.iteration_ns(8).unwrap();
        let b = cache.iteration_ns(9).unwrap();
        assert!(a > 0.0 && b > 0.0);
        assert_ne!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn figures_are_memoised_with_the_plan_and_count_no_hit() {
        let mut cache = PlanCache::table_v();
        let first = cache.figures(0).unwrap();
        assert_eq!(
            (cache.misses(), cache.hits()),
            (1, 0),
            "the first lookup compiles"
        );
        assert_eq!(cache.figures(0).unwrap(), first);
        assert_eq!(cache.hits(), 0, "a figures lookup is not a plan reuse");
        assert_eq!(first, IterationFigures::of(&cache.plan(0).unwrap()));
        assert_eq!(
            first.iteration_ns.to_bits(),
            cache.iteration_ns(0).unwrap().to_bits()
        );
    }

    #[test]
    fn faulted_figures_are_memoised_by_topology_and_build_key() {
        use lergan_gan::Phase;
        use lergan_reram::{FaultMap, StuckAt};
        let mut dead = SystemFaults::none();
        dead.bank_mut(Phase::GForward).kill_tile(1);
        // The same build key as `dead`: stuck cells do not enter a build.
        let mut stuck_too = dead.clone();
        *stuck_too.bank_mut(Phase::DForward) = FaultMap::seeded(3, 0.01, 10_000);
        stuck_too
            .bank_mut(Phase::GForward)
            .set_stuck(5, StuckAt::One);
        let mut wire = dead.clone();
        wire.links_mut().break_horizontal(0, 0, 11);
        let none = SystemFaults::none();
        let mut cache = PlanCache::table_v();
        for (topology, faults) in [
            (0, &dead),
            (1, &dead),
            (0, &stuck_too),
            (0, &wire),
            (1, &wire),
            (1, &stuck_too),
            (0, &none),
        ] {
            let spec = cache.spec(topology).clone();
            let built = LerGan::builder(&spec)
                .faults(faults.clone())
                .build()
                .unwrap();
            let figures = cache.figures_under(topology, faults).unwrap();
            assert_eq!(
                figures,
                IterationFigures::of(&built),
                "{topology} {faults:?}"
            );
        }
        let memoised: Vec<usize> = cache.faulted_figures().map(|(t, _, _)| t).collect();
        assert_eq!(memoised, [0, 1, 0, 1], "one build per topology and key");
        assert_eq!(
            (cache.misses(), cache.hits()),
            (2, 0),
            "no plan hit or miss"
        );
    }

    #[test]
    fn iteration_latency_is_memoised_with_the_plan() {
        let mut cache = PlanCache::table_v();
        let first = cache.iteration_ns(0).unwrap();
        let again = cache.iteration_ns(0).unwrap();
        assert!(first > 0.0);
        assert_eq!(first.to_bits(), again.to_bits());
        assert_eq!(cache.misses(), 1, "latency queries must not recompile");
    }
}
