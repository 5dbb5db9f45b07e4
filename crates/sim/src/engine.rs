//! Deterministic discrete-event DAG scheduler.
//!
//! Tasks declare a fixed duration, dependencies, and at most one resource
//! (with integer capacity). A task becomes *ready* when all dependencies
//! have finished; ready tasks acquire their resource in deterministic
//! (ready-time, insertion-order) order. This is classic list scheduling —
//! enough to model pipelined GAN-training phases contending for banks and
//! links.

use std::borrow::Cow;
use std::ops::Range;

/// Identifier of a task inside one [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(usize);

impl TaskId {
    /// Position of the task in its engine's insertion order.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Typed scheduler failure.
///
/// [`Engine::add_task`] only accepts dependencies on already-registered
/// tasks, so a cycle cannot be built through the public API; the variant
/// exists so the entry points stay total if that invariant is ever
/// relaxed (e.g. graphs deserialized or mutated in place).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// No task was ready although unscheduled tasks remain: every listed
    /// task is waiting on a dependency inside the same stuck set.
    DependencyCycle {
        /// Ids of the tasks that could never become ready.
        stuck: Vec<TaskId>,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::DependencyCycle { stuck } => {
                write!(f, "dependency cycle: {} task(s) stuck:", stuck.len())?;
                for t in stuck {
                    write!(f, " #{}", t.0)?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Identifier of a resource inside one [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceId(usize);

/// Task and resource labels: fixed labels are borrowed, rendered ones
/// owned.
pub type Label = Cow<'static, str>;

/// Dependencies kept inline before spilling to the heap; the lowering's
/// tasks wait on at most three.
const INLINE_DEPS: usize = 3;

/// Specification of one task.
#[derive(Debug, Clone)]
pub struct TaskSpec {
    /// Human-readable label (appears in schedules and debugging output).
    pub label: Label,
    /// Fixed execution time in nanoseconds.
    pub duration_ns: f64,
    /// Tasks that must finish before this one starts.
    deps: Deps,
    /// Resource this task occupies (one capacity unit) while running.
    pub resource: Option<ResourceId>,
}

/// A task's dependencies: the first [`INLINE_DEPS`] inline, the rest in
/// `spill`.
#[derive(Debug, Clone)]
struct Deps {
    head: [TaskId; INLINE_DEPS],
    len: usize,
    spill: Vec<TaskId>,
}

impl Deps {
    fn push(&mut self, t: TaskId) {
        if self.len < INLINE_DEPS {
            self.head[self.len] = t;
        } else {
            self.spill.push(t);
        }
        self.len += 1;
    }

    fn iter(&self) -> impl Iterator<Item = &TaskId> {
        self.head[..self.len.min(INLINE_DEPS)]
            .iter()
            .chain(&self.spill)
    }
}

impl TaskSpec {
    /// Creates a task with no dependencies and no resource.
    pub fn new(label: impl Into<Label>, duration_ns: f64) -> Self {
        TaskSpec {
            label: label.into(),
            duration_ns,
            deps: Deps {
                head: [TaskId(0); INLINE_DEPS],
                len: 0,
                spill: Vec::new(),
            },
            resource: None,
        }
    }

    /// Binds the task to a resource.
    pub fn on(mut self, r: ResourceId) -> Self {
        self.resource = Some(r);
        self
    }

    /// Adds a dependency.
    pub fn after(mut self, t: TaskId) -> Self {
        self.deps.push(t);
        self
    }

    /// Adds many dependencies.
    pub fn after_all(mut self, ts: &[TaskId]) -> Self {
        for &t in ts {
            self.deps.push(t);
        }
        self
    }
}

/// A registered task: its spec without the dependency list, which lives
/// in the engine's flat [`Engine::deps`] array at `deps`.
#[derive(Debug, Clone)]
struct Task {
    label: Label,
    duration_ns: f64,
    resource: Option<ResourceId>,
    deps: Range<u32>,
}

#[derive(Debug, Clone)]
struct Resource {
    label: Label,
    capacity: usize,
}

/// Heap key for the ready queue: `(ready time, insertion index)`, popped
/// smallest-first. `ready_ns` is finite (task durations are validated), so
/// `total_cmp` agrees with the `partial_cmp` the linear scan uses.
#[derive(Debug, PartialEq)]
struct ReadyKey {
    ready_ns: f64,
    index: usize,
}

impl Eq for ReadyKey {}

impl Ord for ReadyKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.ready_ns
            .total_cmp(&other.ready_ns)
            .then(self.index.cmp(&other.index))
    }
}

impl PartialOrd for ReadyKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The scheduler.
#[derive(Debug, Default)]
pub struct Engine {
    tasks: Vec<Task>,
    /// Every task's dependencies, task after task.
    deps: Vec<TaskId>,
    resources: Vec<Resource>,
}

/// The result of running an engine: per-task start/finish times and
/// per-resource occupancy. Task labels stay with the [`Engine`]
/// ([`Engine::label`]).
#[derive(Debug, Clone)]
pub struct Schedule {
    starts: Vec<f64>,
    finishes: Vec<f64>,
    resource_busy: Vec<f64>,
    resource_labels: Vec<Label>,
}

impl Schedule {
    /// Start time of a task (ns).
    pub fn start_ns(&self, t: TaskId) -> f64 {
        self.starts[t.0]
    }

    /// Finish time of a task (ns).
    pub fn finish_ns(&self, t: TaskId) -> f64 {
        self.finishes[t.0]
    }

    /// Completion time of the whole DAG (ns).
    pub fn makespan_ns(&self) -> f64 {
        self.finishes.iter().copied().fold(0.0, f64::max)
    }

    /// Number of scheduled tasks.
    pub fn len(&self) -> usize {
        self.finishes.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.finishes.is_empty()
    }

    /// Total busy time (occupancy-seconds) of a resource across the run.
    pub fn resource_busy_ns(&self, r: ResourceId) -> f64 {
        self.resource_busy[r.0]
    }

    /// Utilisation of a resource: busy time over the makespan (can exceed
    /// 1.0 for capacities above one).
    pub fn resource_utilization(&self, r: ResourceId) -> f64 {
        let span = self.makespan_ns();
        if span == 0.0 {
            0.0
        } else {
            self.resource_busy[r.0] / span
        }
    }

    /// Every resource's label as the engine stored it, in creation order
    /// (the order of [`resources`](Self::resources)).
    pub fn resource_labels(&self) -> &[Label] {
        &self.resource_labels
    }

    /// Iterates `(label, busy_ns)` over all resources, in creation order.
    pub fn resources(&self) -> impl Iterator<Item = (&str, f64)> {
        self.resource_labels
            .iter()
            .map(|l| l.as_ref())
            .zip(self.resource_busy.iter().copied())
    }
}

impl Engine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty engine with room for `tasks` tasks holding `deps`
    /// dependencies between them, so that adding that many grows nothing.
    pub fn with_capacity(tasks: usize, deps: usize) -> Self {
        Engine {
            tasks: Vec::with_capacity(tasks),
            deps: Vec::with_capacity(deps),
            resources: Vec::new(),
        }
    }

    /// Registers a resource with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn add_resource(&mut self, label: impl Into<Label>, capacity: usize) -> ResourceId {
        assert!(capacity > 0, "resource capacity must be positive");
        self.resources.push(Resource {
            label: label.into(),
            capacity,
        });
        ResourceId(self.resources.len() - 1)
    }

    /// Adds a task.
    ///
    /// # Panics
    ///
    /// Panics if a dependency or resource id does not exist, or the
    /// duration is negative/NaN.
    pub fn add_task(&mut self, spec: TaskSpec) -> TaskId {
        assert!(
            spec.duration_ns >= 0.0 && spec.duration_ns.is_finite(),
            "task duration must be finite and non-negative"
        );
        for d in spec.deps.iter() {
            assert!(d.0 < self.tasks.len(), "dependency on unknown task");
        }
        if let Some(r) = spec.resource {
            assert!(r.0 < self.resources.len(), "unknown resource");
        }
        let first = self.deps.len() as u32;
        self.deps.extend(spec.deps.iter());
        self.tasks.push(Task {
            label: spec.label,
            duration_ns: spec.duration_ns,
            resource: spec.resource,
            deps: first..self.deps.len() as u32,
        });
        TaskId(self.tasks.len() - 1)
    }

    /// Every task's id, in insertion order.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> {
        (0..self.tasks.len()).map(TaskId)
    }

    /// Label of a task.
    pub fn label(&self, t: TaskId) -> &str {
        &self.tasks[t.0].label
    }

    fn deps_of(&self, i: usize) -> &[TaskId] {
        let r = &self.tasks[i].deps;
        &self.deps[r.start as usize..r.end as usize]
    }

    /// Runs the schedule to completion.
    ///
    /// The ready queue is a binary heap keyed `(ready time, insertion
    /// index)`. A task's ready time is *final* by the time it enters the
    /// queue — tasks are pushed only when their last dependency resolves,
    /// and `ready_at` is never written afterwards — so the key frozen at
    /// push time equals the value a linear min-scan would read at pop time
    /// and the heap schedule is identical to the linear-scan scheduler
    /// the unit tests keep as an oracle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DependencyCycle`] if the dependency graph
    /// contains a cycle, listing the task ids that never became ready.
    pub fn run(&self) -> Result<Schedule, SimError> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let n = self.tasks.len();
        let mut remaining_deps: Vec<u32> = self.tasks.iter().map(|t| t.deps.len() as u32).collect();
        let (dep_start, dependents) = self.dependents();
        let mut ready_at: Vec<f64> = vec![0.0; n];
        let mut starts = vec![f64::NAN; n];
        let mut finishes = vec![f64::NAN; n];
        let mut busy = self.occupancy();
        // Ready queue popped in (ready time, insertion index) order.
        let mut ready: BinaryHeap<Reverse<ReadyKey>> = BinaryHeap::with_capacity(n);
        ready.extend((0..n).filter(|&i| remaining_deps[i] == 0).map(|i| {
            Reverse(ReadyKey {
                ready_ns: 0.0,
                index: i,
            })
        }));
        let mut scheduled = 0usize;
        while scheduled < n {
            let Some(Reverse(key)) = ready.pop() else {
                return Err(self.cycle_error(&starts));
            };
            let i = key.index;
            let (start, finish) = self.place(i, ready_at[i], &mut busy);
            starts[i] = start;
            finishes[i] = finish;
            scheduled += 1;
            for &dep in &dependents[dep_start[i] as usize..dep_start[i + 1] as usize] {
                let dep = dep as usize;
                remaining_deps[dep] -= 1;
                ready_at[dep] = ready_at[dep].max(finish);
                if remaining_deps[dep] == 0 {
                    ready.push(Reverse(ReadyKey {
                        ready_ns: ready_at[dep],
                        index: dep,
                    }));
                }
            }
        }
        Ok(self.collect(starts, finishes, &busy))
    }

    /// Tasks never scheduled (start still NaN) are exactly the stuck set.
    fn cycle_error(&self, starts: &[f64]) -> SimError {
        let stuck = (0..self.tasks.len())
            .filter(|&i| starts[i].is_nan())
            .map(TaskId)
            .collect();
        SimError::DependencyCycle { stuck }
    }

    /// Reverse dependencies, indexed by producer, in compressed sparse-row
    /// form: producer `p`'s dependents are
    /// `dependents[start[p]..start[p + 1]]`, in ascending task order.
    fn dependents(&self) -> (Vec<u32>, Vec<u32>) {
        let n = self.tasks.len();
        let mut start = vec![0u32; n + 1];
        for d in &self.deps {
            start[d.0 + 1] += 1;
        }
        for p in 0..n {
            start[p + 1] += start[p];
        }
        let mut dependents = vec![0u32; self.deps.len()];
        // `start[p]` serves as producer p's fill cursor, which leaves it
        // at the old `start[p + 1]`; shifting back one slot restores it.
        for i in 0..n {
            for d in self.deps_of(i) {
                dependents[start[d.0] as usize] = i as u32;
                start[d.0] += 1;
            }
        }
        start.copy_within(0..n, 1);
        start[0] = 0;
        (start, dependents)
    }

    /// Empty per-resource occupancy lists, each sized for every task bound
    /// to its resource.
    fn occupancy(&self) -> Vec<Vec<(f64, f64)>> {
        let mut per_resource = vec![0usize; self.resources.len()];
        for t in &self.tasks {
            if let Some(r) = t.resource {
                per_resource[r.0] += 1;
            }
        }
        per_resource.into_iter().map(Vec::with_capacity).collect()
    }

    /// Places task `i` at the earliest time `>= ready_ns` its resource
    /// admits, records the occupancy, and returns `(start, finish)`.
    fn place(&self, i: usize, ready_ns: f64, busy: &mut [Vec<(f64, f64)>]) -> (f64, f64) {
        let task = &self.tasks[i];
        let mut start = ready_ns;
        if let Some(r) = task.resource {
            let q = &mut busy[r.0];
            start = earliest_start(q, self.resources[r.0].capacity, start);
            q.push((start, start + task.duration_ns));
        }
        (start, start + task.duration_ns)
    }

    fn collect(&self, starts: Vec<f64>, finishes: Vec<f64>, busy: &[Vec<(f64, f64)>]) -> Schedule {
        let resource_busy: Vec<f64> = busy
            .iter()
            .map(|intervals| intervals.iter().map(|(s, f)| f - s).sum())
            .collect();
        Schedule {
            starts,
            finishes,
            resource_busy,
            resource_labels: self.resources.iter().map(|r| r.label.clone()).collect(),
        }
    }
}

/// Earliest time `>= start` at which fewer than `cap` of the occupancy
/// intervals `q` overlap: while the slot is full, advance to the earliest
/// finish among the overlapping intervals. Counts the overlaps and folds
/// their minimum finish in one pass, in `q`'s order.
fn earliest_start(q: &[(f64, f64)], cap: usize, mut start: f64) -> f64 {
    loop {
        let mut overlapping = 0usize;
        let mut earliest = f64::INFINITY;
        for &(s, f) in q {
            if s <= start && start < f {
                overlapping += 1;
                earliest = f64::min(earliest, f);
            }
        }
        if overlapping < cap {
            return start;
        }
        start = earliest;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The original O(n²) scheduler — a linear min-scan over a `Vec`
    /// ready queue, reverse dependencies as one `Vec` per producer and
    /// [`place_reference`] — the oracle of the heap scheduler.
    fn run_linear_reference(e: &Engine) -> Result<Schedule, SimError> {
        let n = e.tasks.len();
        let mut remaining_deps: Vec<usize> = e.tasks.iter().map(|t| t.deps.len()).collect();
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in 0..n {
            for d in e.deps_of(i) {
                dependents[d.0].push(i);
            }
        }
        let mut ready_at: Vec<f64> = vec![0.0; n];
        let mut starts = vec![f64::NAN; n];
        let mut finishes = vec![f64::NAN; n];
        let mut busy: Vec<Vec<(f64, f64)>> = e.resources.iter().map(|_| Vec::new()).collect();
        // Ready queue ordered by (ready time, index).
        let mut ready: Vec<usize> = (0..n).filter(|&i| remaining_deps[i] == 0).collect();
        let mut scheduled = 0usize;
        while scheduled < n {
            if ready.is_empty() {
                return Err(e.cycle_error(&starts));
            }
            // Deterministic pick: smallest (ready time, index).
            let pos = ready
                .iter()
                .enumerate()
                .min_by(|(_, &a), (_, &b)| {
                    ready_at[a]
                        .partial_cmp(&ready_at[b])
                        .unwrap()
                        .then(a.cmp(&b))
                })
                .map(|(p, _)| p)
                .expect("non-empty ready queue");
            let i = ready.swap_remove(pos);
            let task = &e.tasks[i];
            let mut start = ready_at[i];
            if let Some(r) = task.resource {
                let q = &mut busy[r.0];
                start = place_reference(q, e.resources[r.0].capacity, start);
                q.push((start, start + task.duration_ns));
            }
            let finish = start + task.duration_ns;
            starts[i] = start;
            finishes[i] = finish;
            scheduled += 1;
            for &dep in &dependents[i] {
                remaining_deps[dep] -= 1;
                ready_at[dep] = ready_at[dep].max(finish);
                if remaining_deps[dep] == 0 {
                    ready.push(dep);
                }
            }
        }
        Ok(e.collect(starts, finishes, &busy))
    }

    /// The original placement probe: collect the finishes of every
    /// overlapping interval into a `Vec`, then fold their minimum.
    fn place_reference(q: &[(f64, f64)], cap: usize, mut start: f64) -> f64 {
        loop {
            let overlapping: Vec<f64> = q
                .iter()
                .filter(|&&(s, f)| s <= start && start < f)
                .map(|&(_, f)| f)
                .collect();
            if overlapping.len() < cap {
                return start;
            }
            start = overlapping.iter().copied().fold(f64::INFINITY, f64::min);
        }
    }

    /// An occupancy list and a probe time: intervals `(s, s + d)` with
    /// durations that are often zero or shared, so overlaps, touching ends
    /// and equal finishes all occur.
    fn occupancy_case() -> impl Strategy<Value = (Vec<(f64, f64)>, f64)> {
        let interval = (0u32..40, 0u32..4, 0.0f64..1.0).prop_map(|(s, d, jitter)| {
            let s = f64::from(s) + if d == 3 { jitter } else { 0.0 };
            (s, s + f64::from(d) * 2.5)
        });
        (vec(interval, 0..24), 0u32..45).prop_map(|(q, t)| (q, f64::from(t)))
    }

    /// Per-task generator: (duration seed, dependency seed, resource seed).
    /// Durations are deliberately non-round so float ties are rare and the
    /// (ready time, index) tiebreak still gets exercised via the
    /// zero-duration and equal-seed cases.
    fn task_seeds() -> impl Strategy<Value = Vec<(f64, u64, u64)>> {
        vec((0.0f64..50.0, 0u64..u64::MAX, 0u64..u64::MAX), 1..40usize)
    }

    /// Builds a deterministic engine from the seeds: three resources with
    /// capacities 1, 2 and 3, up to three backward dependencies per task.
    fn build_engine(seeds: &[(f64, u64, u64)]) -> (Engine, Vec<TaskId>) {
        let mut e = Engine::new();
        let resources = [
            e.add_resource("bank", 1),
            e.add_resource("link", 2),
            e.add_resource("bus", 3),
        ];
        let mut ids: Vec<TaskId> = Vec::with_capacity(seeds.len());
        for (i, &(duration, dep_seed, res_seed)) in seeds.iter().enumerate() {
            // Roughly a quarter of tasks are zero-duration barriers, which
            // forces ready-time ties and exercises the index tiebreak.
            let duration = if dep_seed % 4 == 0 { 0.0 } else { duration };
            let mut spec = TaskSpec::new(format!("t{i}"), duration);
            if i > 0 {
                let n_deps = (dep_seed % 4) as usize; // 0..=3
                for d in 0..n_deps {
                    let dep = (dep_seed.rotate_right(7 * (d as u32 + 1)) as usize) % i;
                    spec = spec.after(ids[dep]);
                }
            }
            match res_seed % 4 {
                0 => {} // no resource
                k => spec = spec.on(resources[(k - 1) as usize]),
            }
            ids.push(e.add_task(spec));
        }
        (e, ids)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The one-pass probe lands where the collect-then-fold probe
        /// does, bit for bit, at capacities 1–3 (the lowering's
        /// bus/bypass resource has capacity 2).
        #[test]
        fn earliest_start_matches_the_collecting_probe(
            (q, start) in occupancy_case(),
            cap in 1usize..4,
        ) {
            prop_assert_eq!(
                earliest_start(&q, cap, start).to_bits(),
                place_reference(&q, cap, start).to_bits()
            );
        }

        /// The heap-based ready queue in `run` produces exactly the
        /// schedule of the original linear min-scan. The equivalence
        /// holds because a task's ready time is final when it enters the
        /// queue, so freezing the heap key at push time loses nothing.
        /// Random DAGs — skewed durations, shared capacity-limited
        /// resources, fan-in/fan-out dependencies — must agree *bitwise*
        /// on every start, finish, and per-resource busy total.
        #[test]
        fn heap_schedule_equals_linear_scan(seeds in task_seeds()) {
            let (engine, ids) = build_engine(&seeds);
            let heap = engine.run().unwrap();
            let linear = run_linear_reference(&engine).unwrap();

            prop_assert_eq!(heap.len(), linear.len());
            for &t in &ids {
                prop_assert_eq!(
                    heap.start_ns(t).to_bits(),
                    linear.start_ns(t).to_bits(),
                    "start of {} diverged: heap {} vs linear {}",
                    engine.label(t),
                    heap.start_ns(t),
                    linear.start_ns(t)
                );
                prop_assert_eq!(
                    heap.finish_ns(t).to_bits(),
                    linear.finish_ns(t).to_bits(),
                    "finish of {} diverged: heap {} vs linear {}",
                    engine.label(t),
                    heap.finish_ns(t),
                    linear.finish_ns(t)
                );
            }
            prop_assert_eq!(heap.makespan_ns().to_bits(), linear.makespan_ns().to_bits());
            let heap_busy: Vec<u64> = heap.resources().map(|(_, b)| b.to_bits()).collect();
            let linear_busy: Vec<u64> = linear.resources().map(|(_, b)| b.to_bits()).collect();
            prop_assert_eq!(heap_busy, linear_busy);
        }
    }

    #[test]
    fn chain_accumulates() {
        let mut e = Engine::new();
        let a = e.add_task(TaskSpec::new("a", 10.0));
        let b = e.add_task(TaskSpec::new("b", 5.0).after(a));
        let c = e.add_task(TaskSpec::new("c", 1.0).after(b));
        let s = e.run().unwrap();
        assert_eq!(s.finish_ns(a), 10.0);
        assert_eq!(s.finish_ns(b), 15.0);
        assert_eq!(s.finish_ns(c), 16.0);
        assert_eq!(s.makespan_ns(), 16.0);
        assert_eq!(e.task_ids().collect::<Vec<_>>(), [a, b, c]);
    }

    #[test]
    fn independent_tasks_overlap() {
        let mut e = Engine::new();
        let a = e.add_task(TaskSpec::new("a", 10.0));
        let b = e.add_task(TaskSpec::new("b", 7.0));
        let s = e.run().unwrap();
        assert_eq!(s.start_ns(a), 0.0);
        assert_eq!(s.start_ns(b), 0.0);
        assert_eq!(s.makespan_ns(), 10.0);
    }

    #[test]
    fn resource_capacity_serialises() {
        let mut e = Engine::new();
        let r = e.add_resource("bank", 1);
        let a = e.add_task(TaskSpec::new("a", 10.0).on(r));
        let b = e.add_task(TaskSpec::new("b", 10.0).on(r));
        let s = e.run().unwrap();
        assert_eq!(s.finish_ns(a).min(s.finish_ns(b)), 10.0);
        assert_eq!(s.makespan_ns(), 20.0);
    }

    #[test]
    fn capacity_two_runs_pairs() {
        let mut e = Engine::new();
        let r = e.add_resource("link", 2);
        let ids: Vec<TaskId> = (0..4)
            .map(|i| e.add_task(TaskSpec::new(format!("t{i}"), 10.0).on(r)))
            .collect();
        let s = e.run().unwrap();
        assert_eq!(s.makespan_ns(), 20.0);
        let early = ids.iter().filter(|&&t| s.start_ns(t) == 0.0).count();
        assert_eq!(early, 2);
    }

    #[test]
    fn diamond_dependencies() {
        let mut e = Engine::new();
        let a = e.add_task(TaskSpec::new("a", 5.0));
        let b = e.add_task(TaskSpec::new("b", 10.0).after(a));
        let c = e.add_task(TaskSpec::new("c", 3.0).after(a));
        let d = e.add_task(TaskSpec::new("d", 1.0).after_all(&[b, c]));
        let s = e.run().unwrap();
        assert_eq!(s.start_ns(d), 15.0);
        assert_eq!(s.makespan_ns(), 16.0);
    }

    #[test]
    fn zero_duration_tasks_are_fine() {
        let mut e = Engine::new();
        let a = e.add_task(TaskSpec::new("barrier", 0.0));
        let b = e.add_task(TaskSpec::new("b", 2.0).after(a));
        let s = e.run().unwrap();
        assert_eq!(s.finish_ns(b), 2.0);
    }

    #[test]
    #[should_panic(expected = "dependency on unknown task")]
    fn unknown_dependency_rejected() {
        let mut e = Engine::new();
        let _ = e.add_task(TaskSpec::new("x", 1.0).after(TaskId(7)));
    }

    #[test]
    fn resource_utilization_is_tracked() {
        let mut e = Engine::new();
        let r = e.add_resource("bank", 1);
        let idle = e.add_resource("idle", 1);
        let a = e.add_task(TaskSpec::new("a", 10.0).on(r));
        let _b = e.add_task(TaskSpec::new("b", 10.0).on(r).after(a));
        let _c = e.add_task(TaskSpec::new("c", 5.0));
        let s = e.run().unwrap();
        assert_eq!(s.resource_busy_ns(r), 20.0);
        assert_eq!(s.resource_busy_ns(idle), 0.0);
        assert!((s.resource_utilization(r) - 1.0).abs() < 1e-12);
        let names: Vec<&str> = s.resources().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["bank", "idle"]);
        // The stored labels come back borrowed, as they went in.
        assert!(s
            .resource_labels()
            .iter()
            .all(|l| matches!(l, Label::Borrowed(_))));
    }

    #[test]
    fn dependency_cycle_is_a_typed_error_listing_stuck_tasks() {
        // A cycle cannot be built through `add_task` (deps must already
        // exist), so assemble the engine directly: a -> b -> a, plus one
        // healthy task that schedules fine.
        let mut e = Engine::new();
        for (label, duration_ns, dep) in
            [("a", 1.0, Some(1)), ("b", 1.0, Some(0)), ("ok", 2.0, None)]
        {
            let first = e.deps.len() as u32;
            e.deps.extend(dep.map(TaskId));
            e.tasks.push(Task {
                label: label.into(),
                duration_ns,
                resource: None,
                deps: first..e.deps.len() as u32,
            });
        }
        let err = e.run().unwrap_err();
        let SimError::DependencyCycle { stuck } = &err;
        assert_eq!(stuck, &vec![TaskId(0), TaskId(1)]);
        assert_eq!(err.to_string(), "dependency cycle: 2 task(s) stuck: #0 #1");
        // The linear oracle reports the identical stuck set.
        assert_eq!(run_linear_reference(&e).unwrap_err(), err);
        assert_eq!(stuck[0].index(), 0);
    }

    #[test]
    fn labels_survive() {
        let mut e = Engine::new();
        let a = e.add_task(TaskSpec::new("G-forward", 1.0));
        let s = e.run().unwrap();
        assert_eq!(e.label(a), "G-forward");
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }
}
