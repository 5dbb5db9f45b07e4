//! Persistent worker-pool substrate for the compute kernels.
//!
//! All data-parallel kernels in the workspace (GEMM row blocks, per-channel
//! convolution loops, per-pattern-class ZFDR batches, per-sample batched
//! training stages) funnel through the helpers here, so one knob controls
//! the whole workspace:
//!
//! * `LERGAN_THREADS` — environment override for the worker count
//!   (default: [`std::thread::available_parallelism`]);
//! * [`with_threads`] — a thread-local override for tests and benches that
//!   must compare thread counts without racing on the environment.
//!
//! Workers live in a lazily grown, process-wide pool and park on a condvar
//! between regions. Keeping the threads alive does two things the previous
//! scoped-thread substrate could not: dispatching a region performs **zero
//! heap allocations** once the pool has grown to the requested width (the
//! job is a plain pointer pair written into a pre-existing slot), and each
//! worker's thread-local state — its
//! [`Workspace`](crate::workspace::Workspace) pool — survives across
//! regions instead of being torn down with the thread.
//!
//! Every helper partitions its output disjointly, and each parallel element
//! is computed exactly as the serial code would compute it (same
//! per-element accumulation order), so results are **bit-identical for
//! every thread count** — determinism tests assert this.
//!
//! Nested parallel regions run serially: a worker that calls back into
//! these helpers executes inline rather than re-entering the pool, which
//! bounds the total thread count at the configured width and makes the
//! dispatch free of self-deadlock by construction.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

thread_local! {
    /// Per-thread override installed by [`with_threads`].
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set inside worker closures so nested regions run inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn configured_threads() -> usize {
    static CONFIGURED: OnceLock<usize> = OnceLock::new();
    *CONFIGURED.get_or_init(|| {
        std::env::var("LERGAN_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// Worker count the next parallel region will use: the [`with_threads`]
/// override if present, else `LERGAN_THREADS`, else the machine's available
/// parallelism. Returns 1 inside a worker (nested regions are serial).
pub fn current_threads() -> usize {
    if IN_WORKER.with(Cell::get) {
        return 1;
    }
    OVERRIDE.with(Cell::get).unwrap_or_else(configured_threads)
}

/// Runs `f` with the worker count pinned to `n` on this thread.
///
/// This is how equivalence and determinism tests compare thread counts:
/// unlike mutating `LERGAN_THREADS`, concurrent test threads cannot race on
/// it. Zero is clamped to one.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let prev = OVERRIDE.with(|c| c.replace(Some(n.max(1))));
    let result = f();
    OVERRIDE.with(|c| c.set(prev));
    result
}

/// Runs `f` marked as inside a worker, so nested regions stay serial.
fn run_as_worker<R>(f: impl FnOnce() -> R) -> R {
    let prev = IN_WORKER.with(|c| c.replace(true));
    let result = f();
    IN_WORKER.with(|c| c.set(prev));
    result
}

/// A dispatched unit of work: a type-erased pointer to the region's `Fn`
/// plus a monomorphized trampoline that calls it with this worker's index.
/// Raw pointers stay valid because the dispatching frame blocks on
/// [`DoneState`] until every job has finished.
struct Job {
    func: *const (),
    call: unsafe fn(*const (), usize),
    index: usize,
    done: *const DoneState,
}

// SAFETY: `func` points at a `Sync` closure (enforced by `pool_run`'s
// bound) and `done` at completion state designed for cross-thread use; the
// dispatcher keeps both alive until the job completes.
unsafe impl Send for Job {}

/// One parked worker's mailbox.
struct WorkerSlot {
    job: Mutex<Option<Job>>,
    ready: Condvar,
}

/// Stack-allocated completion latch for one parallel region.
struct DoneState {
    remaining: Mutex<usize>,
    all_done: Condvar,
    panicked: AtomicBool,
}

fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn worker_loop(slot: Arc<WorkerSlot>) {
    loop {
        let job = {
            let mut guard = lock_ignore_poison(&slot.job);
            loop {
                if let Some(job) = guard.take() {
                    break job;
                }
                guard = slot.ready.wait(guard).unwrap_or_else(|e| e.into_inner());
            }
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // SAFETY: the dispatcher guarantees `func` outlives this call.
            run_as_worker(|| unsafe { (job.call)(job.func, job.index) });
        }));
        // SAFETY: `done` is kept alive by the dispatcher's wait guard.
        let done = unsafe { &*job.done };
        if outcome.is_err() {
            done.panicked.store(true, Ordering::SeqCst);
        }
        let mut remaining = lock_ignore_poison(&done.remaining);
        *remaining -= 1;
        if *remaining == 0 {
            done.all_done.notify_all();
        }
    }
}

/// The process-wide pool: one parked worker per entry, grown on demand and
/// never shrunk. The mutex is held for the duration of a region, which
/// serializes concurrent top-level regions from different threads — the
/// kernels are CPU-bound, so overlapping them would only thrash.
fn pool() -> &'static Mutex<Vec<Arc<WorkerSlot>>> {
    static POOL: Mutex<Vec<Arc<WorkerSlot>>> = Mutex::new(Vec::new());
    &POOL
}

/// Runs `f(0)..f(threads-1)` across the pool: indices `1..` are dispatched
/// to parked workers, the calling thread runs `f(0)` itself, and the call
/// returns only after every index has finished. Dispatch allocates nothing
/// once the pool has grown to `threads - 1` workers.
fn pool_run<F: Fn(usize) + Sync>(threads: usize, f: &F) {
    unsafe fn call_thunk<F: Fn(usize)>(ptr: *const (), index: usize) {
        // SAFETY: `ptr` was erased from an `&F` by `pool_run` below and the
        // referent is kept alive until the region completes.
        let f = unsafe { &*(ptr as *const F) };
        f(index);
    }
    debug_assert!(threads >= 2, "serial regions never enter the pool");
    let done = DoneState {
        remaining: Mutex::new(threads - 1),
        all_done: Condvar::new(),
        panicked: AtomicBool::new(false),
    };
    let mut workers = lock_ignore_poison(pool());
    while workers.len() < threads - 1 {
        let slot = Arc::new(WorkerSlot {
            job: Mutex::new(None),
            ready: Condvar::new(),
        });
        let looped = Arc::clone(&slot);
        std::thread::Builder::new()
            .name(format!("lergan-worker-{}", workers.len() + 1))
            .spawn(move || worker_loop(looped))
            .expect("spawn pool worker");
        workers.push(slot);
    }
    /// Blocks until the region's jobs have all finished. Running this in
    /// `Drop` keeps the stack frame (and the pointers the jobs hold) alive
    /// even if the caller's own `f(0)` panics mid-region.
    struct WaitGuard<'a>(&'a DoneState);
    impl Drop for WaitGuard<'_> {
        fn drop(&mut self) {
            let mut remaining = lock_ignore_poison(&self.0.remaining);
            while *remaining != 0 {
                remaining = self
                    .0
                    .all_done
                    .wait(remaining)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }
    }
    {
        let _wait = WaitGuard(&done);
        for index in 1..threads {
            let slot = &workers[index - 1];
            let job = Job {
                func: f as *const F as *const (),
                call: call_thunk::<F>,
                index,
                done: &done,
            };
            *lock_ignore_poison(&slot.job) = Some(job);
            slot.ready.notify_one();
        }
        run_as_worker(|| f(0));
    }
    drop(workers);
    if done.panicked.load(Ordering::SeqCst) {
        panic!("a parallel worker panicked");
    }
}

/// Fewest items per worker for a pass whose items cost `work` multiply-adds
/// each: the work floor the kernels use, below which waking a worker costs
/// more than the arithmetic it takes over. Pass it as `min_chunk`.
pub fn min_items(work: usize) -> usize {
    (crate::tensor::MIN_PARALLEL_FLOPS / work.max(1)).max(1)
}

/// Splits `0..len` into at most [`current_threads`] contiguous ranges of at
/// least `min_chunk` items and runs `f` on each, in parallel.
///
/// `f` must only touch state disjoint per range (the callers here write
/// through raw disjoint output partitions or locals). The calling thread
/// executes the first range itself.
pub fn for_each_range(len: usize, min_chunk: usize, f: impl Fn(Range<usize>) + Sync) {
    if len == 0 {
        return;
    }
    let max_workers = len.div_ceil(min_chunk.max(1));
    let threads = current_threads().min(max_workers).max(1);
    if threads == 1 {
        f(0..len);
        return;
    }
    let chunk = len.div_ceil(threads);
    let g = move |t: usize| {
        let (start, end) = (t * chunk, ((t + 1) * chunk).min(len));
        if start < end {
            f(start..end);
        }
    };
    pool_run(threads, &g);
}

/// Splits `data` into at most [`current_threads`] contiguous chunks of at
/// least `min_chunk` elements and runs `f(offset, chunk)` on each, in
/// parallel. `offset` is the chunk's start index within `data`.
pub fn for_each_chunk_mut<T: Send>(
    data: &mut [T],
    min_chunk: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    let len = data.len();
    if len == 0 {
        return;
    }
    let max_workers = len.div_ceil(min_chunk.max(1));
    let threads = current_threads().min(max_workers).max(1);
    if threads == 1 {
        f(0, data);
        return;
    }
    let chunk = len.div_ceil(threads);
    let base = data.as_mut_ptr() as usize;
    let g = move |t: usize| {
        let start = t * chunk;
        if start >= len {
            return;
        }
        let take = chunk.min(len - start);
        // SAFETY: chunks `[start, start + take)` are disjoint across worker
        // indices and within the live `&mut [T]` borrow held by this frame.
        let part = unsafe { std::slice::from_raw_parts_mut((base as *mut T).add(start), take) };
        f(start, part);
    };
    pool_run(threads, &g);
}

/// Like [`for_each_chunk_mut`], but chunk boundaries land on multiples of
/// `unit` elements — the shape needed to hand each worker whole rows of a
/// row-major matrix without collecting per-row slices. `f(first_unit,
/// chunk)` receives the index of the chunk's first unit. With one worker
/// the full slice is passed straight through, so the serial path performs
/// no allocation at all.
///
/// # Panics
///
/// Panics (debug) if `data.len()` is not a multiple of `unit`.
pub fn for_each_unit_chunk_mut<T: Send>(
    data: &mut [T],
    unit: usize,
    min_units: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    let unit = unit.max(1);
    debug_assert_eq!(data.len() % unit, 0, "length must be a unit multiple");
    let units = data.len() / unit;
    if units == 0 {
        return;
    }
    let max_workers = units.div_ceil(min_units.max(1));
    let threads = current_threads().min(max_workers).max(1);
    if threads == 1 {
        f(0, data);
        return;
    }
    let chunk_units = units.div_ceil(threads);
    let len = data.len();
    let base = data.as_mut_ptr() as usize;
    let g = move |t: usize| {
        let start = t * chunk_units * unit;
        if start >= len {
            return;
        }
        let take = (chunk_units * unit).min(len - start);
        // SAFETY: unit-aligned chunks are disjoint across worker indices
        // and within the live `&mut [T]` borrow held by this frame.
        let part = unsafe { std::slice::from_raw_parts_mut((base as *mut T).add(start), take) };
        f(start / unit, part);
    };
    pool_run(threads, &g);
}

/// Computes `f(i)` for `i in 0..n` in parallel, preserving order.
pub fn map_indexed<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for_each_chunk_mut(&mut slots, 1, |offset, chunk| {
        for (i, slot) in chunk.iter_mut().enumerate() {
            *slot = Some(f(offset + i));
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn with_threads_overrides_and_restores() {
        let outside = current_threads();
        with_threads(3, || {
            assert_eq!(current_threads(), 3);
            with_threads(1, || assert_eq!(current_threads(), 1));
            assert_eq!(current_threads(), 3);
        });
        assert_eq!(current_threads(), outside);
    }

    #[test]
    fn for_each_range_covers_everything_once() {
        for threads in [1, 2, 5, 8] {
            let hits: Vec<AtomicUsize> = (0..103).map(|_| AtomicUsize::new(0)).collect();
            with_threads(threads, || {
                for_each_range(hits.len(), 1, |r| {
                    for i in r {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn for_each_chunk_mut_offsets_are_consistent() {
        for threads in [1, 2, 8] {
            let mut data = vec![0usize; 57];
            with_threads(threads, || {
                for_each_chunk_mut(&mut data, 1, |offset, chunk| {
                    for (i, x) in chunk.iter_mut().enumerate() {
                        *x = offset + i;
                    }
                });
            });
            assert_eq!(data, (0..57).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn unit_chunks_align_to_rows() {
        // 13 rows of width 5: every chunk boundary must land on a row
        // boundary, and offsets must be reported in rows.
        for threads in [1, 2, 8] {
            let mut data = vec![0usize; 13 * 5];
            with_threads(threads, || {
                for_each_unit_chunk_mut(&mut data, 5, 1, |row0, chunk| {
                    assert_eq!(chunk.len() % 5, 0);
                    for (i, x) in chunk.iter_mut().enumerate() {
                        *x = row0 * 5 + i;
                    }
                });
            });
            assert_eq!(data, (0..65).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn map_indexed_preserves_order() {
        for threads in [1, 2, 8] {
            let out = with_threads(threads, || map_indexed(41, |i| i * i));
            assert_eq!(out, (0..41).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn nested_regions_run_serially() {
        with_threads(4, || {
            for_each_range(4, 1, |_r| {
                // Inside a worker the nested region must report width 1.
                assert_eq!(current_threads(), 1);
            });
        });
    }

    #[test]
    fn min_chunk_limits_worker_count() {
        // 10 items with min_chunk 8 admits at most 2 workers; the chunks
        // must still cover everything exactly once.
        let mut data = vec![0u8; 10];
        with_threads(8, || {
            for_each_chunk_mut(&mut data, 8, |_, chunk| {
                for x in chunk {
                    *x += 1;
                }
            });
        });
        assert!(data.iter().all(|&x| x == 1));
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        // A panic on a pooled worker must surface on the dispatching thread
        // — and the worker itself must stay parked and serviceable, so the
        // very next region over the same pool still completes.
        let caught = std::panic::catch_unwind(|| {
            with_threads(4, || {
                for_each_range(4, 1, |r| {
                    if r.start > 0 {
                        panic!("injected worker failure");
                    }
                });
            });
        });
        assert!(caught.is_err(), "worker panic must propagate");
        let hits: Vec<AtomicUsize> = (0..16).map(|_| AtomicUsize::new(0)).collect();
        with_threads(4, || {
            for_each_range(hits.len(), 1, |r| {
                for i in r {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn pool_workers_keep_thread_identity_across_regions() {
        // The pool must reuse the same OS threads between regions —
        // per-worker workspaces depend on it.
        use std::collections::HashSet;
        use std::sync::Mutex as StdMutex;
        let ids: StdMutex<HashSet<std::thread::ThreadId>> = StdMutex::new(HashSet::new());
        for _ in 0..4 {
            with_threads(4, || {
                for_each_range(4, 1, |_r| {
                    ids.lock().unwrap().insert(std::thread::current().id());
                });
            });
        }
        // 4 regions × 4 lanes land on the caller + at most 3 pooled workers.
        assert!(ids.lock().unwrap().len() <= 4, "threads must be reused");
    }
}
