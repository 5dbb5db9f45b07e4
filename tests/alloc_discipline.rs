//! Steady-state allocation discipline of the GAN trainer.
//!
//! The workspace-pooled trainer promises that after a one-step warmup —
//! which populates the activation caches, the Adam moment tensors, and
//! every workspace pool — a training step performs **zero heap
//! allocations**. This harness proves it with a counting `GlobalAlloc`
//! wrapper around the system allocator: the counter is armed after the
//! warmup step and every subsequent step must leave it at zero.
//!
//! The guarantee holds for `train_step` on one and on two samples at one
//! thread — the configuration the determinism CI job pins, and the shape
//! of a serving job — and for a batch of eight at eight worker threads.
//! The extended-grammar suite GAN (stride-1, dilated and normalised
//! layers, each conv plan with its own frame length) holds it at one and
//! at eight threads. The persistent worker pool dispatches regions
//! without allocating, and every per-worker scratch buffer (the
//! thread-local workspaces the backward pass draws its per-sample
//! partials from) is warmed by the first step.
//!
//! The allocator is process-global, but only the threads a check drives
//! count, and only while it runs: the test thread and the pool workers it
//! dispatches to (see [`Counted`]). The test harness's own threads — a
//! sibling test winding down, the harness reporting a result — allocate
//! while a check is armed, and must not count against it. The tests also
//! hold [`SERIAL`] while armed, so two checks never share the workers.

use lergan::gan::topology::parse_network;
use lergan::gan::train::{build_trainable_with, Gan, UpdateRule};
use lergan::tensor::{parallel, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Counts every allocation and reallocation on a counted thread while
/// armed; frees are not counted (returning pooled buffers is allowed to be
/// a no-op, and drops of warmup-era buffers are not steady-state traffic).
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread's allocations count. Const-initialised and
    /// drop-free, so reading it inside the allocator never allocates.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

/// Counts one allocation if armed and on a counted thread.
fn count() {
    if ARMED.load(Ordering::Relaxed) && COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Counts the allocations of the calling thread and of the `threads - 1`
/// pool workers a `threads`-wide region dispatches to, until dropped.
/// Declared after the [`SERIAL`] guard, it is dropped first: a finished
/// check's threads stop counting before the next check can arm.
struct Counted(usize);

impl Counted {
    fn new(threads: usize) -> Self {
        mark(threads, true);
        Counted(threads)
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        mark(self.0, false);
    }
}

/// Sets [`COUNTED`] on the calling thread and the pool workers of a
/// `threads`-wide region: a region of `threads` one-item ranges hands
/// exactly one range to each of them.
fn mark(threads: usize, on: bool) {
    parallel::with_threads(threads, || {
        parallel::for_each_range(threads, 1, |_| COUNTED.with(|c| c.set(on)));
    });
}

/// Serialises the tests around the shared counter.
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes [`SERIAL`], surviving a poisoned lock (a failed test must not
/// turn every later one into a lock panic).
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn steady_state_train_step_performs_zero_heap_allocations() {
    let _serial = serial();
    let _counted = Counted::new(1);
    parallel::with_threads(1, || {
        // One sample (a pooled batch of one) and two samples (the shape of
        // a serving job), each on its own trainer: a layer's activation
        // cache is sized by the batch, so alternating the two on one
        // trainer would reallocate by design.
        for samples in [1usize, 2] {
            // The same DCGAN-style topology the benchmark suite times.
            let mut rng = StdRng::seed_from_u64(1);
            let gen_spec = parse_network("g", "8f-(8t-4t)(3k2s)-t1", 2, 16).unwrap();
            let disc_spec = parse_network("d", "(1c-8c)(3k2s)-f1", 2, 16).unwrap();
            let g = build_trainable_with(&gen_spec, true, false, &mut rng);
            let d = build_trainable_with(&disc_spec, false, false, &mut rng);
            let mut gan = Gan::new(g, d, 8, 0.01, 2).with_optimizer(UpdateRule::dcgan_adam(0.01));
            let reals = vec![Tensor::filled(&[1, 16, 16], 0.5); samples];

            // One warmup step: fills the workspace pools, the activation
            // caches, the Adam moments, and the thread-local workspaces.
            let _ = gan.train_step(&reals);

            ALLOCATIONS.store(0, Ordering::SeqCst);
            ARMED.store(true, Ordering::SeqCst);
            for _ in 0..5 {
                let stats = gan.train_step(&reals);
                assert!(stats.d_loss.is_finite() && stats.g_loss.is_finite());
            }
            ARMED.store(false, Ordering::SeqCst);

            assert_eq!(
                ALLOCATIONS.load(Ordering::SeqCst),
                0,
                "steady-state {samples}-sample train steps must not touch the heap"
            );
        }
    });
}

#[test]
fn steady_state_batched_step_is_alloc_free_at_eight_threads() {
    // The batched train step must hold the same zero-allocation promise
    // with the worker pool engaged: per-sample gradient partials live in
    // per-worker thread workspaces, and the fixed reduction tree runs in
    // buffers the warmup step already pooled.
    let _serial = serial();
    let _counted = Counted::new(8);
    parallel::with_threads(8, || {
        let mut rng = StdRng::seed_from_u64(3);
        let gen_spec = parse_network("g", "8f-(8t-4t)(3k2s)-t1", 2, 16).unwrap();
        let disc_spec = parse_network("d", "(1c-8c)(3k2s)-f1", 2, 16).unwrap();
        let g = build_trainable_with(&gen_spec, true, false, &mut rng);
        let d = build_trainable_with(&disc_spec, false, false, &mut rng);
        let mut gan = Gan::new(g, d, 8, 0.01, 4).with_optimizer(UpdateRule::dcgan_adam(0.01));
        let reals = lergan::gan::train::pack_batch(
            &(0..8)
                .map(|_| Tensor::filled(&[1, 16, 16], 0.5))
                .collect::<Vec<_>>(),
        );

        // Two warmup steps: the first fills pools and caches on whichever
        // workers take each region; the second catches any buffer whose
        // steady-state size differs from its first-step size.
        let _ = gan.train_step_batched(&reals).unwrap();
        let _ = gan.train_step_batched(&reals).unwrap();

        ALLOCATIONS.store(0, Ordering::SeqCst);
        ARMED.store(true, Ordering::SeqCst);
        for _ in 0..5 {
            let stats = gan.train_step_batched(&reals).unwrap();
            assert!(stats.d_loss.is_finite() && stats.g_loss.is_finite());
        }
        ARMED.store(false, Ordering::SeqCst);

        assert_eq!(
            ALLOCATIONS.load(Ordering::SeqCst),
            0,
            "steady-state batched train steps must not touch the heap at 8 threads"
        );
    });
}

#[test]
fn extended_grammar_gan_steps_are_alloc_free_at_one_and_eight_threads() {
    // The extended-grammar suite GAN runs stride-1, dilated, batch-norm
    // skip and pixel-norm layers: every zero-padded frame its conv plans
    // copy inputs into, whatever its length, comes from a workspace pool.
    let _serial = serial();
    for threads in [1usize, 8] {
        let _counted = Counted::new(threads);
        parallel::with_threads(threads, || {
            let mut rng = StdRng::seed_from_u64(5);
            let gen_spec = parse_network("g", "8f-(4t)(3k2s)-t1", 2, 8).unwrap();
            let disc_spec = parse_network(
                "d",
                "(1c-8c)(3k1s)-8c3k1s2d-8c3k1sbn+2-8c3k1s-8c3k1spn-f1",
                2,
                8,
            )
            .unwrap();
            let g = build_trainable_with(&gen_spec, true, false, &mut rng);
            let d = build_trainable_with(&disc_spec, false, false, &mut rng);
            let mut gan = Gan::new(g, d, 8, 0.01, 6).with_optimizer(UpdateRule::dcgan_adam(0.01));
            let reals = lergan::gan::train::pack_batch(
                &(0..8)
                    .map(|_| Tensor::filled(&[1, 8, 8], 0.5))
                    .collect::<Vec<_>>(),
            );

            // Two warmup steps, as for the batched DCGAN above.
            let _ = gan.train_step_batched(&reals).unwrap();
            let _ = gan.train_step_batched(&reals).unwrap();

            ALLOCATIONS.store(0, Ordering::SeqCst);
            ARMED.store(true, Ordering::SeqCst);
            for _ in 0..5 {
                let stats = gan.train_step_batched(&reals).unwrap();
                assert!(stats.d_loss.is_finite() && stats.g_loss.is_finite());
            }
            ARMED.store(false, Ordering::SeqCst);

            assert_eq!(
                ALLOCATIONS.load(Ordering::SeqCst),
                0,
                "steady-state extended-grammar steps must not touch the heap at {threads} threads"
            );
        });
    }
}
