//! Pooled scratch memory for the steady-state training loop.
//!
//! A [`Workspace`] is a size-keyed pool of `Vec<f32>` buffers:
//! [`Workspace::take`] pops a buffer of the exact requested length
//! (allocating only on a pool miss) and [`Workspace::give`] returns it for
//! reuse. A training step whose take/give
//! sequence is the same every iteration — which it is, because buffer sizes
//! depend only on network geometry — therefore performs **zero heap
//! allocations after a one-step warmup**; `tests/alloc_discipline.rs` in
//! the workspace root pins this with a counting global allocator.
//!
//! # Lifetime rules
//!
//! * Buffers are keyed by *exact* length; a `take(n)` can only be served by
//!   an earlier `give` of length `n`.
//! * [`Workspace::take`] returns a buffer with **unspecified contents**
//!   (stale values from its previous life): callers must fully overwrite
//!   it. Use [`Workspace::take_zeroed`]/[`Workspace::take_tensor`] when the
//!   consumer accumulates in place.
//! * Recycle a buffer to the workspace it came from. The trainer keeps one
//!   workspace per network stack; handing a generator buffer back to the
//!   discriminator's pool would migrate capacity between pools and force a
//!   steady-state allocation on each step.
//! * Pools are plain session state, not model state: dropping a workspace
//!   (or restoring a checkpoint) merely forces a fresh warmup step.
//!
//! Code that runs inside a parallel worker, where no caller-owned
//! workspace can be threaded through, takes its scratch from the worker's
//! own pool ([`with_thread_workspace`]).

use crate::tensor::Tensor;
use std::cell::RefCell;
use std::fmt;

thread_local! {
    /// Per-thread [`Workspace`] for parallel stages whose workers need
    /// pooled scratch (e.g. the batched trainer's per-sample backward
    /// scatter). It lives for the life of the pooled worker thread: each
    /// worker warms its sizes once and then serves every later region
    /// allocation-free.
    static WORKER_WS: RefCell<Workspace> = RefCell::new(Workspace::new());
}

/// Runs `f` over this thread's persistent [`Workspace`].
///
/// This is the scratch pool for code that runs *inside* a parallel worker,
/// where no caller-owned workspace can be threaded through (workers from
/// different regions interleave arbitrarily). Because the
/// [`crate::parallel`] substrate keeps worker threads alive in a pool, the
/// per-thread workspace persists across regions: one warmup pass populates
/// each worker's size buckets and the steady state allocates nothing.
///
/// Buffers taken from it must be given back before `f` returns — the
/// workspace is shared by every later region that lands on this thread.
pub fn with_thread_workspace<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
    WORKER_WS.with(|cell| f(&mut cell.borrow_mut()))
}

/// Size-keyed pool of reusable `f32` buffers (see the module docs for the
/// lifetime rules).
#[derive(Default)]
pub struct Workspace {
    /// One bucket per distinct buffer length, linear-scanned: a training
    /// step uses a handful of distinct sizes, so a map would be overhead.
    pools: Vec<(usize, Vec<Vec<f32>>)>,
}

impl fmt::Debug for Workspace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let buffers: usize = self.pools.iter().map(|(_, v)| v.len()).sum();
        let floats: usize = self.pools.iter().map(|(len, v)| len * v.len()).sum();
        f.debug_struct("Workspace")
            .field("sizes", &self.pools.len())
            .field("buffers", &buffers)
            .field("floats", &floats)
            .finish()
    }
}

impl Workspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pops a buffer of exactly `len` elements with **unspecified
    /// contents** — the caller must overwrite every slot. Allocates only
    /// when the pool has no buffer of this length.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        if let Some((_, bucket)) = self.pools.iter_mut().find(|(l, _)| *l == len) {
            if let Some(buf) = bucket.pop() {
                debug_assert_eq!(buf.len(), len);
                return buf;
            }
        }
        vec![0.0; len]
    }

    /// Like [`take`](Self::take), but every element is `0.0` — for
    /// consumers that accumulate or scatter sparsely.
    pub fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.take(len);
        buf.fill(0.0);
        buf
    }

    /// Takes a zeroed buffer shaped as a [`Tensor`].
    pub fn take_tensor(&mut self, shape: &[usize]) -> Tensor {
        let len = shape.iter().product();
        Tensor::from_vec(shape, self.take_zeroed(len))
    }

    /// Returns a buffer to the pool for reuse by a later
    /// [`take`](Self::take) of the same length.
    pub fn give(&mut self, buf: Vec<f32>) {
        let len = buf.len();
        match self.pools.iter_mut().find(|(l, _)| *l == len) {
            Some((_, bucket)) => bucket.push(buf),
            None => self.pools.push((len, vec![buf])),
        }
    }

    /// Returns a tensor's backing buffer to the pool.
    pub fn give_tensor(&mut self, t: Tensor) {
        self.give(t.into_vec());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_give_reuses_the_same_allocation() {
        let mut ws = Workspace::new();
        let buf = ws.take(64);
        let ptr = buf.as_ptr();
        ws.give(buf);
        let again = ws.take(64);
        assert_eq!(again.as_ptr(), ptr, "pooled buffer must be reused");
        assert_eq!(again.len(), 64);
    }

    #[test]
    fn lengths_are_exact_keys() {
        let mut ws = Workspace::new();
        ws.give(vec![1.0; 8]);
        // A different length must not be served from the 8-element bucket.
        assert_eq!(ws.take(9).len(), 9);
        // The 8-element buffer is still there, stale contents intact.
        assert_eq!(ws.take(8), vec![1.0; 8]);
    }

    #[test]
    fn take_zeroed_clears_stale_contents() {
        let mut ws = Workspace::new();
        ws.give(vec![7.0; 16]);
        assert!(ws.take_zeroed(16).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn tensor_round_trip() {
        let mut ws = Workspace::new();
        let t = ws.take_tensor(&[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.count_zeros(), 6);
        ws.give_tensor(t);
        let again = ws.take(6);
        assert_eq!(again.len(), 6);
    }
}
