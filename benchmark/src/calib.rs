//! Host-speed calibration.
//!
//! On a shared VM the same code runs up to 2.3× slower for minutes at a
//! time, and the guest cannot see it: user CPU time equals wall time and
//! the steal counter stays flat. What it can see is a fixed piece of its
//! own code slowing down by about as much. A run therefore interleaves
//! [`Calibrator::chunk`] with the workload, and each timing is reported at
//! the host's reference speed: scaled by [`REFERENCE_CHUNK_S`] over the
//! chunk time measured beside it.
//!
//! A chunk is about two thirds floating-point work (small f32 matrix
//! products, which the compiler vectorises, as the trainer's GEMMs are)
//! and one third scalar work (sorting pseudo-random keys and building a
//! `BTreeMap`: branches, allocation and pointer chasing, as the simulator
//! and the serving runtime do). Of the mixes tried, this one tracked all
//! four workloads best: across ten runs spanning fast and slow periods, a
//! workload's time over the chunk time spread by a fifth to a tenth of
//! what its raw time spread. It is this package's own code, so no change
//! to the library crates can change it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Side of the square matrices the floating-point half multiplies.
const N: usize = 48;
/// Matrix products per chunk.
const PRODUCTS: usize = 6;
/// Keys the scalar half sorts per chunk.
const KEYS: usize = 2000;

/// Duration of one chunk at the reference host speed (s): about what it
/// takes on a 2.0 GHz Xeon vCPU outside the host's slow periods.
pub const REFERENCE_CHUNK_S: f64 = 120e-6;

/// The calibration kernel's operands and state.
pub struct Calibrator {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    state: u64,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator {
            a: vec![0.5; N * N],
            b: vec![0.25; N * N],
            c: vec![0.0; N * N],
            state: 0x2545_F491_4F6C_DD1D,
        }
    }
}

impl Calibrator {
    /// Runs one chunk and returns its duration (s).
    pub fn chunk(&mut self) -> f64 {
        let start = Instant::now();
        let (a, b) = (black_box(&self.a), black_box(&self.b));
        self.c.fill(0.0);
        for _ in 0..PRODUCTS {
            for i in 0..N {
                for k in 0..N {
                    let x = a[i * N + k];
                    for (c, &y) in self.c[i * N..(i + 1) * N]
                        .iter_mut()
                        .zip(&b[k * N..(k + 1) * N])
                    {
                        *c += x * y;
                    }
                }
            }
        }
        black_box(&self.c);

        let mut keys: Vec<u64> = (0..KEYS)
            .map(|_| {
                // xorshift64
                self.state ^= self.state << 13;
                self.state ^= self.state >> 7;
                self.state ^= self.state << 17;
                self.state
            })
            .collect();
        keys.sort_unstable();
        let map: BTreeMap<u64, u64> = keys.iter().step_by(4).map(|&k| (k >> 3, k)).collect();
        black_box((keys[KEYS / 2], map.len()));
        start.elapsed().as_secs_f64()
    }

    /// Runs at least one chunk, and more until they have taken at least
    /// `seconds`; returns their total time (s) and their number.
    pub fn run_for(&mut self, seconds: f64) -> (f64, u32) {
        let (mut spent, mut chunks) = (0.0, 0u32);
        while chunks == 0 || spent < seconds {
            spent += self.chunk();
            chunks += 1;
        }
        (spent, chunks)
    }

    /// Runs chunks for at least `seconds`, and returns the host's slowdown
    /// over that time: the mean chunk time over [`REFERENCE_CHUNK_S`].
    pub fn slowdown(&mut self, seconds: f64) -> f64 {
        let (spent, chunks) = self.run_for(seconds);
        spent / f64::from(chunks) / REFERENCE_CHUNK_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_chunk_takes_time_and_the_slowdown_is_positive() {
        let mut cal = Calibrator::default();
        assert!(cal.chunk() > 0.0);
        let s = cal.slowdown(0.002);
        assert!(s.is_finite() && s > 0.0, "{s}");
    }
}
