//! One benchmark for the whole LerGAN reproduction.
//!
//! Four closed-loop workloads, each run in its own process:
//!
//! * `train_b1` — `Gan::train_step` on one sample, round-robin over a
//!   reduced benchmark-GAN suite (the per-sample path serving uses);
//! * `train_b8` — `Gan::train_step_batched` on packed batches of eight
//!   over the same suite (the GEMM-bound path);
//! * `sim_sweep` — `LerGan::builder(..).build()` + `train_iterations(10)`
//!   over 80 design points (the paper-figure half; no trainer code);
//! * `serve_faulty` — fresh serving fleets under stuck-at faults, wear and
//!   link chaos (the recovery ladder, ABFT checks and retransmits).
//!
//! A run measures closed rounds for a fixed number of seconds at one
//! worker thread with tracing off, checks every output, sets the workload
//! up again many times (the median is `setup_s`), and prints one JSON
//! result line. Every end-to-end time is given at the host's reference
//! speed, scaled by a calibration kernel timed beside it (see [`calib`]).
//! With tracing on, a separate traced pass afterwards times calls into
//! each layer's public functions from this crate and reports per-layer
//! metrics. See `README.md` for the layer → metric → workload map.

pub mod calib;
pub mod cli;
pub mod compare;
pub mod json;
pub mod serve;
pub mod sim;
pub mod stats;
pub mod train;

use calib::Calibrator;
use json::Json;
use lergan_tensor::parallel;
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics, `(name, unit)`, printed on every workload with
/// tracing off; the times and rates are at the host's reference speed.
/// Bounds and directions live in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("round_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, `(name, unit)`, printed on every workload with
/// tracing on. A layer the workload never calls reads 0; layer time is
/// given as a share of the workload's round, so a layer that gets faster
/// shows as a smaller share.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("round_ms_p80", "ms"),
    ("rounds", "count"),
    ("host.slowdown", "ratio"),
    ("trace.coverage", "ratio"),
    ("gan.d_forward_share", "ratio"),
    ("gan.d_backward_share", "ratio"),
    ("gan.g_forward_share", "ratio"),
    ("gan.g_backward_share", "ratio"),
    ("gan.update_share", "ratio"),
    ("gan.step_share.dcgan16", "ratio"),
    ("gan.step_share.dcgan32deep", "ratio"),
    ("gan.step_share.widegan16", "ratio"),
    ("gan.step_share.extgan8", "ratio"),
    ("gan.batched_b1_over_per_sample", "ratio"),
    ("gan.ir_build_share", "ratio"),
    ("tensor.gemm_share", "ratio"),
    ("tensor.gemm_calls", "count"),
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("tensor.parallel_t2_over_t1.d_forward", "ratio"),
    ("tensor.parallel_t2_over_t1.d_backward", "ratio"),
    ("tensor.parallel_t2_over_t1.g_forward", "ratio"),
    ("tensor.parallel_t2_over_t1.g_backward", "ratio"),
    ("tensor.parallel_t2_over_t1.update", "ratio"),
    ("core.build_share", "ratio"),
    ("core.compile_share", "ratio"),
    ("core.simulate_share", "ratio"),
    ("core.lower_share", "ratio"),
    ("sim.run_share", "ratio"),
    ("sim.tasks", "count"),
    ("sim.tasks_per_us", "1/us"),
    ("serve.overhead_share", "ratio"),
    ("core.recovery.new_share", "ratio"),
    ("core.recovery.step_over_bare", "ratio"),
    ("serve.completed", "count"),
    ("serve.shed", "count"),
    ("serve.job_retries", "count"),
    ("serve.requeued", "count"),
    ("serve.quarantined_pairs", "count"),
    ("serve.plan_hits", "count"),
    ("serve.plan_misses", "count"),
    ("core.recovery.detected", "count"),
    ("core.recovery.corrected", "count"),
    ("core.recovery.rolled_back", "count"),
    ("core.link.retransmitted", "count"),
    ("serve.sim_p98_ms", "ms_sim"),
];

/// Windows a run is split into; `items_per_s` is the median window rate.
const WINDOWS: f64 = 40.0;

/// Set-ups a run times; `setup_s` is their median.
const SETUPS: usize = 20;

/// Calibration time interleaved with the rounds, as a share of their time.
const CALIBRATION_SHARE: f64 = 0.25;

/// Least calibration time after each set-up (s).
const SETUP_CALIBRATION_S: f64 = 0.005;

/// The traced pass lasts this share of the measured seconds.
const TRACE_SHARE: f64 = 0.25;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TrainB1,
    TrainB8,
    SimSweep,
    ServeFaulty,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TrainB1,
        Workload::TrainB8,
        Workload::SimSweep,
        Workload::ServeFaulty,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainB1 => "train_b1",
            Workload::TrainB8 => "train_b8",
            Workload::SimSweep => "sim_sweep",
            Workload::ServeFaulty => "serve_faulty",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one closed-loop round did.
#[derive(Debug, Clone, Copy, Default)]
pub struct Round {
    /// Work items completed (samples, design points or served jobs):
    /// the unit of `items_per_s`.
    pub items: u64,
    /// Operations attempted (train steps, design points, submitted jobs).
    pub ops: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
}

/// The untraced measurement of a run.
#[derive(Debug, Clone, Default)]
pub struct Timing {
    /// Duration of every round at the reference host speed (s).
    pub round_s: Vec<f64>,
    /// Items per second of round time of each window, at the reference
    /// host speed.
    pub window_rates: Vec<f64>,
    /// The host's slowdown in each window: its calibration chunk time over
    /// [`calib::REFERENCE_CHUNK_S`].
    pub slowdowns: Vec<f64>,
    /// `round_s` and `window_rates` as measured, unscaled.
    pub raw_round_s: Vec<f64>,
    pub raw_window_rates: Vec<f64>,
    pub ops: u64,
    pub failed: u64,
}

/// The rounds and calibration chunks of one window.
#[derive(Debug, Default)]
struct Window {
    round_s: Vec<f64>,
    /// The host slowdown the chunks right after each round measured.
    round_slowdowns: Vec<f64>,
    round_time: f64,
    items: u64,
    calibration_s: f64,
    chunks: u32,
}

impl Window {
    /// Adds a round of `items` that took `dt` seconds, followed by `chunks`
    /// calibration chunks that took `spent` seconds.
    fn push(&mut self, dt: f64, items: u64, spent: f64, chunks: u32) {
        self.round_s.push(dt);
        self.round_slowdowns
            .push(spent / f64::from(chunks) / calib::REFERENCE_CHUNK_S);
        self.round_time += dt;
        self.items += items;
        self.calibration_s += spent;
        self.chunks += chunks;
    }
}

impl Timing {
    /// Scales a finished window's rate by the host slowdown all its chunks
    /// measured, and each of its rounds by the slowdown the chunks right
    /// after that round measured. A round's median tracks the host better
    /// when each round is scaled on its own: under heavy contention the
    /// round times of one window spread, and one window-wide slowdown
    /// scales their mean, not their median.
    fn close(&mut self, w: Window) {
        let slowdown = w.calibration_s / f64::from(w.chunks) / calib::REFERENCE_CHUNK_S;
        let rate = w.items as f64 / w.round_time;
        self.slowdowns.push(slowdown);
        self.window_rates.push(rate * slowdown);
        self.raw_window_rates.push(rate);
        self.round_s.extend(
            w.round_s
                .iter()
                .zip(&w.round_slowdowns)
                .map(|(s, k)| s / k),
        );
        self.raw_round_s.extend(w.round_s);
    }
}

/// Per-layer values a traced pass produced, plus failures it found.
#[derive(Debug, Default)]
pub struct Layers {
    pub values: Vec<(&'static str, f64)>,
    pub failed: u64,
}

/// A workload's state between set-up and the end of the run.
pub trait Bench {
    /// One closed-loop round: the timed unit of work.
    fn round(&mut self) -> Round;
    /// Checks of the last round's outputs that are too costly to time with
    /// it; runs between rounds, untimed. Returns failed operations.
    fn check_round(&mut self) -> u64 {
        0
    }
    /// Checks at the end of the run; returns failed operations.
    fn check(&mut self) -> u64 {
        0
    }
    /// The traced pass: per-layer metrics from `seconds` of replayed work.
    /// Layer time is a share of a bare round timed alongside it, not of
    /// the untraced loop, so drift in host speed between the two cancels.
    fn trace(&mut self, seconds: f64) -> Layers;
}

/// Builds a workload's inputs and state from the seed: the set-up that
/// `setup_s` times.
pub fn setup(workload: Workload, seed: u64) -> Result<Box<dyn Bench>, String> {
    Ok(match workload {
        Workload::TrainB1 => Box::new(train::Suite::setup(seed, 1)?),
        Workload::TrainB8 => Box::new(train::Suite::setup(seed, 8)?),
        Workload::SimSweep => Box::new(sim::Sweep::setup(seed)?),
        Workload::ServeFaulty => Box::new(serve::Fleet::setup(seed)?),
    })
}

/// Everything that defines one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Seconds of rounds the untraced loop measures.
    pub seconds: f64,
    pub trace: bool,
}

/// The outcome of a run.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, unit, value)` in the order of [`END_TO_END`] or [`PER_LAYER`].
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Quartiles of the samples behind each end-to-end median, of the
    /// host slowdown, and of the unscaled (`raw.`) samples.
    pub quartiles: Vec<(&'static str, [f64; 3])>,
    pub windows: usize,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|&(name, unit, value)| {
                    (
                        name,
                        Json::obj([
                            ("value", Json::Num(value)),
                            ("unit", Json::Str(unit.into())),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// The full record `--out` writes: the result plus what it was
    /// measured on and the spread behind each median.
    pub fn record_json(&self, cfg: &RunConfig) -> Json {
        Json::obj([
            ("workload", Json::Str(cfg.workload.name().into())),
            ("seed", Json::Num(cfg.seed as f64)),
            ("seconds", Json::Num(cfg.seconds)),
            ("trace", Json::Bool(cfg.trace)),
            ("host", host_json()),
            ("windows", Json::Num(self.windows as f64)),
            (
                "quartiles",
                Json::obj(self.quartiles.iter().map(|(name, q)| {
                    (*name, Json::Arr(q.iter().map(|&x| Json::Num(x)).collect()))
                })),
            ),
            ("result", self.result_json()),
        ])
    }
}

/// Host facts every record carries: core count, CPU model and the
/// `LERGAN_THREADS` setting (timed phases pin one thread regardless).
fn host_json() -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let threads = std::env::var("LERGAN_THREADS").map_or(Json::Null, Json::Str);
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::Str(cpu)),
        ("lergan_threads", threads),
    ])
}

/// Peak resident set size of this process (MiB), from `VmHWM`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// Worker threads for the two-thread checks and diagnostics: two, or
/// fewer on a one-core host so a run never uses more threads than cores.
pub fn two_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Runs closed-loop rounds until `seconds` of wall time have passed,
/// counting each round's checks and calibration against them, so a
/// workload with costly checks measures fewer rounds rather than running
/// longer. After each round, calibration chunks run until they have taken
/// [`CALIBRATION_SHARE`] of its time. Only the rounds are timed: a window
/// closes after `seconds / 40` of wall time, and its rate is its items
/// over its round time, scaled by its chunks' slowdown.
pub fn measure(seconds: f64, bench: &mut dyn Bench, cal: &mut Calibrator) -> Timing {
    let window_len = seconds / WINDOWS;
    let mut timing = Timing::default();
    let mut window = Window::default();
    let run_start = Instant::now();
    let mut window_start = Instant::now();
    while run_start.elapsed().as_secs_f64() < seconds {
        let start = Instant::now();
        let r = bench.round();
        let dt = start.elapsed().as_secs_f64();
        let (spent, chunks) = cal.run_for(CALIBRATION_SHARE * dt);
        window.push(dt, r.items, spent, chunks);
        timing.ops += r.ops;
        timing.failed += r.failed + bench.check_round();
        if window_start.elapsed().as_secs_f64() >= window_len {
            timing.close(std::mem::take(&mut window));
            window_start = Instant::now();
        }
    }
    if !window.round_s.is_empty() {
        timing.close(window);
    }
    timing
}

/// Sets the workload up, timing it, then calibrates for at least as long;
/// pushes the set-up time at the reference host speed and as measured.
fn timed_setup(
    cfg: &RunConfig,
    cal: &mut Calibrator,
    setup_s: &mut Vec<f64>,
    raw_setup_s: &mut Vec<f64>,
) -> Result<Box<dyn Bench>, String> {
    let start = Instant::now();
    let bench = setup(cfg.workload, cfg.seed)?;
    let dt = start.elapsed().as_secs_f64();
    setup_s.push(dt / cal.slowdown(dt.max(SETUP_CALIBRATION_S)));
    raw_setup_s.push(dt);
    Ok(bench)
}

/// Times `f`, adding its duration (s) to `slot`.
pub fn timed<R>(slot: &mut f64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    *slot += start.elapsed().as_secs_f64();
    r
}

/// Set up, measure, check and (optionally) trace one workload. Timed
/// phases run at one worker thread.
///
/// `peak_rss_mb` is read right after the rounds, before the workload is
/// set up again beside the measured state: it covers the set-up, its
/// warm-up and every round, and no second copy. A single set-up takes
/// milliseconds, so one timing would be at the mercy of the host's
/// jitter: `setup_s` is the median of [`SETUPS`] of them.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    parallel::with_threads(1, || {
        let mut cal = Calibrator::default();
        let (mut setup_s, mut raw_setup_s) = (Vec::new(), Vec::new());
        let mut bench = timed_setup(cfg, &mut cal, &mut setup_s, &mut raw_setup_s)?;
        let timing = measure(cfg.seconds, bench.as_mut(), &mut cal);
        let rss = peak_rss_mb()?;
        let mut failed = timing.failed + bench.check();
        for _ in 1..SETUPS {
            timed_setup(cfg, &mut cal, &mut setup_s, &mut raw_setup_s)?;
        }

        let round_ms: Vec<f64> = timing.round_s.iter().map(|s| s * 1e3).collect();
        let raw_round_ms: Vec<f64> = timing.raw_round_s.iter().map(|s| s * 1e3).collect();
        let metrics: Vec<(&str, &str, f64)> = if cfg.trace {
            let layers = bench.trace(cfg.seconds * TRACE_SHARE);
            failed += layers.failed;
            let mut values: BTreeMap<&str, f64> = layers.values.into_iter().collect();
            values.insert("round_ms_p80", stats::percentile(&round_ms, 0.80));
            values.insert("rounds", round_ms.len() as f64);
            values.insert("host.slowdown", stats::median(&timing.slowdowns));
            if let Some(name) = values
                .keys()
                .find(|k| !PER_LAYER.iter().any(|(n, _)| n == *k))
            {
                return Err(format!("traced pass produced an undeclared metric {name}"));
            }
            PER_LAYER
                .iter()
                .map(|&(name, unit)| (name, unit, values.get(name).copied().unwrap_or(0.0)))
                .collect()
        } else {
            let values = [
                stats::median(&setup_s),
                stats::median(&timing.window_rates),
                stats::median(&round_ms),
                rss,
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), v)| (name, unit, v))
                .collect()
        };
        if let Some((name, _, v)) = metrics.iter().find(|(_, _, v)| !v.is_finite()) {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        Ok(Outcome {
            attempted: timing.ops,
            failed,
            metrics,
            quartiles: vec![
                ("setup_s", stats::quartiles(&setup_s)),
                ("items_per_s", stats::quartiles(&timing.window_rates)),
                ("round_ms", stats::quartiles(&round_ms)),
                ("host.slowdown", stats::quartiles(&timing.slowdowns)),
                ("raw.setup_s", stats::quartiles(&raw_setup_s)),
                (
                    "raw.items_per_s",
                    stats::quartiles(&timing.raw_window_rates),
                ),
                ("raw.round_ms", stats::quartiles(&raw_round_ms)),
            ],
            windows: timing.window_rates.len(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len(), "{got:?} vs {want:?}");
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() <= 1e-12 * w.abs(), "{got:?} vs {want:?}");
        }
    }

    #[test]
    fn a_window_is_scaled_by_its_slowdown_and_each_round_by_its_own() {
        // The chunk after the first round took three times the reference
        // time, the one after the second round the reference time: over
        // the window the host ran at half speed.
        let mut w = Window::default();
        w.push(0.25, 2, 3.0 * calib::REFERENCE_CHUNK_S, 1);
        w.push(0.5, 4, calib::REFERENCE_CHUNK_S, 1);
        let mut timing = Timing::default();
        timing.close(w);
        assert_close(&timing.slowdowns, &[2.0]);
        assert_close(&timing.raw_window_rates, &[8.0]);
        assert_close(&timing.window_rates, &[16.0]);
        assert_close(&timing.raw_round_s, &[0.25, 0.5]);
        assert_close(&timing.round_s, &[0.25 / 3.0, 0.5]);
    }
}
