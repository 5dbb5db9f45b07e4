//! Properties of the [`RecoveryPolicy`] retry ladder.
//!
//! The serving layer re-admits dead jobs with the same capped exponential
//! backoff the self-healing runtime uses for relocate-and-replay, so the
//! ladder's arithmetic is load-bearing twice over: delays must be monotone
//! non-decreasing in the attempt number (later retries never fire sooner),
//! capped (a long ladder degrades to constant-interval retries instead of
//! waiting geometrically forever), and bit-deterministic — the same policy
//! must produce the same delay on every host and at every worker count,
//! or the serve sweep's byte-determinism guarantee dies here.

use lergan_core::RecoveryPolicy;
use lergan_tensor::parallel::with_threads;
use proptest::prelude::*;

fn policy(base: f64, cap: f64) -> RecoveryPolicy {
    RecoveryPolicy {
        backoff_base_ns: base,
        backoff_cap_ns: cap,
        ..RecoveryPolicy::default()
    }
}

#[test]
fn default_ladder_matches_the_historical_uncapped_delays() {
    // PR 4 charged base * 2^(a-1) with max_retries = 3; the cap must not
    // change those first rungs, or BENCH_chaos.json would shift.
    let p = RecoveryPolicy::default();
    assert_eq!(p.backoff_ns(1).to_bits(), 200.0f64.to_bits());
    assert_eq!(p.backoff_ns(2).to_bits(), 400.0f64.to_bits());
    assert_eq!(p.backoff_ns(3).to_bits(), 800.0f64.to_bits());
    // The fourth rung is the first capped one under the defaults.
    assert_eq!(p.backoff_ns(4).to_bits(), 1_600.0f64.to_bits());
    assert_eq!(p.backoff_ns(5).to_bits(), 1_600.0f64.to_bits());
}

#[test]
fn huge_attempt_numbers_saturate_instead_of_overflowing() {
    let p = policy(1.0, f64::MAX);
    // 2^62 is the largest exact shift; beyond it the ladder is flat.
    assert_eq!(p.backoff_ns(63), p.backoff_ns(64));
    assert_eq!(p.backoff_ns(64), p.backoff_ns(u32::MAX));
    assert!(p.backoff_ns(u32::MAX).is_finite());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn delays_are_monotone_non_decreasing(
        base in 1.0f64..1e9,
        cap in 1.0f64..1e12,
        attempt in 1u32..120,
    ) {
        let p = policy(base, cap);
        prop_assert!(
            p.backoff_ns(attempt) <= p.backoff_ns(attempt + 1),
            "attempt {} waited {} > attempt {} waited {}",
            attempt, p.backoff_ns(attempt), attempt + 1, p.backoff_ns(attempt + 1)
        );
    }

    #[test]
    fn delays_never_exceed_the_cap(
        base in 1.0f64..1e9,
        cap in 1.0f64..1e12,
        attempt in 1u32..2_000,
    ) {
        let p = policy(base, cap);
        let d = p.backoff_ns(attempt);
        prop_assert!(d <= cap, "attempt {attempt}: {d} > cap {cap}");
        prop_assert!(d > 0.0 && d.is_finite());
    }

    #[test]
    fn ladder_is_bit_deterministic_across_1_2_8_threads(
        base in 1.0f64..1e9,
        cap in 1.0f64..1e12,
    ) {
        let p = policy(base, cap);
        let ladder = |threads: usize| -> Vec<u64> {
            with_threads(threads, || {
                (1..40).map(|a| p.backoff_ns(a).to_bits()).collect()
            })
        };
        let one = ladder(1);
        prop_assert_eq!(&one, &ladder(2));
        prop_assert_eq!(&one, &ladder(8));
    }
}
