//! A ReRAM latency outside `[0, ∞)` must surface as a typed build error.
//!
//! The replica search bisects on `t_t_total ≤ t_c_total`, which is
//! monotone in the replica count only for latencies `≥ 0`; a negative or
//! NaN latency made its answer arbitrary, and a negative write latency
//! reached the scheduler as a negative task duration.

use lergan_core::{BuildError, LerGan};
use lergan_gan::benchmarks;
use lergan_reram::ReramConfig;

fn build_with(config: ReramConfig) -> Result<LerGan, BuildError> {
    LerGan::builder(&benchmarks::dcgan())
        .reram_config(config)
        .build()
}

#[test]
fn negative_or_non_finite_latencies_are_build_errors() {
    type Field = fn(&mut ReramConfig) -> &mut f64;
    let fields: [(&str, Field); 5] = [
        ("tile_read_latency_ns", |c| &mut c.tile_read_latency_ns),
        ("tile_write_latency_ns", |c| &mut c.tile_write_latency_ns),
        ("htree_latency_ns", |c| &mut c.htree_latency_ns),
        ("bank_read_latency_ns", |c| &mut c.bank_read_latency_ns),
        ("bank_write_latency_ns", |c| &mut c.bank_write_latency_ns),
    ];
    for (name, field) in fields {
        for bad in [
            -1.0,
            -f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            let mut config = ReramConfig::default();
            *field(&mut config) = bad;
            let err = build_with(config).unwrap_err();
            assert_eq!(
                err,
                BuildError::Latency {
                    field: name,
                    bits: bad.to_bits()
                }
            );
            assert!(err.to_string().contains(name), "{err}");
        }
    }
}

#[test]
fn zero_latencies_of_either_sign_still_build_and_train() {
    for zero in [0.0, -0.0] {
        let config = ReramConfig {
            tile_read_latency_ns: zero,
            htree_latency_ns: zero,
            ..ReramConfig::default()
        };
        let report = build_with(config).unwrap().train_iterations(1);
        assert!(report.iteration_latency_ns > 0.0);
    }
}
