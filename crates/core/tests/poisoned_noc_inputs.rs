//! Poisoned interconnect inputs must surface as typed errors, never as a
//! panic or a silently wrong route.
//!
//! The lowering names tile leaves with [`Endpoint::pair_tile`], which
//! knows only [`Endpoint::TILES_PER_BANK`] leaves per bank. An 8-tile
//! configuration used to build and then panic in `train_iterations`
//! ("every transfer has a route"), a 12-tile one panicked in
//! `NocConfig::levels`, and an endpoint past the fabric's last node was
//! aliased in release builds onto another bank's node.

use lergan_core::{BuildError, LerGan};
use lergan_gan::benchmarks;
use lergan_noc::{DcuPair, Endpoint, Mode, NocConfig, RouteError};

fn build_with_tiles(tiles_per_bank: usize) -> Result<LerGan, BuildError> {
    LerGan::builder(&benchmarks::dcgan())
        .noc_config(NocConfig {
            tiles_per_bank,
            ..NocConfig::default()
        })
        .build()
}

#[test]
fn an_eight_tile_interconnect_is_a_build_error_not_a_training_panic() {
    let err = build_with_tiles(8).unwrap_err();
    assert_eq!(err, BuildError::TilesPerBank { tiles_per_bank: 8 });
    assert!(
        err.to_string().contains("16 tiles per bank, not 8"),
        "{err}"
    );
}

#[test]
fn a_twelve_tile_interconnect_is_a_build_error_not_a_levels_panic() {
    let err = build_with_tiles(12).unwrap_err();
    assert_eq!(err, BuildError::TilesPerBank { tiles_per_bank: 12 });
}

#[test]
fn the_default_tile_count_still_builds_and_trains() {
    let report = build_with_tiles(Endpoint::TILES_PER_BANK)
        .unwrap()
        .train_iterations(1);
    assert!(report.iteration_latency_ns > 0.0);
}

#[test]
fn an_endpoint_past_the_fabric_is_a_route_error_not_an_alias() {
    let pair = DcuPair::new(&NocConfig::default());
    let from = Endpoint::pair_tile(0, 0, 0);
    let outside = Endpoint {
        side: 0,
        bank: 0,
        node: 40,
    };
    // Node 40 of bank 0 would be vertex 40, which is bank 1's node 8.
    let alias = Endpoint {
        side: 0,
        bank: 1,
        node: 8,
    };
    assert!(pair.route(from, alias, Mode::Cmode).is_ok());
    for mode in [Mode::Smode, Mode::Cmode] {
        assert_eq!(
            pair.route(from, outside, mode),
            Err(RouteError::NoSuchEndpoint { endpoint: outside })
        );
    }
}
