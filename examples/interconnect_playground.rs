//! Interconnect playground: explores the routing and bandwidth behaviour
//! of the H-tree and the 3D-connected PIM (Sec. III-B / IV-B).
//!
//! ```text
//! cargo run --release --example interconnect_playground
//! ```

use lergan::noc::{DcuPair, Endpoint, Mode, NocConfig, ThreeDcu};

fn main() {
    let cfg = NocConfig::default();
    let dcu = ThreeDcu::new(&cfg);
    let pair = DcuPair::new(&cfg);

    println!("--- Fig. 9's pathology: adjacent tiles, distant in the tree ---");
    for (a, b) in [(0usize, 1usize), (3, 4), (7, 8)] {
        let smode = dcu
            .route(Endpoint::tile(0, a), Endpoint::tile(0, b), Mode::Smode)
            .unwrap();
        let cmode = dcu
            .route(Endpoint::tile(0, a), Endpoint::tile(0, b), Mode::Cmode)
            .unwrap();
        println!(
            "tiles {a:>2} -> {b:<2}: H-tree {} hops ({:.1} ns); Cmode {} hops ({:.1} ns)",
            smode.hops(),
            smode.latency_ns,
            cmode.hops(),
            cmode.latency_ns
        );
    }

    println!("\n--- vertical alignment: forward bank to ∇weight bank ---");
    let vertical = dcu
        .route(
            Endpoint::tile(0, 5),
            Endpoint::pair_tile(0, 1, 5),
            Mode::Cmode,
        )
        .unwrap();
    let smode_fallback = dcu
        .route(
            Endpoint::tile(0, 5),
            Endpoint::pair_tile(0, 1, 5),
            Mode::Smode,
        )
        .unwrap();
    println!(
        "Cmode: {} hops, {:.1} ns (vertical wire); Smode memory path: {} hops, \
         {:.1} ns (through the bus)",
        vertical.hops(),
        vertical.latency_ns,
        smode_fallback.hops(),
        smode_fallback.latency_ns
    );

    println!("\n--- the generator->discriminator bypass (Fig. 13) ---");
    let bypass = pair
        .route(
            Endpoint::pair_tile(0, 0, 0),
            Endpoint::pair_tile(1, 0, 0),
            Mode::Cmode,
        )
        .unwrap();
    let bus = pair
        .route(
            Endpoint::pair_tile(0, 0, 0),
            Endpoint::pair_tile(1, 0, 0),
            Mode::Smode,
        )
        .unwrap();
    let batch_samples = 64 * 64 * 64 * 3; // one DCGAN minibatch of images
    let (t_bypass, e_bypass) = bypass.transfer(batch_samples, &cfg);
    let (t_bus, e_bus) = bus.transfer(batch_samples, &cfg);
    println!(
        "moving one minibatch of 64x64x3 images x64:\n  bypass: {:.1} us, {:.1} nJ\n  bus:    {:.1} us, {:.1} nJ",
        t_bypass / 1e3,
        e_bypass / 1e3,
        t_bus / 1e3,
        e_bus / 1e3
    );
}
