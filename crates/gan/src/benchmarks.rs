//! The eight GAN benchmarks of Table V.
//!
//! Each function parses the exact Table V row. `all()` returns them in the
//! table's order, which is also the x-axis order of Fig. 16–22.

use crate::topology::GanSpec;

/// DCGAN (Radford et al.), 64×64 items.
pub fn dcgan() -> GanSpec {
    GanSpec::parse(
        "DCGAN",
        "100f-(1024t-512t-256t-128t)(5k2s)-t3",
        "(3c-128c-256c-512c-1024c)(5k2s)-f1",
        &[64, 64],
    )
    .expect("Table V row is well-formed")
}

/// cGAN (context encoders), 64×64 items.
pub fn cgan() -> GanSpec {
    GanSpec::parse(
        "cGAN",
        "100f-(256t-128t-64t)(4k2s)-t3",
        "(3c-64c-128c-256c)(4k2s)-f1",
        &[64, 64],
    )
    .expect("Table V row is well-formed")
}

/// 3D-GAN, 64×64×64 volumetric items.
pub fn threed_gan() -> GanSpec {
    GanSpec::parse(
        "3D-GAN",
        "100f-(512t-256t-128t)(4k2s)-t3",
        "(1c-64c-128c-256c-512c)(4k2s)-f1",
        &[64, 64, 64],
    )
    .expect("Table V row is well-formed")
}

/// ArtGAN on CIFAR-10, 32×32 items (11-way discriminator output).
pub fn artgan_cifar10() -> GanSpec {
    GanSpec::parse(
        "ArtGAN-CIFAR-10",
        "100f-1024t4k1s-512t4k2s-256t4k2s-128t4k2s-128t3k1s-t3",
        "3c4k2s-128c3k1s-(128c-256c-512c-1024c)(4k2s)-f11",
        &[32, 32],
    )
    .expect("Table V row is well-formed")
}

/// GP-GAN, 64×64 items.
pub fn gpgan() -> GanSpec {
    GanSpec::parse(
        "GPGAN",
        "100f-(512t-256t-128t-64t)(4k2s)-t3",
        "(3c-64c-128c-256c-512c)(4k2s)-f1",
        &[64, 64],
    )
    .expect("Table V row is well-formed")
}

/// MAGAN on MNIST, 28×28 items, fully-connected discriminator.
pub fn magan_mnist() -> GanSpec {
    GanSpec::parse(
        "MAGAN-MNIST",
        "50f-128t7k1s-64t4k2s-t1",
        "784f-256f-256f-784f-f11",
        &[28, 28],
    )
    .expect("Table V row is well-formed")
}

/// DiscoGAN with 4 domain pairs: the generator holds both S-CONV and
/// T-CONV layers, so five phases use ZFDR.
pub fn discogan_4pairs() -> GanSpec {
    GanSpec::parse(
        "DiscoGAN-4pairs",
        "(3c-64c-128c-256c-512t-256t-128t-64t)(4k2s)-t3",
        "(3c-64c-128c-256c-512c)(4k2s)-f1",
        &[64, 64],
    )
    .expect("Table V row is well-formed")
}

/// DiscoGAN with 5 domain pairs: encoder–bottleneck–decoder generator.
pub fn discogan_5pairs() -> GanSpec {
    GanSpec::parse(
        "DiscoGAN-5pairs",
        "(3c-64c-128c-256c-512c)(4k2s)-100f-(512t-256t-128t-64t)(4k2s)-t3",
        "(3c-64c-128c-256c-512c)(4k2s)-f1",
        &[64, 64],
    )
    .expect("Table V row is well-formed")
}

/// Residual dilated-refiner GAN, 32×32 items — the first extended-grammar
/// benchmark: both networks carry dilated convolutions (`2d`/`4d`) and a
/// residual skip (`+2`), so every backend must lower D-CONV workloads and
/// skip dataflow edges.
pub fn res_dilated_gan() -> GanSpec {
    GanSpec::parse(
        "ResDilatedGAN",
        "100f-(256t-128t)(4k2s)-64c3k1s2d+2-64c3k1s-64c3k1s-t3",
        "3c4k2s-64c3k1s2d+2-64c3k1s-64c3k1s4d-(64c-128c)(4k2s)-f1",
        &[32, 32],
    )
    .expect("extended benchmark row is well-formed")
}

/// Pixel-normalised atrous GAN, 64×64 items — the second extended-grammar
/// benchmark: per-layer norm tags (`pn`, `bn`), an asymmetric `3x5`
/// kernel in the discriminator, and a dilated residual pair in the
/// generator.
pub fn atrous_pixel_gan() -> GanSpec {
    GanSpec::parse(
        "AtrousPixelGAN",
        "100f-(512t-256t-128t)(4k2s)-64c3k1s2dpn+2-64c3k1spn-64c3k1s-t3",
        "3c3x5k1x1s-64c4k2sbn-(64c-128c-256c)(4k2s)-f1",
        &[64, 64],
    )
    .expect("extended benchmark row is well-formed")
}

/// The extended-grammar benchmarks: dilated convolutions, skip edges,
/// normalisation variants and asymmetric kernels. Kept out of [`all`] so
/// the Table V result set stays byte-stable.
pub fn extended() -> Vec<GanSpec> {
    vec![res_dilated_gan(), atrous_pixel_gan()]
}

/// All eight benchmarks in Table V order.
pub fn all() -> Vec<GanSpec> {
    vec![
        dcgan(),
        cgan(),
        threed_gan(),
        artgan_cifar10(),
        gpgan(),
        magan_mnist(),
        discogan_4pairs(),
        discogan_5pairs(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::Phase;

    #[test]
    fn all_eight_parse() {
        let gans = all();
        assert_eq!(gans.len(), 8);
        let names: Vec<&str> = gans.iter().map(|g| g.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "DCGAN",
                "cGAN",
                "3D-GAN",
                "ArtGAN-CIFAR-10",
                "GPGAN",
                "MAGAN-MNIST",
                "DiscoGAN-4pairs",
                "DiscoGAN-5pairs"
            ]
        );
    }

    #[test]
    fn threed_gan_is_volumetric() {
        let g = threed_gan();
        assert_eq!(g.generator.dims, 3);
        assert_eq!(g.item_size, vec![64, 64, 64]);
        // Volumetric MAC counts dwarf the 2-D networks'.
        assert!(
            g.generator.total_forward_macs_dense() > dcgan().generator.total_forward_macs_dense()
        );
    }

    #[test]
    fn discogan_4pairs_uses_zfdr_in_five_phases() {
        // Sec. VI-C: "DiscoGAN-4pairs has 5 phases using ZFDR because its
        // generator has both S-CONV and T-CONV."
        assert_eq!(discogan_4pairs().zfdr_phases().len(), 5);
    }

    #[test]
    fn plain_tconv_gans_use_zfdr_in_four_phases() {
        for g in [dcgan(), cgan(), gpgan(), threed_gan()] {
            assert_eq!(g.zfdr_phases().len(), 4, "{}", g.name);
            let phases = g.zfdr_phases();
            assert!(phases.contains(&Phase::GForward));
            assert!(phases.contains(&Phase::GWeightGrad));
            assert!(phases.contains(&Phase::DBackward));
            assert!(phases.contains(&Phase::DWeightGrad));
        }
    }

    #[test]
    fn magan_discriminator_has_no_zfdr_phases_of_its_own() {
        // "there is no speedup on discriminator of MAGAN-MNIST, because its
        // layers are fully-connected."
        let g = magan_mnist();
        assert!(g.discriminator.is_fully_connected());
        let phases = g.zfdr_phases();
        assert!(!phases.contains(&Phase::DBackward));
        assert!(!phases.contains(&Phase::DWeightGrad));
        // Its generator's T-CONVs still use ZFDR.
        assert!(phases.contains(&Phase::GForward));
    }

    #[test]
    fn generators_end_in_image_channels() {
        for g in all() {
            let last = g.generator.layers.last().unwrap();
            assert!(
                matches!(last.fan_out_channels(), 1 | 3),
                "{} generator ends in {} channels",
                g.name,
                last.fan_out_channels()
            );
        }
    }

    #[test]
    fn discriminators_end_in_logits() {
        for g in all() {
            let last = g.discriminator.layers.last().unwrap();
            assert!(
                matches!(last.fan_out_channels(), 1 | 11),
                "{} discriminator ends in {} outputs",
                g.name,
                last.fan_out_channels()
            );
        }
    }

    #[test]
    fn generator_output_matches_item_size() {
        for g in all().into_iter().chain(extended()) {
            let last = g.generator.layers.last().unwrap();
            assert_eq!(
                last.out_spatial(),
                g.item_size[0],
                "{} generator output extent",
                g.name
            );
        }
    }

    #[test]
    fn extended_benchmarks_exercise_dconv_and_skips() {
        let gans = extended();
        assert_eq!(gans.len(), 2);
        for g in &gans {
            assert!(
                g.generator.has_dconv(),
                "{} generator exercises D-CONV",
                g.name
            );
            assert!(
                !g.generator.skips.is_empty(),
                "{} generator exercises skip edges",
                g.name
            );
        }
        // ResDilatedGAN's discriminator carries its own dilated residual
        // block; AtrousPixelGAN's carries the asymmetric 3×5 kernel.
        assert!(!gans[0].discriminator.skips.is_empty());
        assert!(gans[0].discriminator.has_dconv());
        assert!(gans[1].discriminator.has_dconv());
    }

    #[test]
    fn extended_benchmarks_stay_out_of_table_v() {
        // The Table V result set must remain byte-stable: no dilated
        // convolutions, skip edges or explicit norm tags in `all()`.
        assert_eq!(all().len(), 8);
        for g in all() {
            for net in [&g.generator, &g.discriminator] {
                assert!(!net.has_dconv(), "{}", g.name);
                assert!(net.skips.is_empty(), "{}", g.name);
                assert!(
                    net.norms
                        .iter()
                        .all(|n| matches!(n, crate::layer::Norm::Legacy)),
                    "{}",
                    g.name
                );
            }
        }
    }

    #[test]
    fn extended_benchmarks_produce_workloads_in_every_phase() {
        for g in extended() {
            for phase in Phase::ALL {
                assert!(
                    !g.workloads(phase).is_empty(),
                    "{} lowers no workloads for {phase:?}",
                    g.name
                );
            }
        }
    }
}
