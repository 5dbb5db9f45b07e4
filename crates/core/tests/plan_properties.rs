//! Property tests for the ZFDR plan algebra and the replica machinery.

use lergan_core::replica::{plan_for_degree, ReplicaDegree, ReplicaPlan};
use lergan_core::zfdr::closed_form;
use lergan_core::zfdr::plan::{ClassKind, ZfdrPlan};
use lergan_reram::ReramConfig;
use lergan_tensor::{TconvGeometry, WconvGeometry};
use proptest::prelude::*;

fn tconv_geom() -> impl Strategy<Value = TconvGeometry> {
    (2usize..12, 2usize..7, 2usize..4).prop_filter_map("valid geometry", |(i, w, s)| {
        if w < s {
            return None; // degenerate: output holes
        }
        TconvGeometry::for_upsampling(i, w, s)
    })
}

fn wconv_geom() -> impl Strategy<Value = WconvGeometry> {
    (4usize..20, 2usize..6, 1usize..4, 0usize..3)
        .prop_filter_map("valid geometry", |(i, w, s, p)| {
            WconvGeometry::new(i, w, s, p)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn positions_partition_in_2d_and_3d(geom in tconv_geom()) {
        let plan = ZfdrPlan::for_tconv(&geom);
        for dims in [2u32, 3] {
            let total: u128 = ClassKind::ALL
                .into_iter()
                .map(|k| plan.kind(k, dims).total_positions)
                .sum();
            prop_assert_eq!(total, (geom.output as u128).pow(dims));
        }
    }

    #[test]
    fn tuple_iteration_agrees_with_summaries(geom in tconv_geom()) {
        let plan = ZfdrPlan::for_tconv(&geom);
        for dims in [2u32, 3] {
            let mut classes = 0u128;
            let mut positions = 0u128;
            let mut volume = 0u128;
            plan.for_each_tuple(dims, |reuse, vol, _| {
                classes += 1;
                positions += reuse;
                volume += vol;
            });
            prop_assert_eq!(classes, plan.distinct_classes(dims));
            prop_assert_eq!(positions, (geom.output as u128).pow(dims));
            prop_assert_eq!(volume, plan.pattern_volume_total(dims));
        }
    }

    #[test]
    fn corner_classes_are_never_reused(geom in tconv_geom()) {
        let plan = ZfdrPlan::for_tconv(&geom);
        let corner = plan.kind(ClassKind::Corner, 2);
        // "each kind of [corner] weights is non-reusable": with the paper's
        // padding regime — and enough interior windows to exhibit all S'
        // periodic patterns — every corner tuple covers exactly one
        // position.
        let s = geom.converse_stride;
        let interior_windows =
            ((geom.input - 1) * s + 2).saturating_sub(geom.kernel);
        if geom.insertion_pad >= s - 1 && interior_windows >= s && corner.classes > 0 {
            prop_assert_eq!(corner.max_reuse, 1);
            prop_assert_eq!(corner.total_positions, corner.classes);
        }
    }

    #[test]
    fn closed_form_matches_enumeration_in_its_regime(geom in tconv_geom()) {
        // Eq. 11-13 hold in the regime the paper targets (P >= S'-1 and a
        // window that fits the interior span).
        let s = geom.converse_stride;
        prop_assume!(geom.insertion_pad >= s - 1);
        let interior_span = (geom.input - 1) * s + 1;
        prop_assume!(geom.kernel <= interior_span);
        // All S' periodic patterns must actually occur in the interior.
        prop_assume!(interior_span + 1 - geom.kernel >= s);
        let plan = ZfdrPlan::for_tconv(&geom);
        let cases = closed_form::tconv_cases(&geom);
        prop_assert_eq!(plan.kind(ClassKind::Inside, 2).classes as usize, cases.inside);
        prop_assert_eq!(plan.kind(ClassKind::Corner, 2).classes as usize, cases.corner);
        prop_assert_eq!(plan.kind(ClassKind::Edge, 2).classes as usize, cases.edge);
        prop_assert_eq!(
            plan.axis_classes().len(),
            closed_form::r1(&geom) + closed_form::r2(&geom) + s
        );
    }

    #[test]
    fn interior_reuse_in_the_paper_bracket(geom in tconv_geom()) {
        prop_assume!(geom.insertion_pad >= geom.converse_stride - 1);
        prop_assume!(geom.kernel <= (geom.input - 1) * geom.converse_stride + 1);
        let floor = closed_form::interior_reuse_floor(&geom);
        let plan = ZfdrPlan::for_tconv(&geom);
        for c in plan.axis_classes().iter().filter(|c| c.interior) {
            prop_assert!(c.reuse == floor || c.reuse == floor + 1,
                "interior reuse {} not in {{{floor},{}}}", c.reuse, floor + 1);
        }
    }

    #[test]
    fn wconv_inside_is_unique_and_reuse_matches(geom in wconv_geom()) {
        let plan = ZfdrPlan::for_wconv(&geom);
        let inside = plan.kind(ClassKind::Inside, 2);
        prop_assert!(inside.classes <= 1);
        // The paper's reuse formula assumes its regime: remainder within
        // the padding (otherwise trailing zeros truncate the interior).
        let f = geom.forward;
        if inside.classes == 1 && f.remainder <= f.pad {
            // Clamped to the gradient extent (padless geometries can make
            // every position interior).
            let r = closed_form::wconv_inside_reuse(&geom)
                .min(geom.gradient_extent()) as u128;
            prop_assert_eq!(inside.max_reuse, r * r);
        }
    }

    #[test]
    fn storage_monotone_and_cycles_antitone_in_replicas(geom in tconv_geom(), r in 1usize..6) {
        let summaries = ZfdrPlan::for_tconv(&geom).kind_summaries(2);
        let base = ReplicaPlan::unity();
        let more = ReplicaPlan { corner: 1, edge: r, inside: r + 1 };
        prop_assert!(more.storage_values(&summaries, 100) >= base.storage_values(&summaries, 100));
        prop_assert!(summaries.cycles(&more) <= summaries.cycles(&base));
    }

    #[test]
    fn degree_presets_are_ordered(geom in tconv_geom()) {
        let plan = ZfdrPlan::for_tconv(&geom);
        let summaries = plan.kind_summaries(2);
        let cfg = ReramConfig::default();
        let mut prev_cycles = u128::MAX;
        let mut prev_storage = 0u128;
        for degree in [
            ReplicaDegree::NoDuplication,
            ReplicaDegree::Low,
            ReplicaDegree::Middle,
            ReplicaDegree::High,
        ] {
            let rp = plan_for_degree(degree, &plan, &summaries, 1000, &cfg, 15.0);
            let cycles = summaries.cycles(&rp);
            let storage = rp.storage_values(&summaries, 1000);
            prop_assert!(cycles <= prev_cycles, "{degree:?} regressed cycles");
            prop_assert!(storage >= prev_storage, "{degree:?} regressed storage");
            prev_cycles = cycles;
            prev_storage = storage;
        }
    }

    #[test]
    fn cycles_never_exceed_positions(geom in tconv_geom()) {
        // The whole point of ZFDR: parallel classes finish in at most as
        // many cycles as there are output positions (the NR serial bound).
        let plan = ZfdrPlan::for_tconv(&geom);
        let cycles = plan.kind_summaries(2).cycles(&ReplicaPlan::unity());
        prop_assert!(cycles <= (geom.output as u128).pow(2));
        prop_assert!(cycles >= 1);
    }
}
