//! Exact enumeration of ZFDR reshape classes.
//!
//! An *axis class* is one distinct per-axis alignment pattern together
//! with its reuse count (how many axis positions share it) and whether it
//! is an *interior* pattern (one of the `S′` periodic patterns that repeat
//! while the window stays inside the true-input span). A full reshape
//! class is a `dims`-tuple of axis classes; its kind follows the paper's
//! naming:
//!
//! * **CornerReshape** — every axis boundary (no reuse),
//! * **EdgeReshape** — a mix of boundary and interior axes,
//! * **InsideReshape** — every axis interior (most reuse).

use lergan_tensor::{DconvAxis, TconvGeometry, WconvGeometry};

/// Kind of a reshape class (Sec. IV-A's three cases).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ClassKind {
    /// Convolution on the corner of the input map; never reused.
    Corner,
    /// Convolution on an edge of the input map.
    Edge,
    /// Convolution inside the input map; most heavily reused.
    Inside,
}

impl ClassKind {
    /// All kinds, in Corner/Edge/Inside order.
    pub const ALL: [ClassKind; 3] = [ClassKind::Corner, ClassKind::Edge, ClassKind::Inside];
}

/// One distinct per-axis alignment pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AxisClass {
    /// Kernel offsets (T-CONV) or `∇output` indices (W-CONV-S) that touch
    /// true values.
    pub pattern: Vec<usize>,
    /// Number of axis positions sharing this pattern.
    pub reuse: usize,
    /// Whether this is one of the periodic interior patterns.
    pub interior: bool,
}

/// Aggregate description of one kind of reshape class in `dims`
/// dimensions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KindSummary {
    /// Number of distinct reshape classes of this kind.
    pub classes: u128,
    /// Largest reuse (MMVs sharing one reshaped matrix) among them.
    pub max_reuse: u128,
    /// Total positions (MMVs) covered by this kind.
    pub total_positions: u128,
    /// Sum over the kind's classes of the gathered pattern volume
    /// (`Π_axis |pattern|`) — the per-(in-channel × out-channel) storage of
    /// the kind's reshaped matrices.
    pub pattern_volume: u128,
}

impl KindSummary {
    fn empty() -> Self {
        KindSummary {
            classes: 0,
            max_reuse: 0,
            total_positions: 0,
            pattern_volume: 0,
        }
    }
}

/// The three [`KindSummary`]s of a plan in one dimensionality, as
/// [`ZfdrPlan::kind_summaries`] returns them. A pure function of the plan
/// and `dims`: compute it once per layer and pass it to everything that
/// sizes or times the layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KindSummaries([KindSummary; 3]);

impl KindSummaries {
    /// Summary of one kind.
    pub fn get(&self, kind: ClassKind) -> KindSummary {
        self.0[kind as usize]
    }

    /// `(kind, summary)` pairs in Corner/Edge/Inside order.
    pub fn iter(&self) -> impl Iterator<Item = (ClassKind, KindSummary)> {
        ClassKind::ALL.into_iter().zip(self.0)
    }

    /// MMV cycles to execute one sample with the given per-kind replica
    /// counts: parallel classes run concurrently, so the critical path is
    /// the most-reused class divided by its replication.
    ///
    /// # Panics
    ///
    /// Panics if any replica count is zero.
    pub fn cycles(&self, replicas: &crate::replica::ReplicaPlan) -> u128 {
        self.iter()
            .map(|(k, s)| {
                let r = replicas.for_kind(k) as u128;
                assert!(r > 0, "replica counts must be positive");
                s.max_reuse.div_ceil(r)
            })
            .max()
            .unwrap_or(0)
    }
}

/// The enumerated reshape plan of one zero-inserted convolution axis
/// geometry, composable to any dimensionality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZfdrPlan {
    axis_classes: Vec<AxisClass>,
    /// Axis-class id at each axis position.
    class_of_position: Vec<usize>,
    /// Positions per axis (T-CONV: output extent; W-CONV-S: kernel extent).
    positions: usize,
}

/// Groups the axis positions `0..positions` by their tap pattern,
/// numbering classes in the order they first appear. A geometry has only a
/// handful of distinct patterns, so each position's pattern is compared
/// against the classes found so far and collected only when it is new.
fn dedupe_patterns<P: Iterator<Item = usize>>(
    positions: usize,
    pattern: impl Fn(usize) -> P,
    interior: impl Fn(usize) -> bool,
) -> ZfdrPlan {
    let mut axis_classes: Vec<AxisClass> = Vec::new();
    let mut class_of_position = Vec::with_capacity(positions);
    for pos in 0..positions {
        let known = axis_classes
            .iter()
            .position(|c| c.pattern.iter().copied().eq(pattern(pos)));
        let id = match known {
            Some(id) => id,
            None => {
                axis_classes.push(AxisClass {
                    pattern: pattern(pos).collect(),
                    reuse: 0,
                    interior: false,
                });
                axis_classes.len() - 1
            }
        };
        axis_classes[id].reuse += 1;
        if interior(pos) {
            axis_classes[id].interior = true;
        }
        class_of_position.push(id);
    }
    ZfdrPlan {
        axis_classes,
        class_of_position,
        positions,
    }
}

impl ZfdrPlan {
    /// Enumerates the T-CONV ZFDR plan for a geometry.
    pub fn for_tconv(geom: &TconvGeometry) -> Self {
        // Interior: the window lies fully inside the true-input span
        // [P, P + (I-1)S' + 1).
        let span_start = geom.insertion_pad;
        let span_end = geom.insertion_pad + (geom.input - 1) * geom.converse_stride + 1;
        dedupe_patterns(
            geom.output,
            |oy| geom.axis_taps(oy),
            |oy| oy >= span_start && oy + geom.kernel <= span_end,
        )
    }

    /// Enumerates the D-CONV ZFDR plan for one (symmetric) axis: output
    /// positions grouped by which effective-kernel offsets land on true
    /// taps *and* true (unpadded) input — the kernel-side dual of
    /// [`for_tconv`](ZfdrPlan::for_tconv), per the EcoFlow duality. The
    /// caller composes the axis across both dimensions exactly as for
    /// T-CONV; asymmetric geometries map dense instead.
    pub fn for_dconv(axis: &DconvAxis) -> Self {
        // Interior: the effective window lies fully inside the unpadded
        // input, so every true tap reads a true value.
        let eff = axis.effective_kernel();
        dedupe_patterns(
            axis.output,
            |oy| axis.axis_taps(oy),
            |oy| {
                let start = oy * axis.stride;
                start >= axis.pad && start + eff <= axis.pad + axis.input
            },
        )
    }

    /// Enumerates the W-CONV-S ZFDR plan for a geometry.
    pub fn for_wconv(geom: &WconvGeometry) -> Self {
        let o = geom.forward.output;
        // Interior: every ∇output element lands on a true input.
        dedupe_patterns(
            geom.gradient_extent(),
            |i| geom.axis_taps(i),
            |i| geom.axis_taps(i).count() == o,
        )
    }

    /// The distinct per-axis classes.
    pub fn axis_classes(&self) -> &[AxisClass] {
        &self.axis_classes
    }

    /// Axis-class id of an axis position.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of range.
    pub fn class_at(&self, position: usize) -> usize {
        self.class_of_position[position]
    }

    /// Positions per axis.
    pub fn positions(&self) -> usize {
        self.positions
    }

    /// Number of interior axis classes (the paper's `S′`, when the window
    /// fits inside the input).
    pub fn interior_axis_classes(&self) -> usize {
        self.axis_classes.iter().filter(|c| c.interior).count()
    }

    /// Number of boundary axis classes (the paper's `R₁ + R₂`).
    pub fn boundary_axis_classes(&self) -> usize {
        self.axis_classes.len() - self.interior_axis_classes()
    }

    /// Total distinct reshape classes in `dims` dimensions.
    pub fn distinct_classes(&self, dims: u32) -> u128 {
        (self.axis_classes.len() as u128).pow(dims)
    }

    /// Kind of a `dims`-tuple with `interior_axes` interior components.
    fn kind_of(interior_axes: u32, dims: u32) -> ClassKind {
        if interior_axes == dims {
            ClassKind::Inside
        } else if interior_axes == 0 {
            ClassKind::Corner
        } else {
            ClassKind::Edge
        }
    }

    /// Per-kind aggregates in `dims` dimensions.
    ///
    /// Tuples are not materialised; the summary is composed from per-axis
    /// sums, so volumetric (`dims = 3`) networks cost nothing extra.
    pub fn kind_summaries(&self, dims: u32) -> KindSummaries {
        // Per-axis aggregates split by interior flag.
        let mut groups: [(usize, u128, u128, u128); 2] = [(0, 0, 0, 0); 2];
        // (count, max_reuse, sum_reuse, sum_pattern_len) per group
        for c in &self.axis_classes {
            let g = &mut groups[usize::from(c.interior)];
            g.0 += 1;
            g.1 = g.1.max(c.reuse as u128);
            g.2 += c.reuse as u128;
            g.3 += c.pattern.len() as u128;
        }
        let (bnd, int) = (groups[0], groups[1]);
        let mut out = [KindSummary::empty(); 3];
        // Number of axis arrangements with exactly k interior axes.
        for k in 0..=dims {
            let combos = binomial(dims, k);
            let classes = combos * (int.0 as u128).pow(k) * (bnd.0 as u128).pow(dims - k);
            if classes == 0 {
                continue;
            }
            let max_reuse = int.1.pow(k) * bnd.1.max(1).pow(dims - k);
            let positions = combos * int.2.pow(k) * bnd.2.pow(dims - k);
            let volume = combos * int.3.pow(k) * bnd.3.pow(dims - k);
            let slot = &mut out[Self::kind_of(k, dims) as usize];
            slot.classes += classes;
            slot.max_reuse = slot.max_reuse.max(max_reuse);
            slot.total_positions += positions;
            slot.pattern_volume += volume;
        }
        KindSummaries(out)
    }

    /// Summary of one kind.
    pub fn kind(&self, kind: ClassKind, dims: u32) -> KindSummary {
        self.kind_summaries(dims).get(kind)
    }

    /// Total reshaped-matrix storage (values) in `dims` dimensions for one
    /// (in-channel, out-channel) pair — multiply by `ic × oc` and the
    /// per-kind replicas for the CArray footprint.
    pub fn pattern_volume_total(&self, dims: u32) -> u128 {
        let per_axis: u128 = self
            .axis_classes
            .iter()
            .map(|c| c.pattern.len() as u128)
            .sum();
        per_axis.pow(dims)
    }

    /// Total MMVs per sample (= positions^dims: one per output position).
    pub fn mmvs_per_sample(&self, dims: u32) -> u128 {
        (self.positions as u128).pow(dims)
    }

    /// Visits every `dims`-tuple of axis classes with
    /// `(reuse, gathered_pattern_volume, kind)`.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is not 2 or 3.
    pub fn for_each_tuple(&self, dims: u32, mut f: impl FnMut(u128, u128, ClassKind)) {
        assert!(
            (2..=3).contains(&dims),
            "only 2-D and 3-D networks are supported"
        );
        let n = self.axis_classes.len();
        let kind = |interior_axes: u32| ZfdrPlan::kind_of(interior_axes, dims);
        for a in 0..n {
            let ca = &self.axis_classes[a];
            for b in 0..n {
                let cb = &self.axis_classes[b];
                if dims == 2 {
                    let reuse = (ca.reuse * cb.reuse) as u128;
                    let vol = (ca.pattern.len() * cb.pattern.len()) as u128;
                    f(
                        reuse,
                        vol,
                        kind(u32::from(ca.interior) + u32::from(cb.interior)),
                    );
                } else {
                    for cc in &self.axis_classes {
                        let reuse = (ca.reuse * cb.reuse * cc.reuse) as u128;
                        let vol = (ca.pattern.len() * cb.pattern.len() * cc.pattern.len()) as u128;
                        f(
                            reuse,
                            vol,
                            kind(
                                u32::from(ca.interior)
                                    + u32::from(cb.interior)
                                    + u32::from(cc.interior),
                            ),
                        );
                    }
                }
            }
        }
    }
}

fn binomial(n: u32, k: u32) -> u128 {
    if k > n {
        return 0;
    }
    let mut r: u128 = 1;
    for i in 0..k {
        r = r * (n - i) as u128 / (i + 1) as u128;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::ReplicaPlan;
    use lergan_tensor::TconvGeometry;
    use std::collections::HashMap;

    /// The original grouping: each position's pattern cloned into a
    /// hashed map from pattern to class id.
    fn dedupe_patterns_reference(
        patterns: Vec<Vec<usize>>,
        interior_positions: &[bool],
    ) -> ZfdrPlan {
        let positions = patterns.len();
        let mut ids: HashMap<Vec<usize>, usize> = HashMap::new();
        let mut axis_classes: Vec<AxisClass> = Vec::new();
        let mut class_of_position = Vec::with_capacity(positions);
        for (pos, p) in patterns.into_iter().enumerate() {
            let id = *ids.entry(p.clone()).or_insert_with(|| {
                axis_classes.push(AxisClass {
                    pattern: p,
                    reuse: 0,
                    interior: false,
                });
                axis_classes.len() - 1
            });
            axis_classes[id].reuse += 1;
            if interior_positions[pos] {
                axis_classes[id].interior = true;
            }
            class_of_position.push(id);
        }
        ZfdrPlan {
            axis_classes,
            class_of_position,
            positions,
        }
    }

    #[test]
    fn plans_match_the_hashed_grouping() {
        // Repeated, interleaved and empty patterns; interior flags set on
        // some but not all positions of a class.
        let patterns: Vec<Vec<usize>> = vec![
            vec![0, 2],
            vec![1],
            vec![0, 2],
            vec![],
            vec![1],
            vec![0, 2],
            vec![],
            vec![1, 2],
        ];
        let interior = [false, true, true, false, false, false, false, true];
        assert_eq!(
            dedupe_patterns(
                patterns.len(),
                |p| patterns[p].iter().copied(),
                |p| interior[p]
            ),
            dedupe_patterns_reference(patterns, &interior)
        );
        // Every T-CONV, W-CONV-S and D-CONV plan over small geometries,
        // against the original builders: all patterns collected first,
        // interior flags computed from them, then the hashed grouping.
        for input in 1..8 {
            for stride in 1..4 {
                for kernel in 1..6 {
                    for output in input..=input * stride + kernel {
                        let Some(g) = (0..kernel)
                            .find_map(|p| TconvGeometry::new(input, output, kernel, stride, p))
                        else {
                            continue;
                        };
                        let patterns: Vec<Vec<usize>> =
                            (0..g.output).map(|oy| g.axis_pattern(oy)).collect();
                        let span_end = g.insertion_pad + (g.input - 1) * g.converse_stride + 1;
                        let interior: Vec<bool> = (0..g.output)
                            .map(|oy| oy >= g.insertion_pad && oy + g.kernel <= span_end)
                            .collect();
                        assert_eq!(
                            ZfdrPlan::for_tconv(&g),
                            dedupe_patterns_reference(patterns, &interior)
                        );
                    }
                    for pad in 0..kernel {
                        if let Some(g) = WconvGeometry::new(input, kernel, stride, pad) {
                            let patterns: Vec<Vec<usize>> = (0..g.gradient_extent())
                                .map(|i| g.axis_pattern(i))
                                .collect();
                            let interior: Vec<bool> = patterns
                                .iter()
                                .map(|p| p.len() == g.forward.output)
                                .collect();
                            assert_eq!(
                                ZfdrPlan::for_wconv(&g),
                                dedupe_patterns_reference(patterns, &interior)
                            );
                        }
                        for dilation in 1..4 {
                            let Some(a) = DconvAxis::new(input, kernel, stride, dilation, pad)
                            else {
                                continue;
                            };
                            let patterns: Vec<Vec<usize>> =
                                (0..a.output).map(|o| a.axis_pattern(o)).collect();
                            let eff = a.effective_kernel();
                            let interior: Vec<bool> = (0..a.output)
                                .map(|o| {
                                    let start = o * a.stride;
                                    start >= a.pad && start + eff <= a.pad + a.input
                                })
                                .collect();
                            assert_eq!(
                                ZfdrPlan::for_dconv(&a),
                                dedupe_patterns_reference(patterns, &interior)
                            );
                        }
                    }
                }
            }
        }
    }

    fn conv1_plan() -> ZfdrPlan {
        ZfdrPlan::for_tconv(&TconvGeometry::for_upsampling(4, 5, 2).unwrap())
    }

    #[test]
    fn conv1_has_25_reshaped_matrices() {
        // Sec. IV-A: "we store 25 kinds of reshaped weight matrix".
        let plan = conv1_plan();
        assert_eq!(plan.axis_classes().len(), 5);
        assert_eq!(plan.distinct_classes(2), 25);
    }

    #[test]
    fn conv1_kind_counts_match_paper() {
        // Corner 9 (non-reusable), Edge 12, Inside 4 (= S'^2).
        let plan = conv1_plan();
        assert_eq!(plan.kind(ClassKind::Corner, 2).classes, 9);
        assert_eq!(plan.kind(ClassKind::Edge, 2).classes, 12);
        assert_eq!(plan.kind(ClassKind::Inside, 2).classes, 4);
        assert_eq!(plan.interior_axis_classes(), 2); // S' = 2
        assert_eq!(plan.boundary_axis_classes(), 3); // R1 + R2 = 3
    }

    #[test]
    fn conv1_inside_reuse_is_the_paper_t_set() {
        // t ∈ {4, 9, 6}: axis reuses {2, 3} composed two ways.
        let plan = conv1_plan();
        let interior: Vec<usize> = plan
            .axis_classes()
            .iter()
            .filter(|c| c.interior)
            .map(|c| c.reuse)
            .collect();
        let mut sorted = interior.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![2, 3]);
        assert_eq!(plan.kind(ClassKind::Inside, 2).max_reuse, 9);
        assert_eq!(plan.kind(ClassKind::Corner, 2).max_reuse, 1);
    }

    #[test]
    fn conv1_completes_in_9_cycles_without_duplication() {
        // "it only needs 9 cycles (one MMV uses one cycle)".
        let plan = conv1_plan();
        assert_eq!(plan.kind_summaries(2).cycles(&ReplicaPlan::unity()), 9);
    }

    #[test]
    fn conv1_storage_matches_75_percent_claim() {
        // ZFDR stores Σ|p| squared = 100 kernel positions per channel pair,
        // vs 25 for the plain kernel; the paper's 7-copy duplication
        // alternative stores 175 — "75% more storage".
        let plan = conv1_plan();
        assert_eq!(plan.pattern_volume_total(2), 100);
        let duplicated = 7 * 25;
        assert!((duplicated as f64 / 100.0 - 1.75).abs() < 1e-12);
    }

    #[test]
    fn positions_partition_across_kinds() {
        for (i, w, s) in [(4, 5, 2), (8, 4, 2), (16, 4, 2), (5, 5, 3), (7, 3, 2)] {
            let geom = TconvGeometry::for_upsampling(i, w, s).unwrap();
            let plan = ZfdrPlan::for_tconv(&geom);
            let total: u128 = ClassKind::ALL
                .into_iter()
                .map(|k| plan.kind(k, 2).total_positions)
                .sum();
            assert_eq!(total, (geom.output as u128).pow(2), "({i},{w},{s})");
            assert_eq!(plan.mmvs_per_sample(2), (geom.output as u128).pow(2));
        }
    }

    #[test]
    fn pattern_volume_equals_kind_sum() {
        let plan = conv1_plan();
        let by_kind: u128 = ClassKind::ALL
            .into_iter()
            .map(|k| plan.kind(k, 2).pattern_volume)
            .sum();
        assert_eq!(by_kind, plan.pattern_volume_total(2));
    }

    #[test]
    fn volumetric_composition_cubes() {
        let geom = TconvGeometry::for_upsampling(4, 4, 2).unwrap();
        let plan = ZfdrPlan::for_tconv(&geom);
        let n = plan.axis_classes().len() as u128;
        assert_eq!(plan.distinct_classes(3), n.pow(3));
        let total: u128 = ClassKind::ALL
            .into_iter()
            .map(|k| plan.kind(k, 3).total_positions)
            .sum();
        assert_eq!(total, (geom.output as u128).pow(3));
    }

    #[test]
    fn wconv_plan_has_single_inside_class() {
        // Case 3 of W-CONV-S ZFDR: "only one zero-insertion ∇output ...
        // reused [I-(O-1)S]^2 times".
        let geom = lergan_tensor::WconvGeometry::new(8, 5, 2, 2).unwrap();
        let plan = ZfdrPlan::for_wconv(&geom);
        assert_eq!(plan.interior_axis_classes(), 1);
        let f = geom.forward;
        let expected = (f.input - (f.output - 1) * f.stride) as u128;
        assert_eq!(
            plan.kind(ClassKind::Inside, 2).max_reuse,
            expected * expected
        );
        assert_eq!(plan.kind(ClassKind::Inside, 2).classes, 1);
    }

    #[test]
    fn replication_reduces_cycles() {
        let plan = conv1_plan();
        let summaries = plan.kind_summaries(2);
        let unity = summaries.cycles(&ReplicaPlan::unity());
        let tripled = summaries.cycles(&ReplicaPlan {
            corner: 1,
            edge: 3,
            inside: 3,
        });
        assert!(tripled < unity);
        assert_eq!(tripled, 3); // ceil(9/3)
    }
}
