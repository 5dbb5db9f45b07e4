//! Labelled accumulation helpers for latency/energy breakdowns.

use crate::engine::Label;
use std::collections::BTreeMap;
use std::fmt;

/// A labelled breakdown of a scalar quantity (energy, time, traffic).
///
/// Backed by a `BTreeMap` keyed by [`Label`], so iteration order — and
/// therefore printed output — is deterministic (the labels' string order),
/// and a fixed label is stored borrowed: [`add_label`](Self::add_label)
/// with a `Cow::Borrowed` label never allocates. A borrowed and an owned
/// label with the same text are one bucket.
///
/// Every bucket starts at `0.0 + value` and sums its values in call order,
/// whichever of [`add`](Self::add) and [`add_label`](Self::add_label)
/// delivered them.
///
/// # Example
///
/// ```
/// use lergan_sim::Breakdown;
/// let mut b = Breakdown::new();
/// b.add("compute", 70.0);
/// b.add("communication", 16.0);
/// b.add("other", 14.0);
/// assert!((b.share("compute") - 0.7).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Breakdown {
    parts: BTreeMap<Label, f64>,
}

impl Breakdown {
    /// Creates an empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `value` to the bucket `label`. Only a new bucket allocates
    /// its key; it starts at `0.0 + value`, so a first `-0.0` stores `+0.0`.
    pub fn add(&mut self, label: &str, value: f64) {
        match self.parts.get_mut(label) {
            Some(sum) => *sum += value,
            None => {
                self.parts
                    .insert(Label::Owned(label.to_string()), 0.0 + value);
            }
        }
    }

    /// [`add`](Self::add) with a [`Label`]: a new bucket keeps a clone of
    /// `label`, which for a borrowed label allocates nothing.
    pub fn add_label(&mut self, label: &Label, value: f64) {
        match self.parts.get_mut(label.as_ref()) {
            Some(sum) => *sum += value,
            None => {
                self.parts.insert(label.clone(), 0.0 + value);
            }
        }
    }

    /// Every bucket multiplied by `s`, the keys kept. Each bucket becomes
    /// `0.0 + value * s` — what adding each product into an empty
    /// breakdown stores, so a `-0.0` product stores `+0.0`.
    pub fn scaled(mut self, s: f64) -> Self {
        for v in self.parts.values_mut() {
            *v = 0.0 + *v * s;
        }
        self
    }

    /// Value of one bucket (0 if absent).
    pub fn get(&self, label: &str) -> f64 {
        self.parts.get(label).copied().unwrap_or(0.0)
    }

    /// Sum over all buckets, in key order.
    pub fn total(&self) -> f64 {
        self.parts.values().sum()
    }

    /// Fraction a bucket contributes (0 if the total is 0).
    pub fn share(&self, label: &str) -> f64 {
        let t = self.total();
        if t == 0.0 {
            0.0
        } else {
            self.get(label) / t
        }
    }

    /// Merges another breakdown into this one, bucket by bucket in key
    /// order.
    pub fn merge(&mut self, other: &Breakdown) {
        for (k, v) in &other.parts {
            self.add_label(k, *v);
        }
    }

    /// Iterates `(label, value)` in deterministic (key) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.parts.iter().map(|(k, &v)| (k.as_ref(), v))
    }

    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// Whether there are no buckets.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }
}

impl fmt::Display for Breakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total();
        for (k, v) in &self.parts {
            let pct = if total > 0.0 { v / total * 100.0 } else { 0.0 };
            writeln!(f, "{k:<24} {v:>14.2} ({pct:5.2}%)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_share() {
        let mut b = Breakdown::new();
        b.add("a", 3.0);
        b.add("a", 1.0);
        b.add("b", 6.0);
        assert_eq!(b.get("a"), 4.0);
        assert_eq!(b.total(), 10.0);
        assert!((b.share("a") - 0.4).abs() < 1e-12);
        assert_eq!(b.share("missing"), 0.0);
    }

    #[test]
    fn add_starts_at_positive_zero_and_sums_in_call_order() {
        let mut b = Breakdown::new();
        b.add("z", -0.0);
        assert_eq!(b.get("z").to_bits(), 0.0f64.to_bits());
        // (0.1 + 0.2) + 0.3 and 0.1 + (0.2 + 0.3) differ in the last bit.
        for v in [0.1, 0.2, 0.3] {
            b.add("s", v);
        }
        assert_eq!(
            b.get("s").to_bits(),
            (((0.0 + 0.1) + 0.2) + 0.3f64).to_bits()
        );
        assert_ne!(b.get("s").to_bits(), (0.1 + (0.2 + 0.3f64)).to_bits());
    }

    #[test]
    fn borrowed_and_owned_labels_share_a_bucket_in_key_order() {
        let mut b = Breakdown::new();
        b.add_label(&Label::Borrowed("m"), 0.1);
        b.add_label(&Label::Owned("m".to_string()), 0.2);
        b.add("m", 0.3);
        b.add_label(&Label::Owned("a".to_string()), 1.0);
        b.add_label(&Label::Borrowed("z"), 2.0);
        assert_eq!(b.len(), 3);
        assert_eq!(
            b.get("m").to_bits(),
            (((0.0 + 0.1) + 0.2) + 0.3f64).to_bits()
        );
        let keys: Vec<&str> = b.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["a", "m", "z"]);
        // Equality and totals go in key order too, whichever way a bucket
        // was keyed.
        let mut owned = Breakdown::new();
        for (k, v) in b.iter() {
            owned.add(k, v);
        }
        assert_eq!(owned, b);
        assert_eq!(owned.total().to_bits(), b.total().to_bits());
    }

    #[test]
    fn scaled_matches_the_bucket_by_bucket_rebuild() {
        let mut b = Breakdown::new();
        b.add("a", 0.1);
        b.add("a", 0.2);
        b.add("neg", -3.7);
        b.add_label(&Label::Borrowed("tiny"), f64::MIN_POSITIVE);
        b.add("zero", 1.0);
        b.add("zero", -1.0);
        // `add` never stores -0.0, but a bucket holding it must scale as
        // the rebuild did: `-0.0 * s` re-added from empty is +0.0.
        b.parts.insert(Label::Borrowed("minus zero"), -0.0);
        let bits = |x: &Breakdown| -> Vec<(String, u64)> {
            x.iter()
                .map(|(k, v)| (k.to_string(), v.to_bits()))
                .collect()
        };
        for s in [10.0, 1.0, 0.5, 3.0, 1e-300] {
            let mut rebuilt = Breakdown::new();
            for (k, v) in b.iter() {
                rebuilt.add(k, v * s);
            }
            let scaled = b.clone().scaled(s);
            assert_eq!(bits(&scaled), bits(&rebuilt));
            assert_eq!(scaled.get("minus zero").to_bits(), 0.0f64.to_bits());
        }
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Breakdown::new();
        a.add("x", 1.0);
        let mut b = Breakdown::new();
        b.add("x", 2.0);
        b.add("y", 3.0);
        a.merge(&b);
        assert_eq!(a.get("x"), 3.0);
        assert_eq!(a.get("y"), 3.0);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn empty_breakdown_is_harmless() {
        let b = Breakdown::new();
        assert!(b.is_empty());
        assert_eq!(b.total(), 0.0);
        assert_eq!(b.share("anything"), 0.0);
    }

    #[test]
    fn display_lists_buckets() {
        let mut b = Breakdown::new();
        b.add("compute", 70.0);
        let s = b.to_string();
        assert!(s.contains("compute"));
        assert!(s.contains("100.00%"));
    }
}
