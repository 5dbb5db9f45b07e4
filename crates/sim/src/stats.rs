//! Labelled accumulation helpers for latency/energy breakdowns.

use std::collections::BTreeMap;
use std::fmt;

/// A labelled breakdown of a scalar quantity (energy, time, traffic).
///
/// Backed by a `BTreeMap` so iteration order — and therefore printed
/// output — is deterministic.
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
    parts: BTreeMap<String, f64>,
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
                self.parts.insert(label.to_string(), 0.0 + value);
            }
        }
    }

    /// Value of one bucket (0 if absent).
    pub fn get(&self, label: &str) -> f64 {
        self.parts.get(label).copied().unwrap_or(0.0)
    }

    /// Sum over all buckets.
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

    /// Merges another breakdown into this one.
    pub fn merge(&mut self, other: &Breakdown) {
        for (k, v) in &other.parts {
            self.add(k, *v);
        }
    }

    /// Iterates `(label, value)` in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.parts.iter().map(|(k, &v)| (k.as_str(), v))
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
