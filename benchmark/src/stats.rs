//! Order statistics shared by the runner and `compare`.

/// The three quartiles of `values`, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive` method),
/// so the numbers here match any external check of the same runs. A
/// single value is its own quartiles. Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld == 1 {
        return [data[0]; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// The median (middle quartile) of `values`.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// The median of each column of `rows`. Panics on an empty slice.
pub fn column_medians<const N: usize>(rows: &[[f64; N]]) -> [f64; N] {
    std::array::from_fn(|i| median(&rows.iter().map(|r| r[i]).collect::<Vec<_>>()))
}

/// Nearest-rank percentile (`q` in (0, 1]) of `values`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let rank = ((q * data.len() as f64).ceil() as usize).clamp(1, data.len());
    data[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[5.0], 0.99), 5.0);
    }
}
