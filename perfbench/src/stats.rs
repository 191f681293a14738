//! Order statistics.

/// Exact quantile of an ascending-sorted slice: the smallest element whose
/// rank covers `q` of the mass — the same rule as the `mosc-bench` loadgen
/// and batch binaries, whose helper is private to them.
pub fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Sorts `values` ascending and returns its `q`-quantile.
pub fn quantile(mut values: Vec<f64>, q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    exact_quantile(&values, q)
}

/// The median as `statistics.median` defines it: the mean of the two middle
/// values for an even count.
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// First and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` gives them (the default "exclusive" method), which is how a run's
/// spread is judged.
pub fn quartiles(mut values: Vec<f64>) -> (f64, f64) {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n < 2 {
        let v = values.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let at = |i: usize| {
        // statistics.quantiles, method="exclusive": m = n + 1.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(v.clone()), (2.75, 8.25));
        assert_eq!(median(v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(vec![3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn exact_quantile_uses_ceil_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(exact_quantile(&v, 0.99), 990.0);
        assert_eq!(exact_quantile(&v, 0.5), 500.0);
    }
}
