//! Order statistics over measured samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values`, interpolated linearly
/// between the two nearest ranks (rank `q·(n−1)`, the numpy default).
/// `None` for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let h = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    Some(sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo]))
}

pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// The rounds to summarise, in round order: every round whose host steal
/// share is at most `limit`, and never fewer than the least-stolen half.
/// An unknown steal share counts as none.
pub fn calm_rounds(steal: &[Option<f64>], limit: f64) -> Vec<usize> {
    let share = |i: usize| steal[i].unwrap_or(0.0);
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| share(a).total_cmp(&share(b)));
    let calm = order.iter().filter(|&&i| share(i) <= limit).count();
    order.truncate(calm.max(steal.len().div_ceil(2)));
    order.sort_unstable();
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_edges() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[4.0], 0.0), Some(4.0));
        assert_eq!(percentile(&[4.0], 0.99), Some(4.0));
        assert_eq!(percentile(&[4.0], 1.0), Some(4.0));
        // Unsorted input; the ends are the extremes.
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(5.0));
        assert_eq!(median(&v), Some(3.0));
        // Even count: the median interpolates the middle pair.
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), Some(2.5));
        // Out-of-range q clamps instead of indexing past the end.
        assert_eq!(percentile(&v, 1.5), Some(5.0));
        assert_eq!(percentile(&v, -1.0), Some(1.0));
        // p99 of 1..=100 sits between the 99th and 100th values.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let p99 = percentile(&hundred, 0.99).unwrap();
        assert!((p99 - 99.01).abs() < 1e-9, "{p99}");
    }

    #[test]
    fn calm_rounds_drop_stolen_ones_but_keep_half() {
        let calm = |s: &[f64]| calm_rounds(&s.iter().map(|&v| Some(v)).collect::<Vec<_>>(), 0.05);
        assert_eq!(calm(&[0.01, 0.2, 0.0, 0.05]), vec![0, 2, 3]);
        assert_eq!(calm(&[0.3, 0.2, 0.1, 0.4]), vec![1, 2]);
        assert_eq!(calm(&[0.3, 0.2, 0.1]), vec![1, 2]);
        assert_eq!(calm_rounds(&[None, Some(0.5)], 0.05), vec![0]);
        assert_eq!(calm(&[]), Vec::<usize>::new());
    }
}
