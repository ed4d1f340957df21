//! Medians and the tail percentile a sample can support.

/// Median of `values` (mean of the middle pair for an even count);
/// `0.0` for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `(0, 1]` of an ascending sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of this ladder that still has at least ten
/// samples beyond it in a sample of `n` — a tail read off fewer is noise.
pub fn supported_tail(n: usize) -> Option<(&'static str, f64)> {
    // (label, percentile, samples beyond it per thousand)
    const LADDER: [(&str, f64, usize); 5] = [
        ("p99.9", 0.999, 1),
        ("p99", 0.99, 10),
        ("p95", 0.95, 50),
        ("p90", 0.90, 100),
        ("p75", 0.75, 250),
    ];
    LADDER
        .into_iter()
        .find(|&(_, _, beyond)| n * beyond / 1000 >= 10)
        .map(|(label, p, _)| (label, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(39), None);
        assert_eq!(supported_tail(40), Some(("p75", 0.75)));
        assert_eq!(supported_tail(100), Some(("p90", 0.90)));
        assert_eq!(supported_tail(199), Some(("p90", 0.90)));
        assert_eq!(supported_tail(200), Some(("p95", 0.95)));
        assert_eq!(supported_tail(1000), Some(("p99", 0.99)));
        assert_eq!(supported_tail(10_000), Some(("p99.9", 0.999)));
    }
}
