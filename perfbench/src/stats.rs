//! Order statistics used by the metrics.

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `q` of the samples at or below it. `None` when empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    // The epsilon keeps q = k / n at rank k despite rounding in q * n.
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Median (nearest-rank 50th percentile of the sorted samples; for an
/// even count, the mean of the two middle values).
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The tail: the highest nearest-rank percentile that still has at least
/// ten samples above it, i.e. the `(n - 10)`-th smallest value. Below
/// eleven samples no percentile has ten beyond it and the slowest sample
/// (the maximum) is reported instead.
pub fn tail(values: &[f64]) -> Option<f64> {
    const BEYOND: usize = 10;
    let s = sorted(values);
    match s.len() {
        0 => None,
        n if n <= BEYOND => Some(s[n - 1]),
        n => nearest_rank(&s, (n - BEYOND) as f64 / n as f64),
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(nearest_rank(&xs, 0.25), Some(10.0));
        assert_eq!(nearest_rank(&xs, 0.26), Some(20.0));
        assert_eq!(nearest_rank(&xs, 0.50), Some(20.0));
        assert_eq!(nearest_rank(&xs, 0.99), Some(40.0));
        assert_eq!(nearest_rank(&xs, 1.0), Some(40.0));
        assert_eq!(nearest_rank(&xs, 0.0), Some(10.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        // 1..=40: the 30th value has exactly ten beyond it (p75).
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&xs), Some(30.0));
        assert_eq!(tail(&xs), nearest_rank(&xs, 0.75));
        let beyond = xs.iter().filter(|&&x| x > 30.0).count();
        assert_eq!(beyond, 10);
        // 1..=45 (shuffled): the 35th value (p77.8).
        let mut ys: Vec<f64> = (1..=45).map(f64::from).collect();
        ys.reverse();
        assert_eq!(tail(&ys), Some(35.0));
        // Eleven samples: the smallest is the only one with ten beyond.
        let zs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&zs), Some(1.0));
    }

    #[test]
    fn tail_of_a_short_list_is_its_maximum() {
        assert_eq!(tail(&[5.0, 9.0, 7.0]), Some(9.0));
        assert_eq!(
            tail(&(1..=10).map(f64::from).collect::<Vec<_>>()),
            Some(10.0)
        );
        assert_eq!(tail(&[]), None);
    }
}
