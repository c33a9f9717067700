//! Small order statistics and interval arithmetic used by the reports.

/// Median of `xs` (mean of the two central values for an even count);
/// `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Arithmetic mean; `NaN` when empty.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The least samples that must lie strictly beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Tail percentile under the reporting rule: the highest whole percentile
/// `p ≤ cap` whose nearest-rank value has at least [`TAIL_SAMPLES`]
/// samples ranked after it. Returns `(p, value)`, or `None` when even the
/// median has fewer than that many samples beyond it.
///
/// A p99 needs 1000 samples; with 300 round times the rule reports p96,
/// and the caller prints the percentile it got next to the sample count.
pub fn tail_percentile(samples: &[f64], cap: u32) -> Option<(u32, f64)> {
    let n = samples.len();
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    (50..=cap.min(99)).rev().find_map(|p| {
        // Nearest rank: the smallest rank r with r/n >= p/100.
        let rank = (p as usize * n).div_ceil(100).max(1);
        (n >= rank && n - rank >= TAIL_SAMPLES).then(|| (p, v[rank - 1]))
    })
}

/// Total length covered by the union of half-open intervals `[start, end)`
/// (any order, any overlap; empty and inverted intervals count as zero).
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals.iter().copied().filter(|&(s, e)| e > s).collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in v {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of a window: the part of `[start, end)` during which none of
/// `busy` (spans from any thread, possibly overlapping) is in flight.
pub fn self_time(window: (u64, u64), busy: &[(u64, u64)]) -> u64 {
    let (ws, we) = window;
    if we <= ws {
        return 0;
    }
    let clipped: Vec<(u64, u64)> = busy.iter().map(|&(s, e)| (s.max(ws), e.min(we))).collect();
    (we - ws) - union_len(&clipped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Rank 990 leaves exactly 10 samples beyond it.
        assert_eq!(tail_percentile(&xs, 99), Some((99, 990.0)));
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        // p99 would be rank 990 with 9 beyond; p98 is rank 980 with 19.
        assert_eq!(tail_percentile(&xs, 99), Some((98, 980.0)));
    }

    #[test]
    fn small_samples_fall_back_to_lower_percentiles() {
        let xs: Vec<f64> = (1..=300).map(f64::from).collect();
        // p96 → rank 288, 12 beyond; p97 → rank 291, 9 beyond.
        assert_eq!(tail_percentile(&xs, 99), Some((96, 288.0)));
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 99), Some((50, 10.0)));
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 99), None);
        assert_eq!(tail_percentile(&[], 99), None);
    }

    #[test]
    fn rule_holds_for_every_sample_count() {
        for n in 20..1500 {
            let xs: Vec<f64> = (0..n).map(|i| f64::from(i as u32)).collect();
            let (p, value) = tail_percentile(&xs, 99).unwrap();
            let beyond = xs.iter().filter(|&&x| x > value).count();
            assert!(beyond >= TAIL_SAMPLES, "n={n}: p{p} has {beyond} beyond");
            if p < 99 {
                // The next percentile up would break the rule.
                let rank = ((p as usize + 1) * n).div_ceil(100);
                assert!(n - rank < TAIL_SAMPLES, "n={n}: p{} was allowed", p + 1);
            }
        }
    }

    #[test]
    fn union_merges_overlaps_across_threads() {
        // Thread A: [0,10) [20,30); thread B: [5,25) [40,50); C nested.
        let spans = [(0, 10), (20, 30), (5, 25), (40, 50), (42, 44)];
        assert_eq!(union_len(&spans), 30 + 10);
        // Touching intervals merge without double counting.
        assert_eq!(union_len(&[(0, 5), (5, 10)]), 10);
        assert_eq!(union_len(&[(7, 7), (9, 3)]), 0);
        assert_eq!(union_len(&[]), 0);
    }

    #[test]
    fn self_time_is_window_minus_busy_union() {
        let spans = [(0, 10), (5, 25), (20, 30), (40, 50)];
        // Window [8, 45): busy covers [8,30) and [40,45) → 27 of 37.
        assert_eq!(self_time((8, 45), &spans), 37 - 27);
        // Spans entirely outside the window do not count.
        assert_eq!(self_time((100, 110), &spans), 10);
        // Fully covered window has no self time.
        assert_eq!(self_time((1, 9), &spans), 0);
    }
}
