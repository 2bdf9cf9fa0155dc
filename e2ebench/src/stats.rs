//! Pure accounting: percentiles, time-to-file in slots, deadline misses.
//!
//! Kept free of I/O so the rules every reported number rests on are unit
//! tested (`cargo test --manifest-path e2ebench/Cargo.toml`).

/// Percentiles a timing may report as its tail, highest first.
const TAIL_LEVELS: [f64; 3] = [0.999, 0.99, 0.9];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`q` in `0..=1`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// The 1-based nearest rank of the `q` percentile among `n ≥ 1` samples
/// (the epsilon keeps `0.99 × 1000` from rounding up past 990).
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Percentile of whole-number samples (slot counts) read as grouped data:
/// value `k` stands for the slot interval `[k − ½, k + ½)`, and the
/// percentile is interpolated inside the interval that holds it.  A slot
/// count is a time rounded to whole slots; this reads it back as a time,
/// so a shift in the distribution moves the figure even when the
/// nearest-rank value stays on the same slot.
pub fn grouped_percentile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    let target = q * n as f64;
    let mut i = 0;
    while i < n {
        let k = sorted[i];
        let j = i + sorted[i..].iter().take_while(|&&v| v == k).count();
        if j as f64 >= target {
            return k - 0.5 + (target - i as f64) / (j - i) as f64;
        }
        i = j;
    }
    sorted[n - 1] + 0.5
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Number of samples strictly beyond the nearest-rank `q` percentile.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// A timing summary: median, the highest percentile with at least
/// [`MIN_BEYOND`] samples beyond it, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub count: usize,
    pub p50: f64,
    pub p99: f64,
    /// The highest supported tail level (`None` below 100 samples).
    pub tail_level: Option<f64>,
    pub tail: f64,
}

impl Timing {
    pub fn of(values: &[f64]) -> Timing {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let tail_level = TAIL_LEVELS
            .into_iter()
            .find(|&q| beyond(v.len(), q) >= MIN_BEYOND);
        Timing {
            count: v.len(),
            p50: percentile(&v, 0.5),
            p99: percentile(&v, 0.99),
            tail_level,
            tail: tail_level.map_or(f64::NAN, |q| percentile(&v, q)),
        }
    }

    /// `true` when the p99 has at least [`MIN_BEYOND`] samples beyond it.
    pub fn p99_supported(&self) -> bool {
        self.tail_level.is_some_and(|q| q >= 0.99)
    }
}

/// Time to file in slots, counted inclusively from the slot the station
/// was about to serve when the request was issued.
///
/// Wire outcomes report `request_slot = 0` (the client's session opens at
/// slot 0), so `RetrievalOutcome::latency()` is an absolute slot number
/// there.  The benchmark samples `slots_served()` just before the request
/// instead: that is the first slot the client could have heard.
pub fn ttf_slots(completion_slot: usize, slots_served_before: u64) -> Option<u64> {
    (completion_slot as u64)
        .checked_sub(slots_served_before)
        .map(|d| d + 1)
}

/// Whether a retrieval missed its designed deadline `d^(r)`, `r` being the
/// erasures it observed.  A failure (`ttf == None`) always misses, and so
/// do more erasures than the latency vector covers.
pub fn misses_deadline(ttf: Option<u64>, erasures: usize, latencies: &[u32]) -> bool {
    match (ttf, latencies.get(erasures)) {
        (Some(ttf), Some(&deadline)) => ttf > u64::from(deadline),
        _ => true,
    }
}

/// The best of the rates (units per second) over `parts` equal spans of a
/// time series of `(seconds, cumulative count)` marks, each span running
/// from the first mark at or after its start to the first at or after its
/// end.  Host noise (another guest taking the CPUs) only ever lowers a
/// span's rate, so the best span estimates capacity — the best-of
/// estimator the repository's other throughput figures use.
pub fn best_rate(marks: &[(f64, u64)], parts: usize) -> f64 {
    let (Some(first), Some(last)) = (marks.first(), marks.last()) else {
        return 0.0;
    };
    let span = (last.0 - first.0) / parts as f64;
    let at = |t: f64| marks.iter().find(|m| m.0 >= t - 1e-12).unwrap_or(last);
    let rates: Vec<f64> = (0..parts)
        .filter_map(|i| {
            let a = at(first.0 + span * i as f64);
            let b = at(first.0 + span * (i + 1) as f64);
            (b.0 > a.0).then(|| (b.1 - a.1) as f64 / (b.0 - a.0))
        })
        .collect();
    rates.into_iter().fold(0.0, f64::max)
}

/// Nearest-rank p99 of unsorted values (0 for none).
pub fn p99_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.99)
}

/// Mean of values (0 for none).
pub fn mean_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median of values (0 for none).
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn grouped_percentiles_interpolate_within_a_slot() {
        assert_eq!(grouped_percentile(&[12.0; 4], 0.5), 12.0);
        assert_eq!(grouped_percentile(&[11.0, 12.0, 12.0, 13.0], 0.5), 12.0);
        // Three of four at 12, one at 13: the median sits at 12 + 1/6.
        let v = [12.0, 12.0, 12.0, 13.0];
        assert!((grouped_percentile(&v, 0.5) - (11.5 + 2.0 / 3.0)).abs() < 1e-12);
        assert_eq!(grouped_percentile(&v, 1.0), 13.5);
        assert!(grouped_percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn the_tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 99 samples: not even p90 has ten beyond it (nearest rank 90 → 9).
        let t = Timing::of(&(1..=99).map(f64::from).collect::<Vec<_>>());
        assert_eq!(t.tail_level, None);
        // 100 samples: p90 has exactly ten beyond it; p99 has one.
        let t = Timing::of(&(1..=100).map(f64::from).collect::<Vec<_>>());
        assert_eq!(t.tail_level, Some(0.9));
        assert_eq!(t.tail, 90.0);
        assert!(!t.p99_supported());
        // 1000 samples: p99 has ten beyond it, p99.9 one.
        let t = Timing::of(&(1..=1000).map(f64::from).collect::<Vec<_>>());
        assert_eq!(t.tail_level, Some(0.99));
        assert_eq!(t.p99, 990.0);
        assert!(t.p99_supported());
        assert_eq!(t.count, 1000);
        // 10 000 samples: p99.9 has ten beyond it.
        let t = Timing::of(&(1..=10_000).map(f64::from).collect::<Vec<_>>());
        assert_eq!(t.tail_level, Some(0.999));
        assert_eq!(t.tail, 9990.0);
    }

    #[test]
    fn wire_ttf_slots_come_from_the_sampled_slot_counter() {
        // The station had served slots 0..=99 (slots_served = 100) when the
        // client joined; the file completed in slot 100: one slot.
        assert_eq!(ttf_slots(100, 100), Some(1));
        assert_eq!(ttf_slots(129, 100), Some(30));
        // A completion slot before the sample is impossible on a live
        // station and is reported as no measurement, never a wrap.
        assert_eq!(ttf_slots(99, 100), None);
        // The outcome's own latency() would read 130 for the second case:
        // absolute, because the wire session opens at slot 0.
    }

    #[test]
    fn rates_are_the_best_over_equal_spans() {
        // 100/s, a stalled second, 120/s, 100/s: the stall costs nothing.
        let marks: Vec<(f64, u64)> = vec![(0.0, 0), (1.0, 100), (2.0, 100), (3.0, 220), (4.0, 320)];
        assert_eq!(best_rate(&marks, 4), 120.0);
        assert_eq!(best_rate(&marks, 2), 110.0);
        assert_eq!(best_rate(&marks, 1), 80.0);
        assert_eq!(best_rate(&[], 4), 0.0);
        assert_eq!(best_rate(&[(1.0, 5)], 4), 0.0);
    }

    #[test]
    fn deadline_misses_follow_the_latency_vector() {
        let d = [10, 14, 20];
        assert!(!misses_deadline(Some(10), 0, &d));
        assert!(misses_deadline(Some(11), 0, &d));
        assert!(!misses_deadline(Some(14), 1, &d));
        assert!(!misses_deadline(Some(20), 2, &d));
        assert!(misses_deadline(Some(21), 2, &d));
        // More erasures than the vector covers: a miss even if fast.
        assert!(misses_deadline(Some(1), 3, &d));
        // A failed retrieval misses any deadline.
        assert!(misses_deadline(None, 0, &d));
    }
}
