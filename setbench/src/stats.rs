//! Exact order statistics over the benchmark's own nanosecond samples, and
//! the self-time arithmetic of the span tree.

/// Percentile levels the tail is chosen from, lowest first.
const TAIL_LEVELS: [f64; 4] = [0.90, 0.99, 0.999, 0.9999];

/// Samples that must lie beyond a percentile for it to count as the tail.
pub const TAIL_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile of ascending `sorted` samples: the
/// smallest sample with at least `q·n` samples at or below it. Exact — it
/// is always one of the samples. `None` when there are no samples.
pub fn quantile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly above the nearest-rank `q`-quantile's position.
fn beyond(n: usize, q: f64) -> usize {
    let rank = (q * n as f64).ceil() as usize;
    n - rank.clamp(1, n)
}

/// A latency distribution summarized the way the benchmark reports it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Exact median.
    pub p50: u64,
    /// The tail level: the highest of [`TAIL_LEVELS`] with at least
    /// [`TAIL_BEYOND`] samples beyond it (falls back to the median when
    /// even p90 has fewer).
    pub tail_q: f64,
    /// The sample at `tail_q`.
    pub tail: u64,
    /// Samples beyond the tail percentile.
    pub tail_beyond: usize,
}

/// Sorts `samples` and summarizes them; `None` when empty.
pub fn summarize(samples: &mut [u64]) -> Option<Summary> {
    samples.sort_unstable();
    let n = samples.len();
    let p50 = quantile(samples, 0.5)?;
    let tail_q = TAIL_LEVELS
        .iter()
        .rev()
        .copied()
        .find(|&q| beyond(n, q) >= TAIL_BEYOND)
        .unwrap_or(0.5);
    Some(Summary {
        n,
        p50,
        tail_q,
        tail: quantile(samples, tail_q)?,
        tail_beyond: beyond(n, tail_q),
    })
}

impl Summary {
    /// `p99.9`-style label of the tail level.
    pub fn tail_label(&self) -> String {
        format!("p{}", self.tail_q * 100.0)
    }
}

/// Per-window summaries reduced to their medians: a stall that hits one
/// window moves one window's tail, not the reported one.
#[derive(Clone, Debug, PartialEq)]
pub struct Windowed {
    /// Median over windows of the window's p50, ns.
    pub p50: f64,
    /// Median over windows of the window's tail, ns.
    pub tail: f64,
    /// Every window's summary, in window order.
    pub windows: Vec<Summary>,
}

/// Summarizes each non-empty window of samples and takes the medians.
pub fn windowed(windows: &mut [Vec<u64>]) -> Option<Windowed> {
    let windows: Vec<Summary> = windows.iter_mut().filter_map(|w| summarize(w)).collect();
    if windows.is_empty() {
        return None;
    }
    let p50: Vec<f64> = windows.iter().map(|s| s.p50 as f64).collect();
    let tail: Vec<f64> = windows.iter().map(|s| s.tail as f64).collect();
    Some(Windowed {
        p50: median(&p50),
        tail: median(&tail),
        windows,
    })
}

/// Median of floats (mean of the middle pair for even counts); `0.0` when
/// empty.
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

/// One recorded interval of the span tree (times in ns from a common
/// epoch; `parent` indexes the same slice).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Start, ns.
    pub start: u64,
    /// End, ns (`>= start`).
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once;
/// children are clipped to the parent's interval).
pub fn self_times(spans: &[Interval]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut open: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                match open {
                    Some((oa, ob)) if a <= ob => open = Some((oa, ob.max(b))),
                    Some((oa, ob)) => {
                        covered += ob - oa;
                        open = Some((a, b));
                    }
                    None => open = Some((a, b)),
                }
            }
            if let Some((oa, ob)) = open {
                covered += ob - oa;
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_samples() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(quantile(&v, 0.5), Some(5));
        assert_eq!(quantile(&v, 0.9), Some(9));
        assert_eq!(quantile(&v, 0.91), Some(10));
        assert_eq!(quantile(&v, 0.0), Some(1));
        assert_eq!(quantile(&v, 1.0), Some(10));
        assert_eq!(quantile(&[7], 0.99), Some(7));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn tail_is_the_highest_level_with_ten_beyond() {
        // 1000 samples: p99 leaves 10 beyond, p99.9 only 1.
        let mut v: Vec<u64> = (0..1000).rev().collect();
        let s = summarize(&mut v).unwrap();
        assert_eq!((s.n, s.p50), (1000, 499));
        assert_eq!((s.tail_q, s.tail, s.tail_beyond), (0.99, 989, 10));
        assert_eq!(s.tail_label(), "p99");
        // 999 samples: p99 leaves 9, so the tail drops to p90.
        let mut v: Vec<u64> = (0..999).collect();
        let s = summarize(&mut v).unwrap();
        assert_eq!((s.tail_q, s.tail_beyond), (0.9, 99));
        // Too few for p90: the median stands in.
        let mut v: Vec<u64> = (0..20).collect();
        assert_eq!(summarize(&mut v).unwrap().tail_q, 0.5);
        assert_eq!(summarize(&mut []), None);
    }

    #[test]
    fn windowed_takes_medians_of_window_summaries() {
        let mut w = vec![
            (0..100).collect::<Vec<u64>>(),
            (0..100).map(|x| x * 2).collect(),
            (0..100)
                .map(|x| if x == 99 { 1_000_000 } else { x })
                .collect(),
            Vec::new(),
        ];
        let s = windowed(&mut w).unwrap();
        assert_eq!(s.windows.len(), 3);
        assert_eq!((s.p50, s.tail), (49.0, 89.0));
        assert_eq!(s.windows[1].tail, 178);
        assert_eq!(windowed(&mut [Vec::new()]), None);
    }

    #[test]
    fn median_of_floats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    fn iv(start: u64, end: u64, parent: Option<usize>) -> Interval {
        Interval { start, end, parent }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = [
            iv(0, 100, None),     // 0: root
            iv(10, 30, Some(0)),  // 1
            iv(20, 50, Some(0)),  // 2 overlaps 1: union 10..50
            iv(60, 70, Some(0)),  // 3
            iv(25, 28, Some(2)),  // 4: grandchild, not subtracted from root
            iv(90, 120, Some(0)), // 5: clipped to 90..100
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 40 - 10 - 10, 20, 27, 10, 3, 30]
        );
    }

    #[test]
    fn self_times_sum_to_the_root_when_children_nest() {
        let spans = [
            iv(0, 1000, None),
            iv(100, 600, Some(0)),
            iv(150, 400, Some(1)),
            iv(700, 900, Some(0)),
        ];
        let st = self_times(&spans);
        assert_eq!(st.iter().sum::<u64>(), 1000);
        assert_eq!(st, vec![300, 250, 250, 200]);
    }
}
