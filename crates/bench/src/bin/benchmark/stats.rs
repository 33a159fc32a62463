//! Order statistics and span arithmetic shared by the load phase and the
//! traced replay.

use std::collections::BTreeMap;

/// Samples a percentile must leave beyond it before the benchmark
/// reports it: a tail read off fewer than ten samples is one slow
/// request, not a distribution.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank quantile of an ascending slice: the smallest sample with
/// at least a `q` share of the samples at or below it. `None` when empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    sorted.get(rank(sorted.len(), q) - 1).copied()
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] of them strictly
/// above the `q`-quantile's rank.
pub fn supports(n: usize, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= MIN_BEYOND
}

/// Median of unsorted values (nearest rank, so always an observed value).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, 0.5)
}

/// One timed request of a load phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Send time, nanoseconds from the window's start.
    pub start_ns: u64,
    /// Send to decoded reply.
    pub latency_ns: u64,
    /// Questions the request carried.
    pub questions: usize,
}

/// Requests per group of the `p90_ms` estimate: the fewest that leave
/// [`MIN_BEYOND`] samples beyond a 90th percentile.
pub const TAIL_GROUP: usize = 100;

/// Throughput and latency of a load phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Questions answered per second.
    pub qps: f64,
    /// Median request latency, ms.
    pub p50_ms: f64,
    /// 90th-percentile request latency, ms: the median over consecutive
    /// groups of [`TAIL_GROUP`] requests of each group's 90th percentile;
    /// 0 with fewer than one group.
    pub p90_ms: f64,
}

/// Questions answered per second from the window's start to the last
/// answer, the nearest-rank median latency over every request, and the
/// grouped 90th percentile of [`Summary::p90_ms`].
///
/// The host delays requests in bursts shorter than a second (a shared
/// core's neighbour, timer wake-ups). Over the whole window such bursts
/// decide the 90th percentile whenever they hold a tenth of the requests.
/// Per group of 100 consecutive requests, a burst only moves the groups
/// it falls in, and the median over groups keeps the latency of the
/// window's typical stretch. In thirteen 20 s `ask_hot` runs of one
/// build, the whole-window p90 ranged over 2.40–2.66 ms and the grouped
/// one over 2.37–2.46 ms.
pub fn summarize(samples: &[Sample]) -> Summary {
    let end_ns = samples
        .iter()
        .map(|s| s.start_ns + s.latency_ns)
        .max()
        .unwrap_or(0);
    let questions: usize = samples.iter().map(|s| s.questions).sum();
    let ms = |s: &Sample| s.latency_ns as f64 / 1e6;
    let mut lat: Vec<f64> = samples.iter().map(ms).collect();
    lat.sort_by(f64::total_cmp);
    let mut by_start = samples.to_vec();
    by_start.sort_by_key(|s| s.start_ns);
    let group_p90: Vec<f64> = by_start
        .chunks_exact(TAIL_GROUP)
        .filter_map(|group| {
            let mut g: Vec<f64> = group.iter().map(ms).collect();
            g.sort_by(f64::total_cmp);
            nearest_rank(&g, 0.9)
        })
        .collect();
    Summary {
        qps: if end_ns == 0 {
            0.0
        } else {
            questions as f64 / (end_ns as f64 / 1e9)
        },
        p50_ms: nearest_rank(&lat, 0.5).unwrap_or(0.0),
        p90_ms: median(&group_p90).unwrap_or(0.0),
    }
}

/// One recorded span: `(id, parent, request, name, start_ns, end_ns)`.
/// Ids start at 1; `parent == 0` marks a request's root span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span id, unique within one replay.
    pub id: u32,
    /// Id of the enclosing span, `0` for none.
    pub parent: u32,
    /// Index of the replayed request this span belongs to.
    pub request: u32,
    /// Layer name.
    pub name: &'static str,
    /// Start, nanoseconds since the replay began.
    pub start_ns: u64,
    /// End, nanoseconds since the replay began.
    pub end_ns: u64,
}

/// Calls and summed self time of every span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotal {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Summed self time: each span's duration minus the part of its
    /// interval its children cover.
    pub self_ns: u64,
}

/// Self time per span name. Children are clipped to their parent and
/// overlapping children are merged, so nested and back-to-back spans are
/// both subtracted exactly once.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
        }
        let total = out.entry(s.name).or_default();
        total.calls += 1;
        total.self_ns += s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nearest_rank_picks_observed_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(50.0));
        assert_eq!(nearest_rank(&v, 0.9), Some(90.0));
        assert_eq!(nearest_rank(&v, 0.99), Some(99.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(100.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[7.0], 0.9), Some(7.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        // Rank ceil(0.5 * 3) = 2.
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0], 0.5), Some(2.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), Some(2.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p90 of 100 samples is rank 90: exactly ten beyond.
        assert!(supports(100, 0.9));
        assert!(!supports(99, 0.9));
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert!(!supports(0, 0.5));
    }

    /// A closed loop of back-to-back requests of `latency_ns` each.
    fn steady(n: usize, latency_ns: u64, questions: usize) -> Vec<Sample> {
        (0..n as u64)
            .map(|i| Sample {
                start_ns: i * latency_ns,
                latency_ns,
                questions,
            })
            .collect()
    }

    #[test]
    fn summary_of_a_steady_loop_is_exact() {
        // 1000 requests of 10 ms with 4 questions each: 400 questions/s.
        let s = summarize(&steady(1000, 10_000_000, 4));
        assert!((s.qps - 400.0).abs() < 1e-6, "{}", s.qps);
        assert_eq!((s.p50_ms, s.p90_ms), (10.0, 10.0));
        let none = summarize(&[]);
        assert_eq!((none.qps, none.p50_ms, none.p90_ms), (0.0, 0.0, 0.0));
    }

    #[test]
    fn summary_quantiles_are_nearest_rank_over_every_request() {
        // 100 back-to-back requests of 1..=100 ms, one question each.
        let mut start_ns = 0;
        let samples: Vec<Sample> = (1..=100u64)
            .map(|ms| {
                let s = Sample {
                    start_ns,
                    latency_ns: ms * 1_000_000,
                    questions: 1,
                };
                start_ns += ms * 1_000_000;
                s
            })
            .collect();
        let s = summarize(&samples);
        assert_eq!((s.p50_ms, s.p90_ms), (50.0, 90.0));
        // 100 questions over the 5.05 s until the last answer.
        assert!((s.qps - 100.0 / 5.05).abs() < 1e-9, "{}", s.qps);
    }

    #[test]
    fn p90_is_the_median_over_groups_of_a_hundred_requests() {
        // Two connections of 250 requests each at 2 ms, sent interleaved,
        // with a burst of 60 slow (10 ms) requests: 12% of the window,
        // within one group of 100 in send order.
        let mut samples: Vec<Sample> = Vec::new();
        for conn in [1, 0] {
            samples.extend((0..250u64).map(|i| Sample {
                start_ns: (2 * i + conn) * 1_000_000,
                latency_ns: match i {
                    100..=129 => 10_000_000,
                    _ => 2_000_000,
                },
                questions: 1,
            }));
        }
        let s = summarize(&samples);
        assert_eq!(s.p50_ms, 2.0);
        assert_eq!(s.p90_ms, 2.0, "the burst moves one group of five");
        let mut lat: Vec<f64> = samples.iter().map(|s| s.latency_ns as f64 / 1e6).collect();
        lat.sort_by(f64::total_cmp);
        assert_eq!(
            nearest_rank(&lat, 0.9),
            Some(10.0),
            "over the window it decides p90"
        );
        // A partial last group is left out; fewer than a group gives 0.
        assert_eq!(summarize(&samples[..TAIL_GROUP - 1]).p90_ms, 0.0);
        assert!(supports(TAIL_GROUP, 0.9) && !supports(TAIL_GROUP - 1, 0.9));
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,100) > a [10,60) > b [20,30); root also > c [70,90).
        let spans = [
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 60),
            span(3, 2, "b", 20, 30),
            span(4, 1, "c", 70, 90),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["root"],
            LayerTotal {
                calls: 1,
                self_ns: 100 - 50 - 20
            }
        );
        assert_eq!(
            t["a"],
            LayerTotal {
                calls: 1,
                self_ns: 50 - 10
            }
        );
        assert_eq!(
            t["b"],
            LayerTotal {
                calls: 1,
                self_ns: 10
            }
        );
        assert_eq!(
            t["c"],
            LayerTotal {
                calls: 1,
                self_ns: 20
            }
        );
        let sum: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, 100, "self times partition the root interval");
    }

    #[test]
    fn self_time_handles_back_to_back_and_overlapping_children() {
        // Back-to-back children [0,10) [10,20) and an overlapping pair
        // [30,50) [40,60) under one parent [0,100); a child spilling past
        // the parent is clipped.
        let spans = [
            span(1, 0, "p", 0, 100),
            span(2, 1, "x", 0, 10),
            span(3, 1, "x", 10, 20),
            span(4, 1, "y", 30, 50),
            span(5, 1, "y", 40, 60),
            span(6, 1, "z", 90, 120),
        ];
        let t = self_times(&spans);
        assert_eq!(t["p"].self_ns, 100 - 20 - 30 - 10);
        assert_eq!(
            t["x"],
            LayerTotal {
                calls: 2,
                self_ns: 20
            }
        );
        assert_eq!(
            t["y"],
            LayerTotal {
                calls: 2,
                self_ns: 40
            }
        );
        assert_eq!(t["z"].self_ns, 30);
    }
}
