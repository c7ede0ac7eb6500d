//! Timing helpers: per-round timeline, percentiles, the quartile a run
//! reports over its rounds, repeated set-up, peak RSS.

use std::time::Instant;

/// Latency of every op of one round and the wall time they took.
#[derive(Debug)]
pub struct Timeline {
    start: Instant,
    /// Ns from the round's start to its last completion.
    wall_ns: u64,
    /// Latency of each op, ns.
    latency_ns: Vec<u64>,
}

impl Timeline {
    /// Starts the round's clock; `ops` sizes the buffer.
    pub fn start(ops: usize) -> Self {
        Timeline {
            start: Instant::now(),
            wall_ns: 0,
            latency_ns: Vec::with_capacity(ops),
        }
    }

    /// Ns since the round started.
    pub fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Records `ops` operations that started together at `started_ns`
    /// and completed together now (one op, or a chunk sharing its
    /// latency). Returns the completion time.
    pub fn complete(&mut self, started_ns: u64, ops: usize) -> u64 {
        let now = self.now_ns();
        for _ in 0..ops {
            self.push(now, now - started_ns);
        }
        now
    }

    /// Records one op that completed at `done_ns` after `latency_ns`,
    /// which may be on another clock than the completion time.
    pub fn push(&mut self, done_ns: u64, latency_ns: u64) {
        self.wall_ns = self.wall_ns.max(done_ns);
        self.latency_ns.push(latency_ns);
    }

    /// Ops recorded.
    pub fn ops(&self) -> usize {
        self.latency_ns.len()
    }

    /// Wall seconds from the round's start to its last completion.
    pub fn wall_s(&self) -> f64 {
        self.wall_ns as f64 / 1e9
    }

    /// Ops ÷ wall seconds.
    pub fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / self.wall_s().max(1e-9)
    }

    /// Latency percentile in µs (nearest rank).
    pub fn latency_us(&self, p: f64) -> f64 {
        let mut v = self.latency_ns.clone();
        v.sort_unstable();
        percentile(&v, p) as f64 / 1e3
    }
}

/// Nearest-rank percentile of a sorted slice; 0 when empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The quartile of the rounds' values on the undisturbed side: the
/// third quartile when higher is better, the first when lower is.
///
/// Rounds are exchangeable (same sizes, traffic from the same
/// generator), so they differ by what the host did to them, and on a
/// shared host that only ever slows a round down: a neighbour on the
/// sibling hyperthread costs 10 to 40 % for seconds to minutes. The
/// median moves with every burst that covers half the run; this
/// quartile needs only a quarter of the rounds undisturbed. Nearest
/// rank, rounded towards the good end: the second best of eight.
pub fn good_quartile(values: &mut [f64], higher_is_better: bool) -> f64 {
    assert!(!values.is_empty());
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let from_good_end = (values.len() - 1) / 4;
    if higher_is_better {
        values[values.len() - 1 - from_good_end]
    } else {
        values[from_good_end]
    }
}

/// Builds a world `reps` times and returns the last one with the mean
/// seconds per build, so that a set-up of a millisecond is timed over
/// tens of them. Each world is dropped before the next is built, so
/// peak memory holds one.
pub fn timed_setup<W>(reps: usize, mut build: impl FnMut() -> W) -> (W, f64) {
    let began = Instant::now();
    for _ in 1..reps {
        drop(build());
    }
    let world = build();
    (world, began.elapsed().as_secs_f64() / reps.max(1) as f64)
}

/// `VmHWM` (peak resident set) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn rate_is_ops_over_the_time_to_the_last_completion() {
        let mut t = Timeline::start(100);
        for i in 1..=100u64 {
            t.push(i * 1_000_000, 1_000_000);
        }
        assert_eq!(t.ops(), 100);
        assert!((t.ops_per_s() - 1000.0).abs() < 1e-6);
        assert_eq!(t.latency_us(50.0), 1000.0);
    }

    #[test]
    fn good_quartile_is_near_the_undisturbed_end() {
        // Eight rounds, five of them slowed: the quartile reads a clean one.
        let mut rates = [100.0, 70.0, 99.0, 60.0, 65.0, 80.0, 75.0, 101.0];
        assert_eq!(good_quartile(&mut rates, true), 100.0);
        let mut lat = [10.0, 14.0, 10.2, 17.0, 15.0, 12.0, 13.0, 9.9];
        assert_eq!(good_quartile(&mut lat, false), 10.0);
        assert_eq!(good_quartile(&mut [5.0], true), 5.0);
        assert_eq!(good_quartile(&mut [5.0, 7.0], false), 5.0);
    }

    #[test]
    fn setup_repeats_and_returns_the_last_world() {
        let mut calls = 0;
        let (world, secs) = timed_setup(7, || {
            calls += 1;
            calls
        });
        assert_eq!(world, 7);
        assert!(secs >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
