//! The benchmark's own arithmetic: percentiles under the ten-samples
//! rule, the open-loop arrival schedule, and per-record lateness and
//! freshness attribution. Kept free of timing calls so it can be tested
//! on synthetic inputs.

/// Percentiles a tail metric may use, highest first.
pub const TAIL_LADDER: [f64; 8] = [99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 70.0, 50.0];

/// Samples a percentile must leave beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of percentile `p` (0–100) among `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps products such as 0.99 × 1000 from rounding up
    // past an exact rank.
    let r = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    r.clamp(1, n.max(1)) - 1
}

/// How many of `n` samples lie beyond the nearest-rank `p` percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

/// The nearest-rank `p` percentile of `samples` (any order); 0 when
/// there are none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p)]
}

/// Median of `samples` (lower middle for even counts); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it, if any does.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// An open-loop arrival schedule: record `i` of the stream falls due
/// `i / rate` seconds after the stream starts, however late the system
/// runs.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    /// Records per second.
    pub rate: f64,
    /// Records available to stream.
    pub cap: usize,
}

impl OpenLoop {
    /// Seconds after the start at which record `i` falls due.
    pub fn due_at(&self, i: usize) -> f64 {
        i as f64 / self.rate
    }

    /// Records due by `t` seconds after the start (capped at `cap`).
    pub fn due_by(&self, t: f64) -> usize {
        if t < 0.0 {
            return 0;
        }
        ((t * self.rate).floor() as usize + 1).min(self.cap)
    }
}

/// One writer epoch: the records it ingested, when the ingest call
/// started, and when the resolve that followed returned. Times are
/// seconds after the stream started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Epoch {
    /// Stream indices `first..end` ingested by this epoch.
    pub first: usize,
    /// One past the last stream index ingested.
    pub end: usize,
    /// When the ingest call began.
    pub ingest_at: f64,
    /// When `resolve()` returned.
    pub resolved_at: f64,
    /// Stream records the published snapshot covers.
    pub covers: usize,
}

/// Per stream record: how late its ingest call ran after it fell due.
/// A record that fell due during a stalled epoch waits for the next
/// ingest call, and is charged for all of that wait.
pub fn lateness(schedule: &OpenLoop, epochs: &[Epoch]) -> Vec<f64> {
    let mut out = Vec::new();
    for e in epochs {
        for i in e.first..e.end {
            out.push((e.ingest_at - schedule.due_at(i)).max(0.0));
        }
    }
    out
}

/// Per stream record: freshness, from the moment it fell due to the
/// return of the first epoch whose snapshot covers it. Records no epoch
/// covers are left out.
pub fn freshness(schedule: &OpenLoop, epochs: &[Epoch]) -> Vec<f64> {
    let mut out = Vec::new();
    let mut covered = 0usize;
    for e in epochs {
        for i in covered..e.covers.max(covered) {
            out.push(e.resolved_at - schedule.due_at(i));
        }
        covered = covered.max(e.covers);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly ten beyond, p99.9 only one.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(1000, 99.9), 1);
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // 43 samples: p80 leaves 8, p75 leaves 10.
        assert_eq!(beyond(43, 80.0), 8);
        assert_eq!(tail_percentile(43), Some(75.0));
        // 35 samples: p75 leaves 8, p70 leaves 10.
        assert_eq!(tail_percentile(35), Some(70.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn open_loop_schedule_ignores_the_system() {
        let s = OpenLoop {
            rate: 100.0,
            cap: 50,
        };
        assert_eq!(s.due_at(0), 0.0);
        assert_eq!(s.due_at(25), 0.25);
        assert_eq!(s.due_by(-1.0), 0);
        assert_eq!(s.due_by(0.0), 1);
        assert_eq!(s.due_by(0.095), 10);
        assert_eq!(s.due_by(100.0), 50, "the cap bounds the stream");
    }

    #[test]
    fn a_stalled_epoch_charges_every_record_due_during_the_stall() {
        let s = OpenLoop {
            rate: 10.0,
            cap: 100,
        };
        // Epoch 1 ingests record 0 at t=0 and stalls until t=1.0; the
        // records due at 0.1 … 1.0 all wait for epoch 2's ingest at 1.0.
        let epochs = [
            Epoch {
                first: 0,
                end: 1,
                ingest_at: 0.0,
                resolved_at: 1.0,
                covers: 1,
            },
            Epoch {
                first: 1,
                end: 11,
                ingest_at: 1.0,
                resolved_at: 1.2,
                covers: 11,
            },
        ];
        let late = lateness(&s, &epochs);
        assert_eq!(late.len(), 11);
        assert_eq!(late[0], 0.0);
        for (i, l) in late.iter().enumerate().skip(1) {
            let want = 1.0 - i as f64 / 10.0;
            assert!((l - want).abs() < 1e-12, "record {i}: {l} != {want}");
        }
        // The charge totals the stall's whole backlog: 0.9 + 0.8 + … + 0.
        let total: f64 = late.iter().sum();
        assert!((total - 4.5).abs() < 1e-9, "{total}");
    }

    #[test]
    fn freshness_goes_to_the_first_covering_epoch() {
        let s = OpenLoop {
            rate: 10.0,
            cap: 100,
        };
        let epochs = [
            Epoch {
                first: 0,
                end: 3,
                ingest_at: 0.2,
                resolved_at: 0.5,
                covers: 3,
            },
            // An epoch with nothing new covers nothing new.
            Epoch {
                first: 3,
                end: 3,
                ingest_at: 0.5,
                resolved_at: 0.6,
                covers: 3,
            },
            Epoch {
                first: 3,
                end: 5,
                ingest_at: 0.6,
                resolved_at: 0.9,
                covers: 5,
            },
        ];
        let f = freshness(&s, &epochs);
        let want = [0.5, 0.4, 0.3, 0.6, 0.5];
        assert_eq!(f.len(), want.len());
        for (got, want) in f.iter().zip(want) {
            assert!((got - want).abs() < 1e-12, "{got} != {want}");
        }
    }
}
