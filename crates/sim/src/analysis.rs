//! Trace analysis: batching statistics, per-app delivery summaries, and
//! an ASCII timeline — the exploratory tooling a wakeup-management study
//! needs around the raw metrics.

use std::collections::BTreeMap;
use std::fmt;

use simty_core::time::{SimDuration, SimTime};

use crate::trace::Trace;

/// Distribution of queue-entry batch sizes over a run.
///
/// A policy that aligns well delivers most alarms in large batches;
/// EXACT's histogram is all ones.
///
/// # Examples
///
/// ```
/// use simty_sim::analysis::BatchHistogram;
/// use simty_sim::trace::Trace;
///
/// let histogram = BatchHistogram::from_trace(&Trace::new());
/// assert_eq!(histogram.total_deliveries(), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchHistogram {
    counts: BTreeMap<usize, u64>,
}

impl BatchHistogram {
    /// Builds the histogram from a trace. Each *alarm* delivery
    /// contributes one observation of its entry's size.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut counts = BTreeMap::new();
        for d in trace.deliveries() {
            *counts.entry(d.entry_size).or_insert(0) += 1;
        }
        BatchHistogram { counts }
    }

    /// Observations per batch size.
    pub fn counts(&self) -> &BTreeMap<usize, u64> {
        &self.counts
    }

    /// Total alarm deliveries observed.
    pub fn total_deliveries(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Mean batch size over alarm deliveries (1.0 for EXACT).
    pub fn mean_batch_size(&self) -> f64 {
        let total = self.total_deliveries();
        if total == 0 {
            return 0.0;
        }
        let weighted: u64 = self.counts.iter().map(|(size, n)| *size as u64 * n).sum();
        weighted as f64 / total as f64
    }

    /// Fraction of deliveries that shared their wakeup with at least one
    /// other alarm.
    pub fn aligned_fraction(&self) -> f64 {
        let total = self.total_deliveries();
        if total == 0 {
            return 0.0;
        }
        let aligned: u64 = self
            .counts
            .iter()
            .filter(|(size, _)| **size > 1)
            .map(|(_, n)| *n)
            .sum();
        aligned as f64 / total as f64
    }
}

impl fmt::Display for BatchHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "batch-size histogram (alarm deliveries):")?;
        for (size, n) in &self.counts {
            writeln!(f, "  {size:>3}: {n:>6} {}", "#".repeat((*n as usize).min(60)))?;
        }
        write!(
            f,
            "  mean {:.2}, {:.1}% aligned",
            self.mean_batch_size(),
            self.aligned_fraction() * 100.0
        )
    }
}

/// Per-app delivery summary.
#[derive(Debug, Clone, PartialEq)]
pub struct AppStats {
    /// App label.
    pub app: String,
    /// Number of deliveries.
    pub deliveries: u64,
    /// Mean normalized delay (repeating alarms only).
    pub mean_normalized_delay: f64,
    /// Maximum normalized delay.
    pub max_normalized_delay: f64,
    /// Mean batch size at delivery.
    pub mean_batch: f64,
    /// Mean gap between adjacent deliveries, if at least two occurred.
    pub mean_gap: Option<SimDuration>,
}

/// Computes per-app summaries over a trace, sorted by app label.
pub fn per_app_stats(trace: &Trace) -> Vec<AppStats> {
    #[derive(Default)]
    struct Acc {
        deliveries: u64,
        delay_sum: f64,
        delay_count: u64,
        delay_max: f64,
        batch_sum: u64,
        times: Vec<SimTime>,
    }
    let mut accs: BTreeMap<String, Acc> = BTreeMap::new();
    for d in trace.deliveries() {
        let acc = accs.entry(d.label.to_string()).or_default();
        acc.deliveries += 1;
        acc.batch_sum += d.entry_size as u64;
        acc.times.push(d.delivered_at);
        if let Some(nd) = d.normalized_delay() {
            acc.delay_sum += nd;
            acc.delay_count += 1;
            acc.delay_max = acc.delay_max.max(nd);
        }
    }
    accs.into_iter()
        .map(|(app, acc)| {
            let mean_gap = if acc.times.len() >= 2 {
                let total: SimDuration = acc
                    .times
                    .windows(2)
                    .map(|w| w[1].saturating_since(w[0]))
                    .sum();
                Some(total / (acc.times.len() as u64 - 1))
            } else {
                None
            };
            AppStats {
                app,
                deliveries: acc.deliveries,
                mean_normalized_delay: if acc.delay_count > 0 {
                    acc.delay_sum / acc.delay_count as f64
                } else {
                    0.0
                },
                max_normalized_delay: acc.delay_max,
                mean_batch: acc.batch_sum as f64 / acc.deliveries as f64,
                mean_gap,
            }
        })
        .collect()
}

/// Statistics over the gaps between consecutive device wakeups.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WakeupGapStats {
    /// Number of gaps observed (wakeups − 1).
    pub count: u64,
    /// Shortest gap.
    pub min: SimDuration,
    /// Mean gap.
    pub mean: SimDuration,
    /// Longest gap — the longest uninterrupted sleep opportunity.
    pub max: SimDuration,
}

/// Computes wakeup-gap statistics, or `None` with fewer than two wakeups.
pub fn wakeup_gap_stats(trace: &Trace) -> Option<WakeupGapStats> {
    let wakeups = trace.wakeups();
    if wakeups.len() < 2 {
        return None;
    }
    let gaps: Vec<SimDuration> = wakeups
        .windows(2)
        .map(|w| w[1].saturating_since(w[0]))
        .collect();
    let total: SimDuration = gaps.iter().copied().sum();
    Some(WakeupGapStats {
        count: gaps.len() as u64,
        min: gaps.iter().copied().min().expect("nonempty"),
        mean: total / gaps.len() as u64,
        max: gaps.iter().copied().max().expect("nonempty"),
    })
}

/// Renders an ASCII timeline of device wakeups: one row per bucket, one
/// `*` per wakeup in that bucket. Useful for eyeballing how a policy
/// clusters activity.
///
/// # Panics
///
/// Panics if `bucket` is zero.
pub fn wakeup_timeline(trace: &Trace, duration: SimDuration, bucket: SimDuration) -> String {
    assert!(!bucket.is_zero(), "timeline bucket must be positive");
    let buckets = duration.as_millis().div_ceil(bucket.as_millis()).max(1) as usize;
    let mut counts = vec![0usize; buckets];
    for w in trace.wakeups() {
        let idx = (w.as_millis() / bucket.as_millis()) as usize;
        if let Some(slot) = counts.get_mut(idx) {
            *slot += 1;
        }
    }
    let mut out = String::new();
    for (i, n) in counts.iter().enumerate() {
        let start = SimTime::from_millis(i as u64 * bucket.as_millis());
        out.push_str(&format!("{:>10}  {}\n", start.to_string(), "*".repeat(*n)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::DeliveryRecord;
    use simty_core::alarm::Alarm;
    use simty_core::hardware::HardwareComponent;

    fn traced(deliveries: &[(u64, usize)]) -> Trace {
        let mut alarm = Alarm::builder("app")
            .nominal(SimTime::from_secs(100))
            .repeating_static(SimDuration::from_secs(100))
            .window_fraction(0.25)
            .grace_fraction(0.9)
            .hardware(HardwareComponent::Wifi.into())
            .build()
            .unwrap();
        alarm.mark_hardware_known();
        let mut t = Trace::new();
        for (s, size) in deliveries {
            t.record_delivery(DeliveryRecord::observe(
                &alarm,
                SimTime::from_secs(*s),
                *size,
            ));
        }
        t
    }

    #[test]
    fn histogram_counts_and_means() {
        let t = traced(&[(100, 1), (200, 2), (300, 2), (400, 4)]);
        let h = BatchHistogram::from_trace(&t);
        assert_eq!(h.total_deliveries(), 4);
        assert_eq!(h.counts()[&2], 2);
        assert!((h.mean_batch_size() - 2.25).abs() < 1e-12);
        assert!((h.aligned_fraction() - 0.75).abs() < 1e-12);
        assert!(h.to_string().contains("aligned"));
    }

    #[test]
    fn empty_histogram_is_defined() {
        let h = BatchHistogram::from_trace(&Trace::new());
        assert_eq!(h.mean_batch_size(), 0.0);
        assert_eq!(h.aligned_fraction(), 0.0);
    }

    #[test]
    fn per_app_stats_aggregate() {
        let t = traced(&[(150, 1), (260, 2)]);
        let stats = per_app_stats(&t);
        assert_eq!(stats.len(), 1);
        let s = &stats[0];
        assert_eq!(s.app, "app");
        assert_eq!(s.deliveries, 2);
        // Window ends at 125; delays 25 s and 135 s normalized by 100 s...
        // (the helper reuses one nominal, so the second delay is large).
        assert!(s.max_normalized_delay > s.mean_normalized_delay / 2.0);
        assert_eq!(s.mean_gap, Some(SimDuration::from_secs(110)));
        assert_eq!(s.mean_batch, 1.5);
    }

    #[test]
    fn wakeup_gaps() {
        let mut t = Trace::new();
        assert!(wakeup_gap_stats(&t).is_none());
        for s in [10, 40, 100] {
            t.record_wakeup(SimTime::from_secs(s));
        }
        let g = wakeup_gap_stats(&t).unwrap();
        assert_eq!(g.count, 2);
        assert_eq!(g.min, SimDuration::from_secs(30));
        assert_eq!(g.max, SimDuration::from_secs(60));
        assert_eq!(g.mean, SimDuration::from_secs(45));
    }

    #[test]
    fn timeline_shape() {
        let mut t = Trace::new();
        t.record_wakeup(SimTime::from_secs(10));
        t.record_wakeup(SimTime::from_secs(15));
        t.record_wakeup(SimTime::from_secs(70));
        let tl = wakeup_timeline(&t, SimDuration::from_secs(120), SimDuration::from_secs(60));
        let lines: Vec<&str> = tl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].ends_with("**"));
        assert!(lines[1].ends_with('*'));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn timeline_rejects_zero_bucket() {
        let _ = wakeup_timeline(&Trace::new(), SimDuration::from_secs(60), SimDuration::ZERO);
    }
}
