//! Trace diffing: how did two policies treat the *same* workload?
//!
//! Alarm ids differ between runs (each run builds its own alarms), so
//! deliveries are matched by label. The diff surfaces, per app, how the
//! delivery count, normalized delay, and batch size changed — e.g. how
//! SIMTY's grace intervals turned NATIVE's solo deliveries into batches.

use std::collections::BTreeMap;
use std::fmt;

use crate::analysis::per_app_stats;
use crate::trace::Trace;

/// Per-app summary used on each side of a diff.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SideStats {
    /// Number of deliveries.
    pub deliveries: u64,
    /// Mean normalized delay over repeating-alarm deliveries.
    pub mean_delay: f64,
    /// Mean batch size at delivery.
    pub mean_batch: f64,
}

fn side_stats(trace: &Trace) -> BTreeMap<String, SideStats> {
    per_app_stats(trace)
        .into_iter()
        .map(|s| {
            let side = SideStats {
                deliveries: s.deliveries,
                mean_delay: s.mean_normalized_delay,
                mean_batch: s.mean_batch,
            };
            (s.app, side)
        })
        .collect()
}

/// One app's before/after comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct AlarmDiff {
    /// The app label.
    pub label: String,
    /// Stats under the first trace (`None` if the app never delivered).
    pub a: Option<SideStats>,
    /// Stats under the second trace.
    pub b: Option<SideStats>,
}

impl AlarmDiff {
    /// Change in delivery count (b − a), counting absent sides as zero.
    pub fn delivery_delta(&self) -> i64 {
        let a = self.a.map_or(0, |s| s.deliveries) as i64;
        let b = self.b.map_or(0, |s| s.deliveries) as i64;
        b - a
    }
}

/// The full diff between two traces.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDiff {
    /// Per-app comparisons, sorted by label.
    pub alarms: Vec<AlarmDiff>,
}

impl TraceDiff {
    /// Compares two traces of the same workload, matching apps by label.
    pub fn between(a: &Trace, b: &Trace) -> TraceDiff {
        let sa = side_stats(a);
        let sb = side_stats(b);
        let labels: std::collections::BTreeSet<&String> = sa.keys().chain(sb.keys()).collect();
        let alarms = labels
            .into_iter()
            .map(|label| AlarmDiff {
                label: label.clone(),
                a: sa.get(label).copied(),
                b: sb.get(label).copied(),
            })
            .collect();
        TraceDiff { alarms }
    }

    /// The diff for one app, if it delivered in either trace.
    pub fn for_label(&self, label: &str) -> Option<&AlarmDiff> {
        self.alarms.iter().find(|d| d.label == label)
    }

    /// Apps sorted by how much their mean batch size grew from a to b —
    /// i.e. who benefited most from the second policy's alignment.
    pub fn biggest_batch_gainers(&self) -> Vec<&AlarmDiff> {
        let mut v: Vec<&AlarmDiff> = self.alarms.iter().collect();
        v.sort_by(|x, y| {
            let gx = x.b.map_or(0.0, |s| s.mean_batch) - x.a.map_or(0.0, |s| s.mean_batch);
            let gy = y.b.map_or(0.0, |s| s.mean_batch) - y.a.map_or(0.0, |s| s.mean_batch);
            gy.partial_cmp(&gx).expect("finite batch sizes")
        });
        v
    }
}

impl fmt::Display for TraceDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<18} {:>12} {:>16} {:>14}",
            "app", "deliveries", "mean delay", "mean batch"
        )?;
        for d in &self.alarms {
            let fmt_side = |s: Option<SideStats>| match s {
                Some(s) => (
                    s.deliveries.to_string(),
                    format!("{:.1}%", s.mean_delay * 100.0),
                    format!("{:.2}", s.mean_batch),
                ),
                None => ("-".into(), "-".into(), "-".into()),
            };
            let (an, ad, ab) = fmt_side(d.a);
            let (bn, bd, bb) = fmt_side(d.b);
            writeln!(
                f,
                "{:<18} {:>5} → {:<5} {:>7} → {:<7} {:>6} → {:<6}",
                d.label, an, bn, ad, bd, ab, bb
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::DeliveryRecord;
    use simty_core::alarm::Alarm;
    use simty_core::hardware::HardwareComponent;
    use simty_core::time::{SimDuration, SimTime};

    fn trace_with(label: &str, deliveries: &[(u64, usize)]) -> Trace {
        let mut alarm = Alarm::builder(label)
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
            t.record_delivery(DeliveryRecord::observe(&alarm, SimTime::from_secs(*s), *size));
        }
        t
    }

    #[test]
    fn matches_apps_by_label() {
        let a = trace_with("chat", &[(100, 1), (200, 1)]);
        let b = trace_with("chat", &[(150, 2)]);
        let diff = TraceDiff::between(&a, &b);
        assert_eq!(diff.alarms.len(), 1);
        let d = diff.for_label("chat").unwrap();
        assert_eq!(d.a.unwrap().deliveries, 2);
        assert_eq!(d.b.unwrap().deliveries, 1);
        assert_eq!(d.delivery_delta(), -1);
        assert!((d.b.unwrap().mean_batch - 2.0).abs() < 1e-12);
    }

    #[test]
    fn apps_missing_on_one_side() {
        let a = trace_with("only-a", &[(100, 1)]);
        let b = trace_with("only-b", &[(100, 1)]);
        let diff = TraceDiff::between(&a, &b);
        assert_eq!(diff.alarms.len(), 2);
        assert!(diff.for_label("only-a").unwrap().b.is_none());
        assert!(diff.for_label("only-b").unwrap().a.is_none());
        assert_eq!(diff.for_label("only-b").unwrap().delivery_delta(), 1);
    }

    #[test]
    fn batch_gainers_are_sorted() {
        let mut a = trace_with("x", &[(100, 1)]);
        for d in trace_with("y", &[(100, 1)]).deliveries() {
            a.record_delivery(d.clone());
        }
        let mut b = trace_with("x", &[(100, 4)]);
        for d in trace_with("y", &[(100, 2)]).deliveries() {
            b.record_delivery(d.clone());
        }
        let diff = TraceDiff::between(&a, &b);
        let gainers = diff.biggest_batch_gainers();
        assert_eq!(gainers[0].label, "x");
        assert_eq!(gainers[1].label, "y");
    }

    #[test]
    fn display_renders_both_sides() {
        let a = trace_with("chat", &[(100, 1)]);
        let b = trace_with("chat", &[(150, 2)]);
        let s = TraceDiff::between(&a, &b).to_string();
        assert!(s.contains("chat"));
        assert!(s.contains('→'));
    }
}
