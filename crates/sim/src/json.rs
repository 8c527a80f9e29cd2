//! Minimal JSON rendering of run reports, for scripting around the CLI.
//!
//! Hand-rolled (the workspace's dependency policy keeps serde out); the
//! emitter covers exactly what [`SimReport`] needs — objects, arrays,
//! strings and finite numbers, the last two through `simty_obs`'s
//! [`json_string`] and [`json_f64`].

use std::fmt::Write as _;

use simty_obs::{json_f64, json_string};

use crate::metrics::SimReport;

/// Renders a [`SimReport`] as a single JSON object.
///
/// # Examples
///
/// ```
/// use simty_sim::json::report_to_json;
/// # use simty_core::policy::ExactPolicy;
/// # use simty_core::time::SimDuration;
/// # use simty_sim::{SimConfig, Simulation};
/// let mut sim = Simulation::new(
///     Box::new(ExactPolicy::new()),
///     SimConfig::new().with_duration(SimDuration::from_mins(1)),
/// );
/// sim.run_until(simty_core::time::SimTime::from_secs(60));
/// let json = report_to_json(&sim.report());
/// assert!(json.starts_with('{'));
/// assert!(json.contains("\"policy\""));
/// ```
pub fn report_to_json(report: &SimReport) -> String {
    let mut out = String::new();
    out.push('{');
    let _ = write!(
        out,
        "\"policy\":{},\"duration_ms\":{},",
        json_string(&report.policy),
        report.duration.as_millis()
    );
    let e = &report.energy;
    let _ = write!(
        out,
        "\"energy_mj\":{{\"sleep\":{},\"transitions\":{},\"awake_base\":{},\"hardware\":{},\"total\":{}}},",
        json_f64(e.sleep_mj),
        json_f64(e.transition_mj),
        json_f64(e.awake_base_mj),
        json_f64(e.hardware_mj()),
        json_f64(e.total_mj())
    );
    let _ = write!(
        out,
        "\"average_power_mw\":{},\"cpu_wakeups\":{},\"entry_deliveries\":{},\"total_deliveries\":{},\"awake_ms\":{},",
        json_f64(report.average_power_mw()),
        report.cpu_wakeups,
        report.entry_deliveries,
        report.total_deliveries,
        report.awake_time.as_millis()
    );
    let d = &report.delays;
    let _ = write!(
        out,
        "\"delays\":{{\"perceptible_avg\":{},\"perceptible_max\":{},\"perceptible_count\":{},\"imperceptible_avg\":{},\"imperceptible_max\":{},\"imperceptible_count\":{}}},",
        json_f64(d.perceptible_avg),
        json_f64(d.perceptible_max),
        d.perceptible_count,
        json_f64(d.imperceptible_avg),
        json_f64(d.imperceptible_max),
        d.imperceptible_count
    );
    out.push_str("\"wakeups\":[");
    for (i, row) in report.wakeup_rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"component\":{},\"actual\":{},\"expected\":{}}}",
            json_string(row.component.name()),
            row.actual,
            row.expected
        );
    }
    out.push_str("],");
    let r = &report.resilience;
    let _ = write!(
        out,
        "\"resilience\":{{\"invariant_violations\":{},\"perceptible_window_misses\":{},\"interventions\":{},\"forced_releases\":{},\"activation_retries\":{},\"dropped_fire_retries\":{},\"quarantines\":{},\"recoveries\":{},\"app_crashes\":{},\"app_restarts\":{},\"mean_time_to_recovery_ms\":{},\"intervention_overhead_mj\":{},\"reboots\":{},\"mean_recovery_ms\":{},\"catch_up_entries\":{},\"worst_catch_up_delay_ms\":{}}}",
        r.invariant_violations,
        r.perceptible_window_misses,
        r.interventions,
        r.forced_releases,
        r.activation_retries,
        r.dropped_fire_retries,
        r.quarantines,
        r.recoveries,
        r.app_crashes,
        r.app_restarts,
        json_f64(r.mean_time_to_recovery_ms),
        json_f64(r.intervention_overhead_mj),
        r.reboots,
        json_f64(r.mean_recovery_ms),
        r.catch_up_entries,
        json_f64(r.worst_catch_up_delay_ms)
    );
    let o = &report.overload;
    let _ = write!(
        out,
        ",\"overload\":{{\"storm_registrations\":{},\"admitted\":{},\"deferred\":{},\"rejected\":{},\"shed\":{},\"demotions\":{},\"tier_changes\":{},\"time_in_saver_ms\":{},\"time_in_critical_ms\":{},\"final_tier\":{},\"grace_stretch_milli\":{}}}",
        o.storm_registrations,
        o.admitted,
        o.deferred,
        o.rejected,
        o.shed,
        o.demotions,
        o.tier_changes,
        o.time_in_saver_ms,
        o.time_in_critical_ms,
        json_string(&o.final_tier),
        o.grace_stretch_milli
    );
    out.push_str(",\"metrics\":");
    if report.metrics_json.is_empty() {
        out.push_str("null");
    } else {
        out.push_str(&report.metrics_json);
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::Simulation;
    use simty_core::alarm::Alarm;
    use simty_core::hardware::HardwareComponent;
    use simty_core::policy::NativePolicy;
    use simty_core::time::{SimDuration, SimTime};

    #[test]
    fn string_escaping() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_string("a\\b"), "\"a\\\\b\"");
        assert_eq!(json_string("a\nb\tc"), "\"a\\nb\\tc\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
        assert_eq!(json_string("uni→code"), "\"uni→code\"");
    }

    #[test]
    fn numbers() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn report_renders_all_sections() {
        let mut sim = Simulation::new(
            Box::new(NativePolicy::new()),
            SimConfig::new().with_duration(SimDuration::from_mins(10)),
        );
        sim.register(
            Alarm::builder("chat")
                .nominal(SimTime::from_secs(60))
                .repeating_static(SimDuration::from_secs(120))
                .hardware(HardwareComponent::Wifi.into())
                .task_duration(SimDuration::from_secs(2))
                .build()
                .unwrap(),
        )
        .unwrap();
        let report = sim.run();
        let json = report_to_json(&report);
        for key in [
            "\"policy\":\"NATIVE\"",
            "\"energy_mj\"",
            "\"delays\"",
            "\"wakeups\":[",
            "\"component\":\"Wi-Fi\"",
            "\"cpu_wakeups\"",
            "\"resilience\"",
            "\"perceptible_window_misses\":0",
            "\"overload\"",
            "\"final_tier\":\"normal\"",
            "\"metrics\":{",
            "\"counters\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Balanced braces/brackets (a cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
