//! The paper's app catalogue: all 18 Google Play apps of Table 3.
//!
//! | App            | ReIn (s) | α    | S/D | hardware           | workloads |
//! |----------------|----------|------|-----|--------------------|-----------|
//! | Facebook       | 60       | 0    | D   | Wi-Fi              | L, H      |
//! | imo.im         | 180      | 0    | D   | Wi-Fi              | L, H      |
//! | Line           | 200      | 0.75 | D   | Wi-Fi              | L, H      |
//! | BAND           | 202      | 0    | D   | Wi-Fi              | L, H      |
//! | YeeCall        | 270      | 0    | S   | Wi-Fi              | L, H      |
//! | JusTalk        | 300      | 0    | S   | Wi-Fi              | L, H      |
//! | Weibo          | 300      | 0    | D   | Wi-Fi              | L, H      |
//! | KakaoTalk      | 600      | 0.75 | D   | Wi-Fi              | L, H      |
//! | Viber          | 600      | 0.75 | D   | Wi-Fi              | L, H      |
//! | WeChat         | 900      | 0.75 | D   | Wi-Fi              | L, H      |
//! | Messenger      | 900      | 0.75 | S   | Wi-Fi              | L, H      |
//! | Alarm Clock    | 1800     | 0    | S   | Speaker & Vibrator | L, H      |
//! | Drink Water    | 900      | 0.75 | S   | Speaker & Vibrator | H         |
//! | Noom Walk      | 60       | 0.75 | S   | Accelerometer      | H         |
//! | Moves          | 90       | 0.75 | S   | Accelerometer      | H         |
//! | FollowMee      | 180      | 0.75 | S   | WPS                | H         |
//! | Family Locator | 300      | 0.75 | S   | WPS                | H         |
//! | Cell Tracker   | 300      | 0.75 | S   | WPS                | H         |

use crate::app::{AppSpec, RepeatKind};

/// The 12 apps of the light workload: the Alarm Clock (the only
/// perceptible alarm) plus the 11 Wi-Fi-only messaging apps. This
/// scenario exercises *time* similarity only, since all imperceptible
/// alarms share the same hardware (§4.1).
pub fn light_workload_apps() -> Vec<AppSpec> {
    use RepeatKind::{Dynamic, Static};
    vec![
        AppSpec::messaging("Facebook", 60, 0.0, Dynamic),
        AppSpec::messaging("imo.im", 180, 0.0, Dynamic),
        AppSpec::messaging("Line", 200, 0.75, Dynamic),
        AppSpec::messaging("BAND", 202, 0.0, Dynamic),
        AppSpec::messaging("YeeCall", 270, 0.0, Static),
        AppSpec::messaging("JusTalk", 300, 0.0, Static),
        AppSpec::messaging("Weibo", 300, 0.0, Dynamic),
        AppSpec::messaging("KakaoTalk", 600, 0.75, Dynamic),
        AppSpec::messaging("Viber", 600, 0.75, Dynamic),
        AppSpec::messaging("WeChat", 900, 0.75, Dynamic),
        AppSpec::messaging("Messenger", 900, 0.75, Static),
        AppSpec::notifier("Alarm Clock", 1_800, 0.0),
    ]
}

/// The 6 additional apps of the heavy workload, whose alarms wakelock the
/// WPS, the accelerometer, or the speaker & vibrator — the scenario that
/// exercises *hardware* similarity as well (§4.1).
pub fn heavy_only_apps() -> Vec<AppSpec> {
    vec![
        AppSpec::notifier("Drink Water", 900, 0.75),
        AppSpec::step_counter("Noom Walk", 60, 0.75),
        AppSpec::step_counter("Moves", 90, 0.75),
        AppSpec::location_tracker("FollowMee", 180, 0.75),
        AppSpec::location_tracker("Family Locator", 300, 0.75),
        AppSpec::location_tracker("Cell Tracker", 300, 0.75),
    ]
}

/// All 18 apps of the heavy workload.
pub fn heavy_workload_apps() -> Vec<AppSpec> {
    let mut apps = light_workload_apps();
    apps.extend(heavy_only_apps());
    apps
}

/// One device-population mix a fleet device can be assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceMix {
    /// The paper's light workload (12 apps, Wi-Fi + one notifier).
    Light,
    /// The paper's heavy workload (all 18 Table 3 apps).
    Heavy,
    /// A synthetic workload of `n` generated apps (long-tail devices
    /// outside the paper's catalogue).
    Synthetic(usize),
}

impl DeviceMix {
    /// Canonical name (`light` / `heavy` / `synthetic:<n>`), as the CLI
    /// spells scenarios.
    pub fn name(&self) -> String {
        match self {
            DeviceMix::Light => "light".to_owned(),
            DeviceMix::Heavy => "heavy".to_owned(),
            DeviceMix::Synthetic(n) => format!("synthetic:{n}"),
        }
    }

    /// The mix's app specs. Synthetic mixes have no fixed spec list —
    /// their apps are generated from the device seed by
    /// `WorkloadBuilder::synthetic` — so they return `None` here.
    pub fn apps(&self) -> Option<Vec<AppSpec>> {
        match self {
            DeviceMix::Light => Some(light_workload_apps()),
            DeviceMix::Heavy => Some(heavy_workload_apps()),
            DeviceMix::Synthetic(_) => None,
        }
    }
}

/// `splitmix64`: the standard 64-bit finalizer, used to derive per-device
/// seeds and mix draws from `(fleet_seed, device_index)` without any
/// sequential RNG state — device `i`'s identity is O(1) and identical no
/// matter which shard or thread runs it.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A weighted scenario catalog shared (behind an `Arc`) by every shard
/// of a fleet: device `i` draws its workload mix and its RNG seed
/// deterministically from `(fleet_seed, i)`, so the population is
/// reproducible across shard boundaries and thread counts.
#[derive(Debug, Clone)]
pub struct ScenarioCatalog {
    entries: Vec<(DeviceMix, u32)>,
    total_weight: u64,
}

impl ScenarioCatalog {
    /// A catalog over explicit `(mix, weight)` entries.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty or the weights sum to zero.
    pub fn new(entries: Vec<(DeviceMix, u32)>) -> Self {
        let total_weight: u64 = entries.iter().map(|&(_, w)| u64::from(w)).sum();
        assert!(
            total_weight > 0,
            "a scenario catalog needs at least one positively-weighted mix"
        );
        ScenarioCatalog {
            entries,
            total_weight,
        }
    }

    /// The default fleet population: 60% light devices, 30% heavy, 10%
    /// synthetic 24-app long-tail devices.
    pub fn paper_mix() -> Self {
        ScenarioCatalog::new(vec![
            (DeviceMix::Light, 6),
            (DeviceMix::Heavy, 3),
            (DeviceMix::Synthetic(24), 1),
        ])
    }

    /// The catalog's `(mix, weight)` entries.
    pub fn entries(&self) -> &[(DeviceMix, u32)] {
        &self.entries
    }

    /// The mix device `device` draws under `fleet_seed`: a weighted
    /// pick keyed only on `(fleet_seed, device)`.
    pub fn sample(&self, fleet_seed: u64, device: u64) -> DeviceMix {
        let mut draw =
            splitmix64(fleet_seed ^ device.wrapping_mul(0xa076_1d64_78bd_642f)) % self.total_weight;
        for &(mix, weight) in &self.entries {
            let weight = u64::from(weight);
            if draw < weight {
                return mix;
            }
            draw -= weight;
        }
        unreachable!("draw < total_weight covers every entry")
    }

    /// The RNG seed device `device` runs under `fleet_seed`: distinct
    /// per device, identical across shardings.
    pub fn device_seed(fleet_seed: u64, device: u64) -> u64 {
        splitmix64(fleet_seed.wrapping_mul(0xff51_afd7_ed55_8ccd) ^ device)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simty_core::hardware::HardwareComponent;

    #[test]
    fn catalogue_sizes_match_table_3() {
        assert_eq!(light_workload_apps().len(), 12);
        assert_eq!(heavy_workload_apps().len(), 18);
    }

    #[test]
    fn light_workload_is_wifi_plus_one_notifier() {
        let apps = light_workload_apps();
        let wifi = apps
            .iter()
            .filter(|a| a.hardware == HardwareComponent::Wifi.into())
            .count();
        let notify = apps.iter().filter(|a| a.hardware.is_perceptible()).count();
        assert_eq!(wifi, 11);
        assert_eq!(notify, 1);
    }

    #[test]
    fn heavy_workload_hardware_mix() {
        let apps = heavy_workload_apps();
        let count = |c: HardwareComponent| apps.iter().filter(|a| a.hardware.contains(c)).count();
        assert_eq!(count(HardwareComponent::Wifi), 11);
        assert_eq!(count(HardwareComponent::Wps), 3);
        assert_eq!(count(HardwareComponent::Accelerometer), 2);
        assert_eq!(count(HardwareComponent::Speaker), 2);
    }

    #[test]
    fn table_3_parameters_spot_checks() {
        let apps = heavy_workload_apps();
        let by_name = |n: &str| apps.iter().find(|a| a.name == n).unwrap();
        assert_eq!(by_name("Facebook").repeat_secs, 60);
        assert_eq!(by_name("Facebook").alpha, 0.0);
        assert_eq!(by_name("BAND").repeat_secs, 202);
        assert_eq!(by_name("Alarm Clock").repeat_secs, 1_800);
        assert_eq!(by_name("Cell Tracker").repeat_secs, 300);
        assert_eq!(by_name("WeChat").alpha, 0.75);
    }

    #[test]
    fn every_app_builds_a_valid_alarm() {
        for spec in heavy_workload_apps() {
            let alarm = spec.alarm(0.96, simty_core::time::SimTime::ZERO);
            assert!(alarm.is_ok(), "{} failed: {:?}", spec.name, alarm.err());
        }
    }

    #[test]
    fn catalog_sampling_is_deterministic_and_weighted() {
        let catalog = ScenarioCatalog::paper_mix();
        let mut counts = [0usize; 3];
        for device in 0..10_000u64 {
            let mix = catalog.sample(42, device);
            assert_eq!(mix, catalog.sample(42, device), "sampling must be pure");
            match mix {
                DeviceMix::Light => counts[0] += 1,
                DeviceMix::Heavy => counts[1] += 1,
                DeviceMix::Synthetic(_) => counts[2] += 1,
            }
        }
        // 60/30/10 within a loose tolerance.
        assert!((5_400..=6_600).contains(&counts[0]), "light: {}", counts[0]);
        assert!((2_400..=3_600).contains(&counts[1]), "heavy: {}", counts[1]);
        assert!(
            (700..=1_300).contains(&counts[2]),
            "synthetic: {}",
            counts[2]
        );
        // A different fleet seed reshuffles assignments.
        assert!((0..100u64).any(|d| catalog.sample(1, d) != catalog.sample(2, d)));
    }

    #[test]
    fn device_seeds_are_distinct_per_device() {
        let seeds: std::collections::BTreeSet<u64> = (0..1_000u64)
            .map(|d| ScenarioCatalog::device_seed(7, d))
            .collect();
        assert_eq!(seeds.len(), 1_000);
        assert_ne!(
            ScenarioCatalog::device_seed(7, 0),
            ScenarioCatalog::device_seed(8, 0)
        );
    }
}
