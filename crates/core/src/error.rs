//! Error types for alarm construction and registration.

use std::error::Error;
use std::fmt;

use crate::alarm::AlarmId;
use crate::time::SimDuration;

/// Error returned by [`AlarmBuilder::build`](crate::alarm::AlarmBuilder::build)
/// when the requested attributes violate the paper's interval constraints
/// (§3.1.2: `window ≤ grace`, and `grace < repeating interval` for
/// repeating alarms).
#[derive(Debug, Clone, PartialEq)]
pub enum BuildAlarmError {
    /// The grace interval is shorter than the window interval, which would
    /// let SIMTY deliver an alarm *earlier* than NATIVE allows.
    GraceShorterThanWindow {
        /// The requested window interval length.
        window: SimDuration,
        /// The requested grace interval length.
        grace: SimDuration,
    },
    /// The grace interval is not strictly smaller than the repeating
    /// interval, which would break once-per-period delivery (§3.2.2).
    GraceNotBelowRepeat {
        /// The requested grace interval length.
        grace: SimDuration,
        /// The repeating interval.
        repeat: SimDuration,
    },
    /// A zero repeating interval was requested; use a one-shot alarm
    /// instead (Android models one-shot alarms as repeat = 0, this library
    /// makes the distinction explicit).
    ZeroRepeatInterval,
    /// A window or grace *fraction* (α or β) was given for a one-shot
    /// alarm, which has no repeating interval to scale by.
    FractionWithoutRepeat {
        /// The offending fraction.
        fraction: f64,
    },
    /// A window or grace fraction was outside `[0, 1)`.
    FractionOutOfRange {
        /// The offending fraction.
        fraction: f64,
    },
}

impl fmt::Display for BuildAlarmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildAlarmError::GraceShorterThanWindow { window, grace } => write!(
                f,
                "grace interval {grace} is shorter than window interval {window}"
            ),
            BuildAlarmError::GraceNotBelowRepeat { grace, repeat } => write!(
                f,
                "grace interval {grace} is not strictly below the repeating interval {repeat}"
            ),
            BuildAlarmError::ZeroRepeatInterval => {
                f.write_str("repeating interval must be positive; use a one-shot alarm instead")
            }
            BuildAlarmError::FractionWithoutRepeat { fraction } => {
                write!(f, "interval fraction {fraction} requires a repeating alarm")
            }
            BuildAlarmError::FractionOutOfRange { fraction } => {
                write!(f, "interval fraction {fraction} is outside [0, 1)")
            }
        }
    }
}

impl Error for BuildAlarmError {}

/// Error returned by
/// [`AlarmManager::register`](crate::manager::AlarmManager::register) and by
/// the simulator's registration front door.
///
/// The builder already enforces the paper's interval constraints, but the
/// manager re-validates at registration: degenerate alarms can reach it via
/// the trusted [`Alarm::restore`](crate::alarm::Alarm::restore) constructor
/// (a corrupted or adversarial snapshot), and silently enqueueing them would
/// break the once-per-period delivery guarantee the policies depend on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegisterAlarmError {
    /// The alarm's nominal delivery time lies before the manager's current
    /// clock — alarms cannot be scheduled in the past.
    NominalInPast {
        /// The offending alarm.
        id: AlarmId,
    },
    /// A repeating alarm carries a zero repeating interval, which would
    /// make the reinsertion loop in `complete_delivery` spin forever.
    ZeroRepeatInterval {
        /// The offending alarm.
        id: AlarmId,
    },
    /// The window interval is longer than the repeating interval, so
    /// consecutive windows would overlap and once-per-period delivery
    /// could double up.
    WindowExceedsRepeat {
        /// The offending alarm.
        id: AlarmId,
        /// The window interval length.
        window: SimDuration,
        /// The repeating interval.
        repeat: SimDuration,
    },
    /// The grace interval is shorter than the window interval, which would
    /// let SIMTY deliver *earlier* than NATIVE allows (§3.1.2).
    GraceShorterThanWindow {
        /// The offending alarm.
        id: AlarmId,
        /// The window interval length.
        window: SimDuration,
        /// The grace interval length.
        grace: SimDuration,
    },
    /// A repeating alarm's grace interval is not strictly below its
    /// repeating interval, which would break once-per-period delivery
    /// (§3.2.2).
    GraceNotBelowRepeat {
        /// The offending alarm.
        id: AlarmId,
        /// The grace interval length.
        grace: SimDuration,
        /// The repeating interval.
        repeat: SimDuration,
    },
    /// The alarm's grace fraction β is not a finite number (defensive: a
    /// degenerate repeat/grace pairing slipped past every other check).
    NonFiniteGraceFraction {
        /// The offending alarm.
        id: AlarmId,
    },
    /// The owning app is out of registration tokens and the registration
    /// could not be deferred (see `simty_core::admission`).
    QuotaExceeded {
        /// The rejected alarm.
        id: AlarmId,
        /// How long until the app's token bucket earns its next token.
        retry_after: SimDuration,
    },
    /// The degradation governor shed this deferrable registration to
    /// preserve standby life under critical battery.
    RegistrationShed {
        /// The shed alarm.
        id: AlarmId,
    },
}

impl fmt::Display for RegisterAlarmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegisterAlarmError::NominalInPast { id } => {
                write!(f, "alarm {id} has a nominal delivery time in the past")
            }
            RegisterAlarmError::ZeroRepeatInterval { id } => {
                write!(f, "alarm {id} repeats with a zero interval")
            }
            RegisterAlarmError::WindowExceedsRepeat { id, window, repeat } => write!(
                f,
                "alarm {id} window {window} exceeds its repeating interval {repeat}"
            ),
            RegisterAlarmError::GraceShorterThanWindow { id, window, grace } => write!(
                f,
                "alarm {id} grace {grace} is shorter than its window {window}"
            ),
            RegisterAlarmError::GraceNotBelowRepeat { id, grace, repeat } => write!(
                f,
                "alarm {id} grace {grace} is not strictly below its repeating interval {repeat}"
            ),
            RegisterAlarmError::NonFiniteGraceFraction { id } => {
                write!(f, "alarm {id} has a non-finite grace fraction")
            }
            RegisterAlarmError::QuotaExceeded { id, retry_after } => write!(
                f,
                "alarm {id} rejected: registration quota exhausted (retry after {retry_after})"
            ),
            RegisterAlarmError::RegistrationShed { id } => write!(
                f,
                "alarm {id} shed by the degradation governor under critical battery"
            ),
        }
    }
}

impl Error for RegisterAlarmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = BuildAlarmError::GraceShorterThanWindow {
            window: SimDuration::from_secs(10),
            grace: SimDuration::from_secs(5),
        };
        assert_eq!(
            e.to_string(),
            "grace interval 5s is shorter than window interval 10s"
        );
        let e = BuildAlarmError::ZeroRepeatInterval;
        assert!(e
            .to_string()
            .starts_with("repeating interval must be positive"));
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BuildAlarmError>();
        assert_send_sync::<RegisterAlarmError>();
    }
}
