//! Typed errors for the simulation crate's fallible surfaces.
//!
//! The library used to panic (`unwrap`/`expect`) on I/O and misuse paths;
//! callers like the CLI need to distinguish "the run is broken" from "the
//! disk is full" and exit non-zero instead of aborting. Every fallible
//! non-test path in `simty_sim` now funnels into [`SimError`].

use std::fmt;
use std::io;

use crate::checkpoint::CheckpointError;
use crate::trace::ParseTraceError;

/// Any error the simulation crate can surface to a caller.
#[derive(Debug)]
pub enum SimError {
    /// A report was requested before the simulation ran (zero observed
    /// span; every rate metric would divide by zero).
    ReportBeforeRun,
    /// An underlying I/O operation (trace CSV, report emission,
    /// checkpoint persistence) failed.
    Io(io::Error),
    /// A trace CSV could not be parsed.
    ParseTrace(ParseTraceError),
    /// A checkpoint could not be captured, persisted, or restored.
    Checkpoint(CheckpointError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ReportBeforeRun => f.write_str("report requested before the simulation ran"),
            SimError::Io(e) => write!(f, "i/o error: {e}"),
            SimError::ParseTrace(e) => write!(f, "{e}"),
            SimError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::ReportBeforeRun => None,
            SimError::Io(e) => Some(e),
            SimError::ParseTrace(e) => Some(e),
            SimError::Checkpoint(e) => Some(e),
        }
    }
}

impl From<io::Error> for SimError {
    fn from(e: io::Error) -> Self {
        SimError::Io(e)
    }
}

impl From<ParseTraceError> for SimError {
    fn from(e: ParseTraceError) -> Self {
        SimError::ParseTrace(e)
    }
}

impl From<CheckpointError> for SimError {
    fn from(e: CheckpointError) -> Self {
        SimError::Checkpoint(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(SimError::ReportBeforeRun.to_string().contains("before"));
        let io_err: SimError = io::Error::other("boom").into();
        assert!(io_err.to_string().contains("boom"));
        let parse: SimError = ParseTraceError {
            line: 3,
            message: "bad field".into(),
        }
        .into();
        assert!(parse.to_string().contains("line 3"));
    }
}
