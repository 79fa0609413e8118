//! Verbosity levels shared by the tracing layer and its subscribers.

use std::fmt;
use std::str::FromStr;

/// Severity / verbosity of an event, ordered from most to least severe.
///
/// The numeric representation is load-bearing: the global fast-path filter
/// stores the installed subscriber's maximum level as a `u8` and compares
/// with a single relaxed atomic load (`0` means "no subscriber").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Level {
    /// The operation failed; output is wrong or missing.
    Error = 1,
    /// Something degraded (clamped parameter, rejected refit, low R²).
    Warn = 2,
    /// Progress milestones (experiment started, batch finished).
    Info = 3,
    /// Solver internals (chosen t₁, candidate counts, refit decisions).
    Debug = 4,
    /// Per-span exit timings and high-volume diagnostics.
    Trace = 5,
}

impl Level {
    /// Lower-case name as used by `RSJ_LOG` and the exporters.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Fixed-width upper-case tag for the stderr logger.
    pub(crate) fn tag(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN ",
            Level::Info => "INFO ",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error returned when parsing an unknown level name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLevelError(pub String);

impl fmt::Display for ParseLevelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown log level: {:?} (use error|warn|info|debug|trace|off)",
            self.0
        )
    }
}

impl std::error::Error for ParseLevelError {}

impl FromStr for Level {
    type Err = ParseLevelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Ok(Level::Error),
            "warn" | "warning" => Ok(Level::Warn),
            "info" => Ok(Level::Info),
            "debug" => Ok(Level::Debug),
            "trace" => Ok(Level::Trace),
            other => Err(ParseLevelError(other.to_string())),
        }
    }
}

/// Parses an `RSJ_LOG`-style value: a [`Level`], or `off`/`none`/`0` for
/// "no logging" (`None`).
pub fn parse_filter(s: &str) -> Result<Option<Level>, ParseLevelError> {
    match s.to_ascii_lowercase().as_str() {
        "off" | "none" | "0" | "" => Ok(None),
        _ => s.parse().map(Some),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_severity() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
        assert!(Level::Debug < Level::Trace);
    }

    #[test]
    fn parse_round_trips() {
        for lvl in [
            Level::Error,
            Level::Warn,
            Level::Info,
            Level::Debug,
            Level::Trace,
        ] {
            assert_eq!(lvl.as_str().parse::<Level>().unwrap(), lvl);
        }
        assert_eq!("WARNING".parse::<Level>().unwrap(), Level::Warn);
        assert!("verbose".parse::<Level>().is_err());
    }

    #[test]
    fn filter_accepts_off() {
        assert_eq!(parse_filter("off").unwrap(), None);
        assert_eq!(parse_filter("").unwrap(), None);
        assert_eq!(parse_filter("debug").unwrap(), Some(Level::Debug));
        assert!(parse_filter("nope").is_err());
    }
}
