//! Cooperative cancellation for long solver runs.
//!
//! A [`CancelToken`] combines an explicit cancellation flag (raised by
//! another thread via [`CancelToken::cancel`]) with an optional wall-clock
//! deadline. Solvers poll it at loop granularity — once per DP state, once
//! per brute-force candidate — and bail out with [`CoreError::Cancelled`]
//! instead of finishing a result nobody will read. This is what lets a
//! serving layer enforce per-request deadlines *inside* a solve rather
//! than only before it starts.
//!
//! The default token ([`CancelToken::none`]) carries neither flag nor
//! deadline; checking it is a branch on two `None`s, so un-cancellable
//! call sites pay nothing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::error::{CoreError, Result};

/// A cloneable cancellation signal: an optional shared flag plus an
/// optional deadline. Clones observe the same flag, so cancelling any
/// clone cancels them all.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Option<Arc<AtomicBool>>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that can never fire: no flag, no deadline.
    pub fn none() -> Self {
        Self::default()
    }

    /// A token with a flag that [`cancel`](Self::cancel) raises.
    pub fn new() -> Self {
        Self {
            flag: Some(Arc::new(AtomicBool::new(false))),
            deadline: None,
        }
    }

    /// A flagged token that also fires once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        Self {
            flag: Some(Arc::new(AtomicBool::new(false))),
            deadline: Some(deadline),
        }
    }

    /// Raises the flag. Idempotent; a no-op on flagless tokens.
    pub fn cancel(&self) {
        if let Some(flag) = &self.flag {
            flag.store(true, Ordering::Relaxed);
        }
    }

    /// Whether the flag is up or the deadline has passed.
    pub(crate) fn is_cancelled(&self) -> bool {
        if let Some(flag) = &self.flag {
            if flag.load(Ordering::Relaxed) {
                return true;
            }
        }
        match self.deadline {
            Some(deadline) => Instant::now() >= deadline,
            None => false,
        }
    }

    /// `Err(CoreError::Cancelled)` once the token has fired — the form
    /// solver loops use with `?`.
    pub fn check(&self) -> Result<()> {
        if self.is_cancelled() {
            return Err(CoreError::Cancelled);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn none_never_fires() {
        let t = CancelToken::none();
        assert!(!t.is_cancelled());
        t.cancel(); // no-op, must not panic
        assert!(!t.is_cancelled());
        assert!(t.check().is_ok());
    }

    #[test]
    fn flag_is_shared_across_clones() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!clone.is_cancelled());
        t.cancel();
        assert!(clone.is_cancelled());
        assert_eq!(clone.check(), Err(CoreError::Cancelled));
    }

    #[test]
    fn past_deadline_fires_without_cancel() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_cancelled());
        let future = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!future.is_cancelled());
    }
}
