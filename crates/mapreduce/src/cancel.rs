//! Cooperative cancellation for in-flight jobs: a shared token that a
//! query's owner (a dropped stream, a deadline, a shutdown path) flips
//! once, and that every task attempt, reducer batch and per-job
//! dispatch checks at block/batch granularity.
//!
//! The token is deliberately *cooperative*: nothing is interrupted
//! mid-instruction. Execution polls [`CancelToken::check`] at natural
//! boundaries (attempt start, batch emit, job dispatch) and unwinds
//! with a typed error — [`ExecError::Cancelled`] for an explicit
//! cancel, [`ExecError::DeadlineExceeded`] when the token's wall-clock
//! deadline has passed — so the usual error path releases the
//! admission ticket and `__run<tag>_` DFS files exactly as any other
//! failure does.

use crate::error::ExecError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cheaply-cloneable cancellation token with an optional real-time
/// deadline. All clones share one flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that never fires until [`CancelToken::cancel`] is
    /// called.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token that additionally expires `ms` milliseconds of host
    /// wall-clock from now (per-query deadlines).
    pub fn with_timeout_ms(ms: u64) -> CancelToken {
        CancelToken {
            cancelled: Arc::new(AtomicBool::new(false)),
            deadline: Some(Instant::now() + Duration::from_millis(ms)),
        }
    }

    /// Flip the shared flag; every clone observes it on its next
    /// [`CancelToken::check`].
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// Whether the flag has been flipped (does not consider the
    /// deadline).
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }

    /// The real-time deadline, if the token carries one (admission
    /// waits bound their parking on it).
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Poll the token: `Err(DeadlineExceeded)` once the deadline has
    /// passed, `Err(Cancelled)` once the flag is set, `Ok(())`
    /// otherwise. The deadline is checked first so a run killed *by*
    /// its deadline reports the deadline, not a generic cancel.
    pub fn check(&self) -> Result<(), ExecError> {
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(ExecError::DeadlineExceeded);
            }
        }
        if self.is_cancelled() {
            return Err(ExecError::Cancelled);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_flag() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(token.check().is_ok());
        clone.cancel();
        assert!(token.is_cancelled());
        assert_eq!(token.check(), Err(ExecError::Cancelled));
    }

    #[test]
    fn expired_deadline_reports_deadline_not_cancel() {
        let token = CancelToken::with_timeout_ms(0);
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(token.check(), Err(ExecError::DeadlineExceeded));
        // Even when also cancelled, the deadline wins.
        token.cancel();
        assert_eq!(token.check(), Err(ExecError::DeadlineExceeded));
    }

    #[test]
    fn live_deadline_passes_checks() {
        let token = CancelToken::with_timeout_ms(60_000);
        assert!(token.deadline().is_some());
        assert!(token.check().is_ok());
    }
}
