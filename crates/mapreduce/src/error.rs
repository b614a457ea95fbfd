//! Typed errors for the execution paths.
//!
//! The engine and cluster historically panicked on malformed plans
//! (missing DFS files, oversubscribed stages). A serving system cannot
//! afford that: a bad query must fail *that query*, not the process.
//! [`ExecError`] is the execution half of the workspace-wide error
//! story; `mwtj-planner` wraps it in `PlanError`, and `mwtj-core`
//! surfaces both as `EngineError`.

use std::fmt;

/// An execution-layer failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A job referenced a DFS file that does not exist.
    MissingFile {
        /// The missing file's name.
        name: String,
    },
    /// A stage requested more concurrent processing units than the
    /// cluster has (`ΣRN > k_P`).
    Oversubscribed {
        /// Stage ordinal in the plan.
        stage: usize,
        /// Units the stage's jobs requested in total.
        requested: u32,
        /// The cluster's processing-unit budget.
        k_p: u32,
    },
    /// A plan with no stages was submitted.
    EmptyPlan,
    /// A structurally invalid job request (zero units or reducers).
    BadRequest {
        /// Human-readable description of the invalid request.
        detail: String,
    },
    /// The receiver of a streamed run's row batches went away before
    /// the run finished (the consumer dropped its result stream), or
    /// the run's cancellation token was flipped explicitly; the run
    /// was aborted and its partial output discarded.
    Cancelled,
    /// The run's real-time deadline passed before it finished; the
    /// in-flight jobs were cancelled cooperatively and the partial
    /// output discarded.
    DeadlineExceeded,
    /// One task kept failing (injected fault or a real caught panic)
    /// until its attempt budget ran out. The whole job — and the query
    /// above it — fails with this typed error instead of a panic; the
    /// admission ticket and intermediate DFS files are released on the
    /// ordinary error path.
    TaskFailed {
        /// Which phase the task belonged to (`"map"` or `"reduce"`).
        stage: &'static str,
        /// The task's index within its phase.
        task: u32,
        /// How many attempts were made (the plan's `max_attempts`).
        attempts: u32,
        /// The last attempt's failure (panic payload or injected
        /// error text).
        detail: String,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::MissingFile { name } => write!(f, "missing DFS file `{name}`"),
            ExecError::Oversubscribed {
                stage,
                requested,
                k_p,
            } => write!(f, "stage {stage} requests {requested} units > k_P = {k_p}"),
            ExecError::EmptyPlan => write!(f, "plan had no stages"),
            ExecError::BadRequest { detail } => write!(f, "bad job request: {detail}"),
            ExecError::Cancelled => {
                write!(f, "run cancelled: the result-stream receiver went away")
            }
            ExecError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ExecError::TaskFailed {
                stage,
                task,
                attempts,
                detail,
            } => write!(
                f,
                "{stage} task {task} failed after {attempts} attempt(s): {detail}"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_stable() {
        let e = ExecError::Oversubscribed {
            stage: 2,
            requested: 40,
            k_p: 16,
        };
        // The cluster's legacy panic message grep-matches this text.
        assert_eq!(e.to_string(), "stage 2 requests 40 units > k_P = 16");
        assert!(ExecError::MissingFile { name: "x".into() }
            .to_string()
            .contains("`x`"));
    }
}
