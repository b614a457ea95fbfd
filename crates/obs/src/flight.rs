//! The always-on query flight recorder: a bounded ring buffer of
//! completed-run records.
//!
//! Every query run — successful *or* failed, shed, cancelled or past
//! its deadline — leaves one [`FlightRecord`] behind, so an operator
//! can reconstruct recent history after the fact without having had
//! tracing or logging aimed at the right query in advance. The ring
//! is bounded ([`DEFAULT_FLIGHT_CAPACITY`] records unless configured
//! otherwise) and recording is a short mutex-guarded push, so the
//! recorder is safe to leave on in production: the differential test
//! in `mwtj-core` proves capacity 0 and capacity 256 produce
//! bit-identical query results, plans and simulated metrics.
//!
//! Runs slower than the engine's slow-query threshold additionally
//! retain their full [`QueryProfile`] tree, fetchable by trace id —
//! the flight-recorder analogue of `EXPLAIN ANALYZE` for a query
//! nobody was watching.
//!
//! The engine materialises the ring as the `sys.queries` and
//! `sys.jobs` virtual relations, so history is queryable with the
//! same theta-join SQL the engine serves.

use crate::trace::QueryProfile;
use std::collections::VecDeque;
use std::sync::Mutex;

/// Ring capacity when none is configured: enough to cover a burst of
/// traffic without unbounded memory (each record is a few hundred
/// bytes plus its per-job rows).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// How a recorded run ended. Distinct variants for admission refusals
/// and deadline kills — today's failure modes that would otherwise
/// vanish from history — so `sys.queries` can be filtered by outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The run completed and returned rows.
    Ok,
    /// The run failed with an execution error.
    Error,
    /// Admission refused the run (queue full / shutting down).
    Shed,
    /// The run exceeded its deadline (at admission or mid-execution).
    Deadline,
    /// The run was cancelled by its caller.
    Cancelled,
}

impl Outcome {
    /// Stable lowercase label, used as the `outcome` column of
    /// `sys.queries` and as the `outcome` label of the registry's
    /// `mwtj_query_outcomes_total` counter.
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Error => "error",
            Outcome::Shed => "shed",
            Outcome::Deadline => "deadline",
            Outcome::Cancelled => "cancelled",
        }
    }
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Per-job summary carried inside a [`FlightRecord`] — the engine
/// flattens these into `sys.jobs` rows. A plain-field mirror of the
/// executor's job metrics so this crate stays dependency-free.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Job name (`mrj0`, …) in execution order.
    pub name: String,
    /// Processing units the job was allotted.
    pub units: u32,
    /// Map task count.
    pub map_tasks: u32,
    /// Reduce task count.
    pub reduce_tasks: u32,
    /// Total input records.
    pub input_records: u64,
    /// Total output records.
    pub output_records: u64,
    /// Shuffle (map-output) bytes.
    pub shuffle_bytes: u64,
    /// Priced reduce candidates (what the simulated clock charges).
    pub candidates: u64,
    /// Candidates the host really visited, where the job counts them.
    pub examined: Option<u64>,
    /// Shuffle records priced but not moved (rows proven dead).
    pub elided: u64,
    /// Simulated makespan of the job, seconds.
    pub sim_secs: f64,
    /// Host wall-clock seconds spent executing.
    pub real_secs: f64,
    /// Fraction of input rows zone maps skipped, in [0, 1].
    pub skip_fraction: f64,
    /// Task attempts really executed (map + reduce, incl. reruns).
    pub attempts: u64,
    /// Attempts that really aborted mid-execution and were rerun.
    pub real_retries: u64,
    /// Task panics caught by the engine's panic isolation.
    pub panics_caught: u64,
}

/// One completed (or refused) run, as remembered by the recorder —
/// one future `sys.queries` row plus its `sys.jobs` children.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecord {
    /// The run's process-unique trace id.
    pub trace_id: u64,
    /// Query shape (alias-normalised SQL skeleton) or query name.
    pub shape: String,
    /// Evaluation method label (`ours`, `hive`, …).
    pub method: String,
    /// Partition strategy label (`hilbert`, `grid`, `zorder`).
    pub partition: String,
    /// Units the admission request asked for.
    pub requested_units: u32,
    /// Units admission granted (< requested = degraded; 0 = exempt).
    pub granted_units: u32,
    /// Whether the run waited in the admission queue.
    pub queued: bool,
    /// End-to-end host wall-clock milliseconds.
    pub wall_ms: f64,
    /// Achieved simulated makespan, seconds.
    pub sim_secs: f64,
    /// Rows in the final output.
    pub rows_out: u64,
    /// Run-wide zone-map skip fraction, in [0, 1].
    pub skip_fraction: f64,
    /// Task attempts really executed across all jobs.
    pub attempts: u64,
    /// Real mid-execution retries across all jobs.
    pub real_retries: u64,
    /// Panics caught across all jobs.
    pub panics_caught: u64,
    /// How the run ended.
    pub outcome: Outcome,
    /// Admission ticket the run executed under (0 = exempt/refused).
    pub ticket: u64,
    /// Per-job summaries in execution order (empty for refused runs).
    pub jobs: Vec<JobRecord>,
}

/// Ring state behind the recorder's mutex.
struct Inner {
    ring: VecDeque<FlightRecord>,
    profiles: VecDeque<QueryProfile>,
    recorded: u64,
}

/// The bounded, always-on completed-run ring buffer. Thread-safe:
/// recording and reading take one short mutex. A capacity of 0
/// disables the recorder entirely — every call becomes a no-op — which
/// is what the observation-only differential test runs against.
pub struct FlightRecorder {
    inner: Mutex<Inner>,
    capacity: usize,
    profile_capacity: usize,
}

impl FlightRecorder {
    /// A recorder with the default capacity
    /// ([`DEFAULT_FLIGHT_CAPACITY`]).
    pub fn new() -> FlightRecorder {
        FlightRecorder::with_capacity(DEFAULT_FLIGHT_CAPACITY)
    }

    /// A recorder holding at most `capacity` records; 0 disables
    /// recording. Slow-run profiles get their own smaller ring
    /// (`capacity / 4`, at least 1 when enabled) since a retained
    /// profile tree is much heavier than a flight record.
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        let profile_capacity = if capacity == 0 {
            0
        } else {
            (capacity / 4).max(1)
        };
        FlightRecorder {
            inner: Mutex::new(Inner {
                ring: VecDeque::new(),
                profiles: VecDeque::new(),
                recorded: 0,
            }),
            capacity,
            profile_capacity,
        }
    }

    /// The configured ring capacity (0 = disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The slow-run profile ring capacity.
    pub fn profile_capacity(&self) -> usize {
        self.profile_capacity
    }

    /// Whether recording is on (capacity > 0).
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Append one completed-run record, evicting the oldest when the
    /// ring is full. No-op when disabled.
    pub fn record(&self, record: FlightRecord) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
        }
        inner.ring.push_back(record);
        inner.recorded += 1;
    }

    /// Retain a slow run's full profile tree, evicting the oldest
    /// when the profile ring is full. No-op when disabled.
    pub fn record_profile(&self, profile: QueryProfile) {
        if self.profile_capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        if inner.profiles.len() == self.profile_capacity {
            inner.profiles.pop_front();
        }
        inner.profiles.push_back(profile);
    }

    /// The most recent `n` records, newest first.
    pub fn recent(&self, n: usize) -> Vec<FlightRecord> {
        let inner = self.inner.lock().unwrap();
        inner.ring.iter().rev().take(n).cloned().collect()
    }

    /// Every retained record, newest first.
    pub fn all(&self) -> Vec<FlightRecord> {
        self.recent(usize::MAX)
    }

    /// The retained profile of `trace_id`, if that run was slow
    /// enough to keep and has not been evicted.
    pub fn profile(&self, trace_id: u64) -> Option<QueryProfile> {
        let inner = self.inner.lock().unwrap();
        inner
            .profiles
            .iter()
            .rev()
            .find(|p| p.trace_id == trace_id)
            .cloned()
    }

    /// Records currently retained (≤ capacity).
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().ring.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total records ever recorded (monotone; keeps counting after
    /// the ring wraps).
    pub fn total_recorded(&self) -> u64 {
        self.inner.lock().unwrap().recorded
    }
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SpanRecord;

    fn rec(trace_id: u64) -> FlightRecord {
        FlightRecord {
            trace_id,
            shape: format!("q{trace_id}"),
            method: "ours".into(),
            partition: "hilbert".into(),
            requested_units: 4,
            granted_units: 4,
            queued: false,
            wall_ms: 1.0,
            sim_secs: 0.5,
            rows_out: 10,
            skip_fraction: 0.0,
            attempts: 2,
            real_retries: 0,
            panics_caught: 0,
            outcome: Outcome::Ok,
            ticket: trace_id,
            jobs: Vec::new(),
        }
    }

    fn profile(trace_id: u64) -> QueryProfile {
        QueryProfile {
            trace_id,
            root: SpanRecord::synthetic("query"),
        }
    }

    #[test]
    fn ring_wraps_evicting_oldest() {
        let r = FlightRecorder::with_capacity(3);
        for t in 1..=5 {
            r.record(rec(t));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.total_recorded(), 5);
        let ids: Vec<u64> = r.all().iter().map(|x| x.trace_id).collect();
        assert_eq!(ids, vec![5, 4, 3], "newest first, 1 and 2 evicted");
        let ids: Vec<u64> = r.recent(2).iter().map(|x| x.trace_id).collect();
        assert_eq!(ids, vec![5, 4]);
    }

    #[test]
    fn capacity_zero_disables_everything() {
        let r = FlightRecorder::with_capacity(0);
        assert!(!r.is_enabled());
        r.record(rec(1));
        r.record_profile(profile(1));
        assert!(r.is_empty());
        assert_eq!(r.total_recorded(), 0);
        assert_eq!(r.profile(1), None);
        assert_eq!(r.profile_capacity(), 0);
    }

    #[test]
    fn slow_profiles_retained_and_bounded() {
        let r = FlightRecorder::with_capacity(8);
        assert_eq!(r.profile_capacity(), 2);
        r.record_profile(profile(1));
        r.record_profile(profile(2));
        assert_eq!(r.profile(1).unwrap().trace_id, 1);
        r.record_profile(profile(3));
        assert_eq!(r.profile(1), None, "oldest profile evicted");
        assert_eq!(r.profile(2).unwrap().trace_id, 2);
        assert_eq!(r.profile(3).unwrap().trace_id, 3);
        assert_eq!(r.profile(99), None);
    }

    #[test]
    fn tiny_capacity_still_keeps_one_profile() {
        let r = FlightRecorder::with_capacity(1);
        assert_eq!(r.profile_capacity(), 1);
        r.record_profile(profile(7));
        assert_eq!(r.profile(7).unwrap().trace_id, 7);
    }

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(Outcome::Ok.as_str(), "ok");
        assert_eq!(Outcome::Error.as_str(), "error");
        assert_eq!(Outcome::Shed.as_str(), "shed");
        assert_eq!(Outcome::Deadline.as_str(), "deadline");
        assert_eq!(Outcome::Cancelled.as_str(), "cancelled");
        assert_eq!(Outcome::Deadline.to_string(), "deadline");
    }

    #[test]
    fn concurrent_recording_keeps_every_record_bounded() {
        let r = std::sync::Arc::new(FlightRecorder::with_capacity(64));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let r = std::sync::Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    r.record(rec(t * 1000 + i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.total_recorded(), 800);
        assert_eq!(r.len(), 64);
    }
}
