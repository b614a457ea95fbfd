//! Execution metrics for one MRJ, on both clocks.

/// Everything measured while running one job: real byte/record counts
/// (ground truth for the cost model) and the simulated-clock phase
/// timings that realise the paper's Fig. 3 execution structure.
#[derive(Debug, Clone, Default)]
pub struct JobMetrics {
    /// Job name.
    pub name: String,
    /// Admission ticket of the query this job ran under (0 when the
    /// job was not admission-controlled). Every job of one query run
    /// carries the same ticket, so a server can attribute per-job
    /// metrics to the client request that caused them.
    pub ticket: u64,
    /// Trace id of the query run this job belongs to (0 when the job
    /// ran outside a traced query, e.g. calibration). Stamped by the
    /// engine after execution, purely for correlation — never read by
    /// the runtime.
    pub trace_id: u64,
    /// Number of map tasks (= input blocks).
    pub map_tasks: u32,
    /// Number of reduce tasks `n` (`RN(MRJ)` in the paper).
    pub reduce_tasks: u32,
    /// Processing units the job was allotted (bounds map and reduce
    /// parallelism).
    pub units: u32,

    /// Total input bytes `S_I`.
    pub input_bytes: u64,
    /// Total input records.
    pub input_records: u64,
    /// Total map-output (= shuffle) bytes `S_CP`.
    pub map_output_bytes: u64,
    /// Total map-output records.
    pub map_output_records: u64,
    /// Map-output records priced but not moved: the records of rows the
    /// job's [`DeadRows`](crate::DeadRows) filter proved dead. Included
    /// in `map_output_records`/`_bytes` and in reducer input bytes.
    pub shuffle_elided: u64,
    /// Largest single reduce task input in bytes (`S*_r`, the skew term
    /// the paper bounds with the three-sigma rule).
    pub reduce_input_max_bytes: u64,
    /// Mean reduce task input in bytes.
    pub reduce_input_mean_bytes: f64,
    /// Total *priced* candidate combinations: what the textbook
    /// reducers would check — the CPU work the simulated clock charges.
    pub reduce_candidates: u64,
    /// Candidates the host really visited to produce the same rows,
    /// retried attempts included; below `reduce_candidates` when a
    /// kernel skipped work the simulated clock still prices. `None`
    /// when the job does not count its visits
    /// ([`MrJob::reduce_examined`](crate::MrJob::reduce_examined)).
    pub reduce_examined: Option<u64>,
    /// Total output bytes.
    pub output_bytes: u64,
    /// Total output records.
    pub output_records: u64,

    /// Simulated seconds when the last map task finished (`J_M` +
    /// queueing across waves).
    pub sim_map_end_secs: f64,
    /// Simulated seconds when the last map output finished copying
    /// (end of the copy phase; overlaps the map phase as in Fig. 3).
    pub sim_shuffle_end_secs: f64,
    /// Simulated seconds when the last reduce task finished — the job
    /// makespan `T`.
    pub sim_total_secs: f64,
    /// Host wall-clock seconds actually spent executing.
    pub real_secs: f64,
    /// Host wall-clock split of `real_secs` (the three sum to it):
    /// input collection + map tasks, moving map output into reducer
    /// buffers, and reduce tasks + output assembly. Observation only —
    /// nothing reads these back.
    pub real_map_secs: f64,
    /// See [`JobMetrics::real_map_secs`].
    pub real_shuffle_secs: f64,
    /// See [`JobMetrics::real_map_secs`].
    pub real_reduce_secs: f64,
    /// Total map task attempts (= map_tasks when no faults injected).
    pub map_attempts: u32,
    /// Total reduce task attempts (= reduce_tasks when no faults).
    pub reduce_attempts: u32,
    /// Map attempts that *really* aborted mid-execution and were rerun
    /// on the host (not just simulated-clock charges).
    pub real_map_retries: u32,
    /// Reduce attempts that really aborted and were rerun on the host.
    pub real_reduce_retries: u32,
    /// Task panics caught by the engine's `catch_unwind` isolation
    /// (injected panic-mode faults plus any real job panics).
    pub panics_caught: u32,

    /// Input blocks considered by zone-map routing (= map tasks before
    /// skipping; 0 when skipping was off or the job had no filter).
    pub zone_blocks: u64,
    /// Blocks skipped unread — their predicate ranges cannot intersect
    /// any partner block.
    pub zone_blocks_pruned: u64,
    /// Block pairs the skip filter examined across the predicate graph.
    pub zone_pairs: u64,
    /// Block pairs proven empty by zone ranges.
    pub zone_pairs_pruned: u64,
    /// Rows in all considered blocks (kept + pruned).
    pub zone_rows_total: u64,
    /// Rows whose map emissions were dropped: all rows of pruned blocks
    /// plus individually pruned rows of kept blocks.
    pub zone_rows_pruned: u64,
}

impl JobMetrics {
    /// The map output ratio α = map-output bytes / input bytes.
    pub fn alpha(&self) -> f64 {
        if self.input_bytes == 0 {
            0.0
        } else {
            self.map_output_bytes as f64 / self.input_bytes as f64
        }
    }

    /// The reduce output ratio β = output bytes / shuffle bytes.
    pub fn beta(&self) -> f64 {
        if self.map_output_bytes == 0 {
            0.0
        } else {
            self.output_bytes as f64 / self.map_output_bytes as f64
        }
    }

    /// Reducer skew: max/mean input bytes (1.0 = perfectly balanced).
    pub fn skew(&self) -> f64 {
        if self.reduce_input_mean_bytes <= 0.0 {
            1.0
        } else {
            self.reduce_input_max_bytes as f64 / self.reduce_input_mean_bytes
        }
    }

    /// Fraction of input rows whose map work zone maps skipped, in
    /// [0, 1]. 0.0 when skipping was off or nothing was prunable.
    pub fn skip_fraction(&self) -> f64 {
        if self.zone_rows_total == 0 {
            0.0
        } else {
            self.zone_rows_pruned as f64 / self.zone_rows_total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_guard_division_by_zero() {
        let m = JobMetrics::default();
        assert_eq!(m.alpha(), 0.0);
        assert_eq!(m.beta(), 0.0);
        assert_eq!(m.skew(), 1.0);
    }

    #[test]
    fn ratios_compute() {
        let m = JobMetrics {
            input_bytes: 100,
            map_output_bytes: 50,
            output_bytes: 25,
            reduce_input_max_bytes: 20,
            reduce_input_mean_bytes: 10.0,
            ..Default::default()
        };
        assert!((m.alpha() - 0.5).abs() < 1e-12);
        assert!((m.beta() - 0.5).abs() < 1e-12);
        assert!((m.skew() - 2.0).abs() < 1e-12);
    }
}
