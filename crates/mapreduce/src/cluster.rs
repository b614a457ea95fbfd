//! Multi-MRJ plans: stages of concurrently-scheduled jobs with
//! dependencies through DFS files, executed under a global budget of
//! `k_P` processing units.
//!
//! This realises the paper's §4.2 execution model (Fig. 4): within a
//! *stage*, jobs run in parallel, each with its own unit allotment
//! (`RN(MRJ)`); a stage's simulated duration is the longest of its
//! jobs; stages run in sequence because later jobs consume files the
//! earlier ones materialise. The planner (crate `mwtj-planner`) decides
//! the stage structure and allotments; the cluster just executes and
//! accounts.

use crate::cancel::CancelToken;
use crate::config::ClusterConfig;
use crate::dfs::Dfs;
use crate::engine::Engine;
use crate::error::ExecError;
use crate::faults::FaultPlan;
use crate::job::{InputSpec, MrJob};
use crate::metrics::JobMetrics;
use crate::sink::SinkSpec;
use mwtj_storage::Relation;

/// One job inside a plan.
pub struct PlanJob {
    /// The job implementation.
    pub job: Box<dyn MrJob>,
    /// Its inputs (may name files produced by earlier stages).
    pub inputs: Vec<InputSpec>,
    /// Reduce task count `RN(MRJ)`.
    pub reducers: u32,
    /// Processing units allotted (≥ reducers is typical; map waves and
    /// reduce waves both run within this allotment).
    pub units: u32,
    /// DFS file to materialise the output under. `None` only for the
    /// terminal job, whose output is returned in memory.
    pub out_file: Option<String>,
    /// Stream the job's output through this sink as ordered row
    /// batches instead of materialising it (terminal jobs only;
    /// mutually exclusive with `out_file`). The job's in-memory output
    /// is then empty.
    pub sink: Option<SinkSpec>,
}

/// A stage: jobs that run concurrently. The sum of their `units` must
/// not exceed the cluster's `processing_units`; the constructor checks.
pub struct PlanStage {
    /// The concurrently-running jobs.
    pub jobs: Vec<PlanJob>,
}

/// Result of executing a plan.
#[derive(Debug)]
pub struct PlanExecution {
    /// Output of the final stage's last job (the query answer).
    pub output: Relation,
    /// Per-job metrics in execution order.
    pub job_metrics: Vec<JobMetrics>,
    /// Simulated duration of each stage (max of its jobs).
    pub stage_secs: Vec<f64>,
    /// Total simulated makespan (sum of stage durations).
    pub total_secs: f64,
    /// Total host wall-clock seconds.
    pub real_secs: f64,
}

/// A cluster that can execute multi-stage plans.
pub struct Cluster {
    engine: Engine,
}

impl Cluster {
    /// Build a cluster with `config` over a fresh DFS.
    pub fn new(config: ClusterConfig) -> Self {
        Cluster {
            engine: Engine::new(config, Dfs::new()),
        }
    }

    /// Build a cluster over an existing DFS (shared with loaders).
    pub fn with_dfs(config: ClusterConfig, dfs: Dfs) -> Self {
        Cluster {
            engine: Engine::new(config, dfs),
        }
    }

    /// The single-job engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The DFS.
    pub fn dfs(&self) -> &Dfs {
        self.engine.dfs()
    }

    /// The configuration.
    pub fn config(&self) -> &ClusterConfig {
        self.engine.config()
    }

    /// Execute `stages` in order. Within a stage, each job runs with its
    /// own allotment; the stage's simulated time is the max of its
    /// jobs' makespans (they run concurrently on disjoint unit sets —
    /// the planner guarantees ΣRN ≤ k_P, and this method checks it).
    ///
    /// Returns the final job's output and full accounting.
    ///
    /// # Panics
    /// Panics on an invalid plan. Serving paths should prefer
    /// [`Cluster::try_run_plan`].
    pub fn run_plan(&self, stages: Vec<PlanStage>) -> PlanExecution {
        self.try_run_plan(stages, None, true, None)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`Cluster::run_plan`], but returns a typed error instead of
    /// panicking, optionally overrides the engine's fault plan for
    /// this run only (per-query fault profiles under concurrency),
    /// lets the caller disable zone-map data skipping for the run, and
    /// checks an optional [`CancelToken`] before dispatching each job
    /// (the token is also threaded into every job for task-granular
    /// checks, so a deadline or explicit cancel unwinds mid-stage).
    pub fn try_run_plan(
        &self,
        stages: Vec<PlanStage>,
        faults: Option<&FaultPlan>,
        skipping: bool,
        cancel: Option<&CancelToken>,
    ) -> Result<PlanExecution, ExecError> {
        let k_p = self.config().processing_units;
        let faults = faults.unwrap_or_else(|| self.engine.fault_plan());
        let wall = std::time::Instant::now();
        let mut job_metrics = Vec::new();
        let mut stage_secs = Vec::new();
        let mut last_output: Option<Relation> = None;
        let n_stages = stages.len();
        for (si, stage) in stages.into_iter().enumerate() {
            let total_units: u32 = stage.jobs.iter().map(|j| j.units).sum();
            if total_units > k_p {
                return Err(ExecError::Oversubscribed {
                    stage: si,
                    requested: total_units,
                    k_p,
                });
            }
            let mut stage_max = 0.0f64;
            let last_stage = si + 1 == n_stages;
            for pj in stage.jobs {
                if pj.sink.is_some() && pj.out_file.is_some() {
                    return Err(ExecError::BadRequest {
                        detail: format!(
                            "job `{}` has both a sink and out_file `{}`: streamed output is \
                             never persisted, pick one",
                            pj.job.name(),
                            pj.out_file.as_deref().unwrap_or_default()
                        ),
                    });
                }
                if let Some(token) = cancel {
                    token.check()?;
                }
                let run = match &pj.sink {
                    Some(spec) => self.engine.try_run_streamed(
                        pj.job.as_ref(),
                        &pj.inputs,
                        pj.units,
                        pj.reducers,
                        faults,
                        spec,
                        skipping,
                        cancel,
                    )?,
                    None => self.engine.try_run_with(
                        pj.job.as_ref(),
                        &pj.inputs,
                        pj.units,
                        pj.reducers,
                        pj.out_file.as_deref(),
                        faults,
                        skipping,
                        cancel,
                    )?,
                };
                stage_max = stage_max.max(run.metrics.sim_total_secs);
                job_metrics.push(run.metrics);
                if last_stage {
                    last_output = Some(run.output);
                }
            }
            stage_secs.push(stage_max);
        }
        let total_secs = stage_secs.iter().sum();
        Ok(PlanExecution {
            output: last_output.ok_or(ExecError::EmptyPlan)?,
            job_metrics,
            stage_secs,
            total_secs,
            real_secs: wall.elapsed().as_secs_f64(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::GROUP_BY_AUX;
    use crate::job::{Emit, TaggedRecord};
    use mwtj_storage::{tuple, DataType, Schema, Tuple};

    /// Identity-ish job that filters rows with col0 below `cut`.
    struct FilterBelow {
        cut: i64,
        name: String,
    }

    impl MrJob for FilterBelow {
        fn name(&self) -> String {
            self.name.clone()
        }

        fn output_schema(&self) -> Schema {
            Schema::from_pairs("f", &[("a", DataType::Int)])
        }

        fn map(&self, _tag: u8, row: &Tuple, _seed: u64, _ri: usize, emit: &mut Emit<'_>) {
            let v = row.get(0).as_int().unwrap();
            if v < self.cut {
                emit(
                    v as u64,
                    TaggedRecord {
                        tag: 0,
                        aux: GROUP_BY_AUX | v as u64,
                        tuple: row.clone(),
                    },
                );
            }
        }

        fn reduce_task(
            &self,
            _r: u64,
            records: &[TaggedRecord],
            _counted: &[u64],
            emit: &mut crate::job::ReduceEmit<'_>,
        ) -> u64 {
            for r in records {
                emit(r.tuple.clone(), r.tuple.encoded_len() as u64);
            }
            records.len() as u64
        }
    }

    fn cluster_with_data(rows: i64) -> Cluster {
        let cfg = ClusterConfig::default();
        let dfs = Dfs::new();
        let schema = Schema::from_pairs("t", &[("a", DataType::Int)]);
        let rel = Relation::from_rows_unchecked(schema, (0..rows).map(|i| tuple![i]).collect());
        dfs.put_relation("t", &rel, &cfg);
        Cluster::with_dfs(cfg, dfs)
    }

    #[test]
    fn two_stage_pipeline_chains_through_dfs() {
        let cluster = cluster_with_data(10_000);
        let stages = vec![
            PlanStage {
                jobs: vec![PlanJob {
                    job: Box::new(FilterBelow {
                        cut: 1000,
                        name: "stage1".into(),
                    }),
                    inputs: vec![InputSpec::new("t", 0)],
                    reducers: 4,
                    units: 8,
                    out_file: Some("mid".into()),
                    sink: None,
                }],
            },
            PlanStage {
                jobs: vec![PlanJob {
                    job: Box::new(FilterBelow {
                        cut: 100,
                        name: "stage2".into(),
                    }),
                    inputs: vec![InputSpec::new("mid", 0)],
                    reducers: 4,
                    units: 8,
                    out_file: None,
                    sink: None,
                }],
            },
        ];
        let exec = cluster.run_plan(stages);
        assert_eq!(exec.output.len(), 100);
        assert_eq!(exec.job_metrics.len(), 2);
        assert_eq!(exec.stage_secs.len(), 2);
        assert!((exec.total_secs - exec.stage_secs.iter().sum::<f64>()).abs() < 1e-12);
        // Stage 1 saw 10k rows, stage 2 saw 1k.
        assert_eq!(exec.job_metrics[0].input_records, 10_000);
        assert_eq!(exec.job_metrics[1].input_records, 1_000);
    }

    #[test]
    fn concurrent_jobs_cost_max_not_sum() {
        let cluster = cluster_with_data(20_000);
        let mk = |name: &str, out: &str| PlanJob {
            job: Box::new(FilterBelow {
                cut: 5000,
                name: name.into(),
            }),
            inputs: vec![InputSpec::new("t", 0)],
            reducers: 4,
            units: 8,
            out_file: Some(out.into()),
            sink: None,
        };
        let par = cluster.run_plan(vec![PlanStage {
            jobs: vec![mk("a", "pa"), mk("b", "pb")],
        }]);
        let seq = cluster.run_plan(vec![
            PlanStage {
                jobs: vec![mk("a", "sa")],
            },
            PlanStage {
                jobs: vec![mk("b", "sb")],
            },
        ]);
        assert!(
            par.total_secs < seq.total_secs,
            "parallel {} !< sequential {}",
            par.total_secs,
            seq.total_secs
        );
    }

    #[test]
    #[should_panic(expected = "units > k_P")]
    fn oversubscribed_stage_panics() {
        let cluster = cluster_with_data(10);
        let jobs = (0..20)
            .map(|i| PlanJob {
                job: Box::new(FilterBelow {
                    cut: 5,
                    name: format!("j{i}"),
                }),
                inputs: vec![InputSpec::new("t", 0)],
                reducers: 8,
                units: 8,
                out_file: Some(format!("o{i}")),
                sink: None,
            })
            .collect();
        cluster.run_plan(vec![PlanStage { jobs }]);
    }
}
