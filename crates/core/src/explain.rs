//! `EXPLAIN` / `EXPLAIN ANALYZE`: inspect a query's chosen plan and
//! Eq. 2 admission estimate without executing it, or execute it and
//! render the full lifecycle profile.
//!
//! Plain `EXPLAIN` goes through the same machinery an execution would
//! — the FROM clause's bindings, the shared epoch-verified plan cache
//! — but stops before admission: no ticket is taken, no job runs, and
//! the scheduler never sees the query. It only reads: the catalog and
//! the DFS are left exactly as they were.
//! `EXPLAIN ANALYZE` executes normally (admission control included)
//! with tracing forced on, then reports the per-stage profile tree
//! next to the plan.

use crate::engine::{augment_query, query_shape, Engine, Session};
use crate::error::EngineError;
use crate::options::{Method, RunOptions};
use mwtj_obs::next_trace_id;
use mwtj_planner::{BoundRelation, QueryRun};
use mwtj_query::Statement;

/// What `EXPLAIN [ANALYZE]` reports for one statement.
#[derive(Debug)]
pub struct ExplainReport {
    /// Process-unique trace id (the analyzed run's own id when
    /// `analyze` is set).
    pub trace_id: u64,
    /// Whether the statement was executed (`EXPLAIN ANALYZE`).
    pub analyze: bool,
    /// The method the plan was made for.
    pub method: Method,
    /// Human-readable plan description (public alias names).
    pub plan: String,
    /// Planner-predicted makespan in simulated seconds (0 for the
    /// k_P-unaware baselines, which carry no estimate).
    pub predicted_secs: f64,
    /// Units admission would request — the Eq. 2 estimate after the
    /// zone-map skip discount (the full `k_P` for baselines).
    pub requested_units: u32,
    /// The cluster's `k_P` budget the request is served from.
    pub k_p: u32,
    /// Whether the plan came from the shared plan cache (`None` for
    /// baselines, which plan nothing).
    pub cache_hit: Option<bool>,
    /// The executed run, when `analyze` is set. Its `profile` carries
    /// the per-stage tree [`ExplainReport::render`] prints.
    pub analyzed: Option<QueryRun>,
}

impl ExplainReport {
    /// Render the report as stable `key: value` lines followed by the
    /// profile tree for `EXPLAIN ANALYZE` — the text body the server's
    /// `explain` verb answers with.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("plan: {}\n", self.plan));
        out.push_str(&format!("method: {}\n", self.method));
        out.push_str(&format!("predicted_secs: {:.6}\n", self.predicted_secs));
        out.push_str(&format!(
            "units: requested={} k_p={}\n",
            self.requested_units, self.k_p
        ));
        match self.cache_hit {
            Some(hit) => out.push_str(&format!("cache: {}\n", if hit { "hit" } else { "miss" })),
            None => out.push_str("cache: none\n"),
        }
        match &self.analyzed {
            Some(run) => {
                out.push_str(&format!(
                    "rows: {} sim_secs={:.6} granted_units={}\n",
                    run.output.len(),
                    run.sim_secs,
                    run.granted_units
                ));
                match run.profile() {
                    Some(profile) => out.push_str(&profile.render()),
                    None => out.push_str(&format!("trace={}\n", self.trace_id)),
                }
            }
            None => out.push_str(&format!("trace={}\n", self.trace_id)),
        }
        out
    }
}

impl Engine {
    /// Explain a statement. Accepts `EXPLAIN <query>`,
    /// `EXPLAIN ANALYZE <query>`, or a bare query (treated as plain
    /// `EXPLAIN`). Plain `EXPLAIN` plans through the shared plan cache
    /// without taking an admission ticket or executing anything;
    /// `EXPLAIN ANALYZE` executes normally with tracing forced on.
    ///
    /// `?`-parameterised templates cannot be explained (there is no
    /// binding to price); they fail with a typed error.
    pub fn explain_sql(
        &self,
        name: &str,
        sql: &str,
        opts: &RunOptions,
    ) -> Result<ExplainReport, EngineError> {
        let stmt = self.parse_statement(name, sql)?;
        let (analyze, parsed) = match stmt {
            Statement::Explain { analyze, query } => (analyze, query),
            Statement::Select(query) => (false, query),
        };
        if analyze {
            self.explain_analyze(&parsed, opts)
        } else {
            self.explain_plan(&parsed, opts)
        }
    }

    /// `EXPLAIN ANALYZE`: execute with tracing forced on and wrap the
    /// finished run.
    fn explain_analyze(
        &self,
        parsed: &mwtj_query::ParsedQuery,
        opts: &RunOptions,
    ) -> Result<ExplainReport, EngineError> {
        let run_opts = opts.clone().tracing(true);
        let (admitted, q) = self.admit_sql(parsed, &[], &run_opts, None)?;
        let run = self.execute_admitted(&admitted, &q, &run_opts, None)?;
        Ok(ExplainReport {
            trace_id: run.trace_id,
            analyze: true,
            method: run_opts.get_method(),
            plan: run.plan.clone(),
            predicted_secs: run.predicted_secs,
            requested_units: run.granted_units,
            k_p: self.cluster().config().processing_units,
            cache_hit: None,
            analyzed: Some(run),
        })
    }

    /// Plain `EXPLAIN`: plan through the shared cache (so it reports
    /// exactly the artifact an execution would run) without admission
    /// or execution.
    fn explain_plan(
        &self,
        parsed: &mwtj_query::ParsedQuery,
        opts: &RunOptions,
    ) -> Result<ExplainReport, EngineError> {
        if opts.wants_calibration() {
            self.ensure_calibrated();
        }
        let q = augment_query(&parsed.bind(&[])?.query);
        let trace_id = next_trace_id();
        let k_p = self.cluster().config().processing_units;
        let method = opts.get_method();
        match method {
            Method::Ours | Method::OursGrid => {
                let planner = self.planner();
                let bindings = self.bind(&q, Some(&parsed.instances))?;
                let stats = BoundRelation::stats_of(&bindings.inputs);
                let epoch = bindings.epoch;
                // `sys.*` queries bypass the plan cache in both
                // directions, mirroring admission: the plan prices
                // a per-query snapshot no later run will see.
                let sys_query = bindings.reads_sys();
                let key_prefix = bindings.key_prefix(&query_shape(&q));
                let (plan, cache_hit) = if sys_query {
                    (
                        std::sync::Arc::new(planner.plan_query(&q, &stats, k_p)?),
                        None,
                    )
                } else {
                    self.plan_for(&planner, &q, &stats, &key_prefix, k_p, epoch, false)
                        .map(|(plan, hit)| (plan, Some(hit)))?
                };
                let requested = if sys_query {
                    0
                } else if opts.skipping_enabled() {
                    self.discounted_units(&key_prefix, plan.units, epoch)
                } else {
                    plan.units
                };
                let n_shelves = plan
                    .schedule
                    .shelves
                    .iter()
                    .copied()
                    .max()
                    .map_or(0, |m| m + 1);
                Ok(ExplainReport {
                    trace_id,
                    analyze: false,
                    method,
                    plan: format!(
                        "ours: {} chain MRJ(s) {:?}, {} shelf(s), allotments {:?}",
                        plan.chosen.len(),
                        plan.schedule.chosen_masks,
                        n_shelves,
                        plan.schedule.allotments
                    ),
                    predicted_secs: plan.predicted_secs(),
                    requested_units: requested,
                    k_p,
                    cache_hit,
                    analyzed: None,
                })
            }
            Method::YSmart | Method::Hive | Method::Pig => Ok(ExplainReport {
                trace_id,
                analyze: false,
                method,
                plan: format!("{method}: k_P-unaware cascade (plans at execution)"),
                predicted_secs: 0.0,
                requested_units: k_p,
                k_p,
                cache_hit: None,
                analyzed: None,
            }),
        }
    }
}

impl Session {
    /// Explain a statement under the session's default options.
    pub fn explain(&self, sql: &str) -> Result<ExplainReport, EngineError> {
        self.engine().explain_sql("sql", sql, self.options())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwtj_storage::{tuple, DataType, Relation, Schema};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn demo_engine() -> Engine {
        let engine = Engine::with_units(8);
        let mut rng = StdRng::seed_from_u64(7);
        for (name, n) in [("r", 60usize), ("s", 50)] {
            let schema = Schema::from_pairs(name, &[("a", DataType::Int), ("b", DataType::Int)]);
            let rel = Relation::from_rows_unchecked(
                schema,
                (0..n)
                    .map(|_| tuple![rng.gen_range(0..20i64), rng.gen_range(0..20i64)])
                    .collect(),
            );
            let _ = engine.load_relation(&rel);
        }
        engine
    }

    const SQL: &str = "SELECT t1.a FROM r t1, s t2 WHERE t1.a <= t2.a";

    #[test]
    fn plain_explain_plans_without_executing() {
        let engine = demo_engine();
        let baseline = engine.quiescence();
        let opts = RunOptions::default();
        let report = engine
            .explain_sql("q", &format!("EXPLAIN {SQL}"), &opts)
            .unwrap();
        assert!(!report.analyze);
        assert!(report.analyzed.is_none());
        assert_eq!(report.cache_hit, Some(false), "cold cache");
        assert!(report.plan.starts_with("ours:"), "{}", report.plan);
        assert!(report.predicted_secs > 0.0);
        assert!(report.requested_units >= 1 && report.requested_units <= report.k_p);
        // No admission happened, nothing executed.
        assert_eq!(engine.scheduler().stats().admitted, 0);
        // The plan it cached is the one a run would use: a subsequent
        // EXPLAIN hits.
        let warm = engine
            .explain_sql("q", &format!("EXPLAIN {SQL}"), &opts)
            .unwrap();
        assert_eq!(warm.cache_hit, Some(true));
        // A bare query (no EXPLAIN keyword) is treated as EXPLAIN.
        let bare = engine.explain_sql("q", SQL, &opts).unwrap();
        assert!(!bare.analyze);
        let text = bare.render();
        assert!(text.contains("plan: ours:"), "{text}");
        assert!(text.contains("cache: hit"), "{text}");
        assert!(text.contains("trace="), "{text}");
        // EXPLAIN only reads: the DFS and the catalog are untouched.
        crate::assert_quiescent(&engine, &baseline);
    }

    #[test]
    fn explain_analyze_executes_and_profiles() {
        let engine = demo_engine();
        let report = engine
            .explain_sql(
                "q",
                &format!("EXPLAIN ANALYZE {SQL}"),
                &RunOptions::default(),
            )
            .unwrap();
        assert!(report.analyze);
        let run = report.analyzed.as_ref().unwrap();
        assert!(!run.output.is_empty());
        assert_eq!(run.trace_id, report.trace_id);
        let profile = run.profile().expect("analyze forces tracing");
        assert_eq!(profile.trace_id, report.trace_id);
        for stage in ["plan", "admission", "execute", "job0/map"] {
            assert!(profile.find(stage).is_some(), "missing stage {stage}");
        }
        let text = report.render();
        assert!(text.contains("rows:"), "{text}");
        assert!(text.contains("execute"), "{text}");
        assert_eq!(engine.scheduler().stats().admitted, 1);
    }

    #[test]
    fn explain_analyze_overrides_notrace() {
        let engine = demo_engine();
        let report = engine
            .explain_sql(
                "q",
                &format!("EXPLAIN ANALYZE {SQL}"),
                &RunOptions::default().tracing(false),
            )
            .unwrap();
        assert!(
            report.analyzed.as_ref().unwrap().profile().is_some(),
            "EXPLAIN ANALYZE must profile even under +notrace"
        );
    }

    #[test]
    fn explain_baseline_reports_cascade() {
        let engine = demo_engine();
        let report = engine
            .explain_sql(
                "q",
                &format!("EXPLAIN {SQL}"),
                &RunOptions::from(Method::Hive),
            )
            .unwrap();
        assert_eq!(report.cache_hit, None);
        assert_eq!(report.requested_units, report.k_p);
        assert!(report.plan.contains("hive"), "{}", report.plan);
    }
}
