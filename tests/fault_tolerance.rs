//! Fault-tolerance integration tests: injected task failures really
//! abort attempts mid-execution (error- and panic-mode), the engine
//! retries from materialised input, and results never change — only
//! the simulated clock and the retry counters.

use mwtj_datagen::SyntheticGen;
use mwtj_join::{IntermediateShape, PairJob, PairStrategy};
use mwtj_mapreduce::{
    ClusterConfig, Dfs, Emit, Engine, ExecError, FaultPlan, InputSpec, MrJob, ReduceEmit,
    TaggedRecord,
};
use mwtj_query::{QueryBuilder, ThetaOp};
use mwtj_storage::{Schema, Tuple};

fn engine_with(fault: FaultPlan) -> (Engine, PairJob, Vec<InputSpec>) {
    let cfg = ClusterConfig::with_units(16);
    let gen = SyntheticGen::default();
    let rel = gen.uniform_keys("s", 4_000, 200);
    let dfs = Dfs::new();
    dfs.put_relation("s", &rel, &cfg);
    let l = Schema::new("l", rel.schema().fields().to_vec());
    let r = Schema::new("r", rel.schema().fields().to_vec());
    let q = QueryBuilder::new("ft")
        .relation(l)
        .relation(r)
        .join("l", "k", ThetaOp::Eq, "r", "k")
        .build()
        .expect("query");
    let compiled = q.compile().expect("compiles");
    let preds: Vec<_> = compiled
        .per_condition
        .iter()
        .flat_map(|c| c.iter().copied())
        .collect();
    let job = PairJob::new(
        "ft_join",
        &q,
        IntermediateShape::base(&q, 0),
        IntermediateShape::base(&q, 1),
        preds,
        PairStrategy::EquiHash,
        8,
    );
    let mut engine = Engine::new(cfg, dfs);
    engine.set_fault_plan(fault);
    let inputs = vec![InputSpec::new("s", 0), InputSpec::new("s", 1)];
    (engine, job, inputs)
}

#[test]
fn failures_do_not_change_results() {
    let (clean_engine, clean_job, clean_inputs) = engine_with(FaultPlan::none());
    let clean = clean_engine.run(&clean_job, &clean_inputs, 16, clean_job.reducers(), None);

    let (faulty_engine, faulty_job, faulty_inputs) =
        engine_with(FaultPlan::with_probability(0.4, 1234));
    let faulty = faulty_engine.run(&faulty_job, &faulty_inputs, 16, faulty_job.reducers(), None);

    assert_eq!(
        clean.output.sorted_rows(),
        faulty.output.sorted_rows(),
        "injected failures must not change the answer"
    );
    assert_eq!(clean.metrics.output_records, faulty.metrics.output_records);
}

#[test]
fn failures_inflate_the_simulated_clock_and_attempts() {
    let (clean_engine, job, inputs) = engine_with(FaultPlan::none());
    let clean = clean_engine.run(&job, &inputs, 16, job.reducers(), None);

    let (faulty_engine, job_f, inputs_f) = engine_with(FaultPlan::with_probability(0.4, 99));
    let faulty = faulty_engine.run(&job_f, &inputs_f, 16, job_f.reducers(), None);

    assert!(
        faulty.metrics.map_attempts > faulty.metrics.map_tasks
            || faulty.metrics.reduce_attempts > faulty.metrics.reduce_tasks,
        "a 40% failure rate must produce retries (map {}→{}, reduce {}→{})",
        faulty.metrics.map_tasks,
        faulty.metrics.map_attempts,
        faulty.metrics.reduce_tasks,
        faulty.metrics.reduce_attempts
    );
    assert!(
        faulty.metrics.sim_total_secs > clean.metrics.sim_total_secs,
        "retries must cost simulated time ({} !> {})",
        faulty.metrics.sim_total_secs,
        clean.metrics.sim_total_secs
    );
}

#[test]
fn fault_runs_are_reproducible() {
    let (e1, j1, i1) = engine_with(FaultPlan::with_probability(0.3, 77));
    let (e2, j2, i2) = engine_with(FaultPlan::with_probability(0.3, 77));
    let a = e1.run(&j1, &i1, 16, j1.reducers(), None);
    let b = e2.run(&j2, &i2, 16, j2.reducers(), None);
    assert_eq!(a.metrics.map_attempts, b.metrics.map_attempts);
    assert!((a.metrics.sim_total_secs - b.metrics.sim_total_secs).abs() < 1e-12);
}

/// Retries are *real*: the metrics count actually-rerun attempts, the
/// attempt totals add up (`attempts = tasks + real retries` when every
/// task eventually succeeds), and roughly half the injected aborts die
/// as caught panics rather than injected errors.
#[test]
fn real_retries_and_caught_panics_are_counted() {
    let (engine, job, inputs) = engine_with(FaultPlan::with_probability(0.4, 1234));
    let run = engine.run(&job, &inputs, 16, job.reducers(), None);
    let m = &run.metrics;
    assert!(
        m.real_map_retries + m.real_reduce_retries > 0,
        "a 40% failure rate must rerun some attempts for real"
    );
    assert_eq!(
        m.map_attempts,
        m.map_tasks + m.real_map_retries,
        "every map attempt is either a task's success or a counted retry"
    );
    assert_eq!(
        m.reduce_attempts,
        m.reduce_tasks + m.real_reduce_retries,
        "every reduce attempt is either a task's success or a counted retry"
    );
    assert!(
        m.panics_caught > 0,
        "panic-mode injection must exercise catch_unwind"
    );
    assert!(
        m.panics_caught <= m.real_map_retries + m.real_reduce_retries,
        "caught panics are a subset of real retries"
    );
}

/// A job whose reduce genuinely panics on every attempt. Injected
/// faults spare the final allowed attempt by construction, so only a
/// real task bug like this can exhaust `max_attempts` — it must
/// surface as a typed `TaskFailed`, not an engine crash.
struct PanickingReduce;

impl MrJob for PanickingReduce {
    fn name(&self) -> String {
        "always_panics".into()
    }
    fn output_schema(&self) -> Schema {
        Schema::from_pairs("boom", &[("k", mwtj_storage::DataType::Int)])
    }
    fn map(&self, _tag: u8, row: &Tuple, _seed: u64, _idx: usize, emit: &mut Emit<'_>) {
        emit(
            0,
            TaggedRecord {
                tag: 0,
                aux: 0,
                tuple: row.clone(),
            },
        );
    }
    fn reduce_task(
        &self,
        _r: u64,
        _records: &[TaggedRecord],
        _counted: &[u64],
        _emit: &mut ReduceEmit<'_>,
    ) -> u64 {
        panic!("deterministic task bug");
    }
}

#[test]
fn panicking_task_exhausts_attempts_into_typed_error() {
    let cfg = ClusterConfig::with_units(8);
    let gen = SyntheticGen::default();
    let rel = gen.uniform_keys("s", 500, 50);
    let dfs = Dfs::new();
    dfs.put_relation("s", &rel, &cfg);
    let engine = Engine::new(cfg, dfs);
    let inputs = vec![InputSpec::new("s", 0)];
    let err = engine
        .try_run_with(
            &PanickingReduce,
            &inputs,
            8,
            4,
            None,
            &FaultPlan {
                fail_probability: 0.0,
                max_attempts: 3,
                seed: 0,
            },
            false,
            None,
        )
        .expect_err("an always-panicking reduce cannot succeed");
    match err {
        ExecError::TaskFailed {
            stage,
            attempts,
            ref detail,
            ..
        } => {
            assert_eq!(stage, "reduce");
            assert_eq!(attempts, 3, "the full attempt budget is spent");
            assert!(
                detail.contains("panic"),
                "detail carries the panic: {detail}"
            );
            assert!(
                detail.contains("deterministic task bug"),
                "detail carries the payload: {detail}"
            );
        }
        other => panic!("expected TaskFailed, got {other}"),
    }
}

#[test]
fn higher_failure_rates_cost_more() {
    let mut prev = 0.0;
    for p in [0.0, 0.2, 0.45] {
        let plan = if p == 0.0 {
            FaultPlan::none()
        } else {
            FaultPlan::with_probability(p, 5)
        };
        let (e, j, i) = engine_with(plan);
        let run = e.run(&j, &i, 16, j.reducers(), None);
        assert!(
            run.metrics.sim_total_secs >= prev,
            "p={p}: {} < {prev}",
            run.metrics.sim_total_secs
        );
        prev = run.metrics.sim_total_secs;
    }
}
