//! Fig. 8: cost-model validation — predicted vs. actual MRJ execution
//! time for a self-join over the mobile data set, across map output
//! sizes.
//!
//! The paper's claim: "our estimation and the real MRJ execution time
//! are very close". Here "actual" is the engine's simulated clock
//! (the stand-in for the paper's cluster) and "predicted" is the
//! analytic model of Equations 1–6 fed only with statistics and the
//! calibrated `p`/`q`.

use mwtj_bench::{header, mobile_gen};
use mwtj_cost::model::JobShape;
use mwtj_cost::{Calibrator, CostModel};
use mwtj_join::{IntermediateShape, PairJob, PairStrategy};
use mwtj_mapreduce::{ClusterConfig, Dfs, Engine, InputSpec};
use mwtj_query::{QueryBuilder, ThetaOp};
use mwtj_storage::Schema;

fn main() {
    header(
        "Fig. 8",
        "cost model validation: predicted vs simulated self-join time",
    );
    let cfg = ClusterConfig::with_units(96);
    let params = Calibrator::quick(cfg.clone()).calibrate();
    let model = CostModel::new(cfg.clone(), params);

    println!(
        "{:<16} {:>14} {:>14} {:>10}",
        "map out (B)", "simulated (s)", "predicted (s)", "ratio"
    );
    let mut max_ratio_err: f64 = 0.0;
    for rows in [1_500usize, 4_000, 10_000, 25_000] {
        let calls = mobile_gen().generate("calls", rows);
        let dfs = Dfs::new();
        dfs.put_relation("calls", &calls, &cfg);
        let l = Schema::new("l", calls.schema().fields().to_vec());
        let r = Schema::new("r", calls.schema().fields().to_vec());
        // Self-join on base station (the paper's output-controllable
        // self-join over the mobile data).
        let q = QueryBuilder::new("selfjoin")
            .relation(l)
            .relation(r)
            .join("l", "bsc", ThetaOp::Eq, "r", "bsc")
            .build()
            .expect("self-join query");
        let compiled = q.compile().expect("compiles");
        let preds: Vec<_> = compiled
            .per_condition
            .iter()
            .flat_map(|c| c.iter().copied())
            .collect();
        let n = 16u32;
        let job = PairJob::new(
            format!("fig8_{rows}"),
            &q,
            IntermediateShape::base(&q, 0),
            IntermediateShape::base(&q, 1),
            preds,
            PairStrategy::EquiHash,
            n,
        );
        let engine = Engine::new(cfg.clone(), dfs);
        let m = engine
            .run(
                &job,
                &[InputSpec::new("calls", 0), InputSpec::new("calls", 1)],
                96,
                job.reducers(),
                Some("out"),
            )
            .metrics;
        // Model inputs from measured statistics (what the planner would
        // estimate): α, β, skew from the run's byte counts.
        let sigma = (m.reduce_input_max_bytes as f64 - m.reduce_input_mean_bytes).max(0.0) / 3.0;
        let shape = JobShape {
            input_bytes: m.input_bytes as f64,
            map_tasks: m.map_tasks,
            alpha: m.alpha(),
            beta: m.beta(),
            reducers: n,
            units: 96,
            sigma_bytes: sigma,
            reduce_cpu_secs: m.reduce_candidates as f64 * cfg.hardware.cpu_per_candidate_secs,
        };
        let predicted = model.predict_total(&shape);
        let simulated = m.sim_total_secs;
        let ratio = predicted / simulated;
        max_ratio_err = max_ratio_err.max((ratio.ln()).abs());
        println!(
            "{:<16.0} {simulated:>14.3} {predicted:>14.3} {ratio:>10.2}",
            m.map_output_bytes as f64
        );
    }
    println!(
        "\nmax |log ratio| = {max_ratio_err:.2} (paper: 'very close'; ratios near 1.0 reproduce the claim)"
    );
}
