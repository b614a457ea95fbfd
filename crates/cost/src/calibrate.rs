//! Calibration of the system variables `p` and `q` (§6.2, Fig. 7(b)).
//!
//! The paper: "We compute p and q by studying an output controllable
//! self-join program over a synthetic data set." We do the same: run a
//! sweep of self-equi-joins whose output volume is analytically
//! controlled (via the distinct-key count), observe the engine's
//! simulated executions, and fit the constants of the `p`/`q` families
//! by least squares on a log grid. The *families* (log-growth spill
//! passes, log-fanout connection service) are system knowledge; the
//! constants are learned from observation — the model never reads the
//! engine's `HardwareProfile` spill/connection internals.

use mwtj_datagen::SyntheticGen;
use mwtj_join::{IntermediateShape, PairJob, PairStrategy};
use mwtj_mapreduce::{ClusterConfig, Dfs, Engine, InputSpec, JobMetrics};
use mwtj_query::{QueryBuilder, ThetaOp};
use mwtj_storage::Schema;

/// Fitted `p` and `q` parameter sets.
#[derive(Debug, Clone)]
pub struct CalibratedParams {
    /// Base spill cost, seconds per byte (`p0`).
    pub p0: f64,
    /// Volume at which spill passes start multiplying, bytes (`v0`).
    pub v0: f64,
    /// Base connection service cost, seconds (`q0`).
    pub q0: f64,
    /// Fan-out growth coefficient for `q`.
    pub q_fanout: f64,
    /// Volume growth coefficient for `q`.
    pub q_volume: f64,
    /// Observations the fit was made from: `(per-task output bytes,
    /// observed seconds-per-byte p̂, observed per-connection seconds
    /// q̂)` — the points of Fig. 7(b).
    pub observations: Vec<(f64, f64, f64)>,
}

impl Default for CalibratedParams {
    /// Uncalibrated defaults: plausible magnitudes for the paper's
    /// hardware; tests that need exact agreement run the calibrator.
    fn default() -> Self {
        CalibratedParams {
            p0: 1.0 / 14.69e6,
            v0: 512.0 * 1024.0 * 0.9,
            q0: 5e-6,
            q_fanout: 0.25,
            q_volume: 0.05,
            observations: Vec::new(),
        }
    }
}

impl CalibratedParams {
    /// The spill variable `p` (seconds per byte) at a per-task output
    /// volume.
    pub fn p(&self, task_output_bytes: f64) -> f64 {
        let passes = if task_output_bytes <= self.v0 {
            1.0
        } else {
            1.0 + (task_output_bytes / self.v0).log2().max(0.0)
        };
        self.p0 * passes
    }

    /// The connection variable `q` (seconds per connection) for a map
    /// task serving `n` reducers at a per-task output volume.
    pub fn q(&self, n: u32, task_output_bytes: f64) -> f64 {
        let vol_factor = 1.0 + (task_output_bytes / 1e6).max(0.0).sqrt() * self.q_volume;
        self.q0 * (1.0 + (n as f64).ln().max(0.0) * self.q_fanout) * vol_factor
    }
}

/// Runs the calibration sweep and produces [`CalibratedParams`].
pub struct Calibrator {
    /// Cluster to calibrate against.
    pub config: ClusterConfig,
    /// Input rows per calibration run.
    pub rows: usize,
    /// Distinct-key counts swept (each sets an output volume).
    pub key_counts: Vec<usize>,
    /// Reducer counts swept (to expose `q`'s fan-out term).
    pub reducer_counts: Vec<u32>,
}

impl Calibrator {
    /// A default sweep sized for sub-second calibration.
    pub fn quick(config: ClusterConfig) -> Self {
        Calibrator {
            config,
            rows: 4_000,
            key_counts: vec![4_000, 1_000, 250, 60],
            reducer_counts: vec![2, 8, 32],
        }
    }

    /// Run one observed self-join and return its metrics.
    fn observe(&self, keys: usize, reducers: u32) -> JobMetrics {
        let gen = SyntheticGen::default();
        let rel = gen.uniform_keys("cal", self.rows, keys);
        let dfs = Dfs::new();
        dfs.put_relation("cal", &rel, &self.config);
        let schema_l = clone_named(rel.schema(), "l");
        let schema_r = clone_named(rel.schema(), "r");
        let q = QueryBuilder::new("calib")
            .relation(schema_l)
            .relation(schema_r)
            .join("l", "k", ThetaOp::Eq, "r", "k")
            .build()
            .expect("calibration query");
        let compiled = q.compile().expect("compile");
        let preds: Vec<_> = compiled
            .per_condition
            .iter()
            .flat_map(|c| c.iter().copied())
            .collect();
        let job = PairJob::new(
            format!("cal_k{keys}_n{reducers}"),
            &q,
            IntermediateShape::base(&q, 0),
            IntermediateShape::base(&q, 1),
            preds,
            PairStrategy::EquiHash,
            reducers,
        );
        let engine = Engine::new(self.config.clone(), dfs);
        engine
            .run(
                &job,
                &[InputSpec::new("cal", 0), InputSpec::new("cal", 1)],
                self.config.processing_units,
                job.reducers(),
                None,
            )
            .metrics
    }

    /// Run the sweep and fit.
    pub fn calibrate(&self) -> CalibratedParams {
        let mut obs = Vec::new();
        for &keys in &self.key_counts {
            for &n in &self.reducer_counts {
                let m = self.observe(keys, n);
                // Invert the engine's accounting to observations:
                //   sim_map_end ≈ waves · (read + cpu + p̂·out_task)
                //   shuffle gap ≈ c2·out_task/n + q̂·n
                let mt = m.map_tasks.max(1) as f64;
                let units = m.units.max(1) as f64;
                let waves = (mt / units).ceil().max(1.0);
                let out_task = m.map_output_bytes as f64 / mt;
                let read = m.input_bytes as f64 / mt / self.config.hardware.disk_read_bps;
                let per_task = m.sim_map_end_secs / waves;
                let spill_secs = (per_task - read).max(1e-12);
                // cpu-per-record is small; fold it into p̂ like the
                // paper folds everything disk-ish into p.
                let p_hat = spill_secs / out_task.max(1.0);
                let gap = (m.sim_shuffle_end_secs - m.sim_map_end_secs).max(0.0);
                let net = self.config.hardware.c2() * out_task / m.reduce_tasks.max(1) as f64;
                let q_hat = ((gap - net).max(1e-9)) / m.reduce_tasks.max(1) as f64;
                obs.push((out_task, p_hat, q_hat, m.reduce_tasks));
            }
        }
        self.fit(obs)
    }

    /// Least-squares fit of the family constants on the observations.
    fn fit(&self, obs: Vec<(f64, f64, f64, u32)>) -> CalibratedParams {
        let mut best = CalibratedParams::default();
        let mut best_err = f64::INFINITY;
        // Grid-search p0 × v0 against observed p̂ (log-space residuals),
        // then fit q0 given q_fanout/q_volume grid.
        let p_floor = obs
            .iter()
            .map(|o| o.1)
            .fold(f64::INFINITY, f64::min)
            .max(1e-12);
        for p0_mult in [0.5, 0.75, 1.0, 1.25, 1.5] {
            let p0 = p_floor * p0_mult;
            for v0 in [64e3, 128e3, 256e3, 460e3, 512e3, 1e6] {
                for q_fanout in [0.0, 0.1, 0.25, 0.5] {
                    for q_volume in [0.0, 0.05, 0.1] {
                        let cand = CalibratedParams {
                            p0,
                            v0,
                            q0: 1.0,
                            q_fanout,
                            q_volume,
                            observations: Vec::new(),
                        };
                        // Optimal q0 in closed form: scale factor
                        // minimizing Σ(q0·f_i − q̂_i)².
                        let (mut num, mut den) = (0.0, 0.0);
                        for &(v, _, q_hat, n) in &obs {
                            let f = cand.q(n, v); // with q0 = 1
                            num += f * q_hat;
                            den += f * f;
                        }
                        let q0 = if den > 0.0 { num / den } else { 1e-3 };
                        let mut err = 0.0;
                        for &(v, p_hat, q_hat, n) in &obs {
                            let pp = cand.p(v);
                            let qq = q0 * cand.q(n, v);
                            err += ((pp / p_hat).ln()).powi(2)
                                + ((qq / q_hat.max(1e-12)).max(1e-12).ln()).powi(2);
                        }
                        if err < best_err {
                            best_err = err;
                            best = CalibratedParams {
                                p0,
                                v0,
                                q0,
                                q_fanout,
                                q_volume,
                                observations: Vec::new(),
                            };
                        }
                    }
                }
            }
        }
        best.observations = obs.into_iter().map(|(v, p, q, _)| (v, p, q)).collect();
        best
    }
}

fn clone_named(schema: &Schema, name: &str) -> Schema {
    Schema::new(name, schema.fields().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p_and_q_families_are_monotone() {
        let c = CalibratedParams::default();
        assert!(c.p(1e8) > c.p(1e3));
        assert!(c.q(64, 1e6) > c.q(2, 1e6));
        assert!(c.q(8, 1e9) >= c.q(8, 1e3));
    }

    #[test]
    fn calibration_recovers_plausible_constants() {
        let cal = Calibrator::quick(ClusterConfig::with_units(16));
        let fitted = cal.calibrate();
        // p0 should land within an order of magnitude of the inverse
        // write rate it is standing in for.
        let truth = 1.0 / 14.69e6;
        assert!(
            fitted.p0 > truth / 10.0 && fitted.p0 < truth * 10.0,
            "p0 = {} vs ~{truth}",
            fitted.p0
        );
        assert!(fitted.q0 > 0.0);
        assert!(!fitted.observations.is_empty());
    }

    #[test]
    fn fitted_params_predict_observations() {
        let cal = Calibrator::quick(ClusterConfig::with_units(16));
        let fitted = cal.calibrate();
        // Geometric-mean relative error of p across observations should
        // be modest (the family matches the engine's by construction).
        let mut log_err = 0.0;
        for &(v, p_hat, _) in &fitted.observations {
            log_err += (fitted.p(v) / p_hat).ln().abs();
        }
        log_err /= fitted.observations.len() as f64;
        assert!(log_err < 1.0, "avg |log error| = {log_err}");
    }
}
