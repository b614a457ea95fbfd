//! Differential property tests for the reduce-side join core.
//!
//! The pair join runs the shared descent at two depths. On every random
//! instance its pairs must equal, in order, those of the descent's
//! nested-loop scan reference ([`PairKernel::join_scan_reference`]),
//! and, as a multiset, the single-threaded query [`oracle_join`].
//!
//! The chain reducer has its own differential target at the bottom:
//! [`ChainThetaJob`]'s indexed descent against its whole-group scan
//! (`reduce_scan_reference`) — rows, row **order** and the priced
//! candidate count, per reduce component.
//!
//! Both jobs also run through the MapReduce engine as a query's
//! terminal job that builds only the projected columns, and as a job
//! that builds the whole joined row, buffered and streamed, with and
//! without the dead-row filter (a wrapper hides it): the projected rows
//! must be the whole rows' projection in the same order, and every
//! priced figure — output bytes included — must not move.
//!
//! Instances randomise the schemas (arity and per-column types over
//! Int/Double/Str), the predicates (`<`, `<=`, `=`, `!=`, and the
//! flipped forms), NULL density, and the data distribution (skewed
//! toward small keys so hash buckets and key ranges both see heavy
//! duplication).

use mwtj_hilbert::PartitionStrategy;
use mwtj_join::kernel::{KernelKind, PairKernel};
use mwtj_join::oracle::{canonicalize, oracle_join};
use mwtj_join::{ChainThetaJob, IntermediateShape, PairJob, PairStrategy};
use mwtj_mapreduce::{
    BatchSink, ClusterConfig, Dfs, Emit, Engine, FaultPlan, InputSpec, MrJob, ReduceEmit, RowBatch,
    SinkSpec, SkipFilter, TagZones, TaggedRecord,
};
use mwtj_query::theta::{ColExpr, CompiledPredicate};
use mwtj_query::{MultiwayQuery, QueryBuilder, ThetaOp};
use mwtj_storage::{DataType, Relation, Schema, Tuple, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Skew a raw draw toward 0: min of two 0..16 digits — collisions and
/// long equal-key runs are the interesting regime for hash and band.
fn skew(raw: i64) -> i64 {
    let a = raw.rem_euclid(16);
    let b = (raw / 16).rem_euclid(16);
    a.min(b)
}

/// Deterministically materialise a raw i64 draw as a value of the
/// column's declared type, with ~1/13 NULLs.
fn materialise(ty: DataType, raw: i64) -> Value {
    if raw.rem_euclid(13) == 0 {
        return Value::Null;
    }
    match ty {
        DataType::Int => Value::Int(skew(raw)),
        // Signed, and producing -0.0 whenever skew lands on 0 with the
        // negative sign — sql_cmp distinguishes -0.0 from +0.0.
        DataType::Double => {
            let sign = if raw.rem_euclid(2) == 0 { -1.0 } else { 1.0 };
            Value::Double(skew(raw) as f64 * 0.5 * sign)
        }
        DataType::Str => {
            const WORDS: [&str; 5] = ["a", "ab", "b", "ba", "c"];
            Value::from(WORDS[raw.rem_euclid(5) as usize])
        }
    }
}

fn build_rel(name: &str, types: &[DataType], raws: &[Vec<i64>]) -> Relation {
    let fields: Vec<(String, DataType)> = types
        .iter()
        .enumerate()
        .map(|(i, &t)| (format!("c{i}"), t))
        .collect();
    let pairs: Vec<(&str, DataType)> = fields.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let schema = Schema::from_pairs(name, &pairs);
    let rows = raws
        .iter()
        .map(|raw| {
            Tuple::new(
                raw.iter()
                    .zip(types)
                    .map(|(&r, &t)| materialise(t, r))
                    .collect(),
            )
        })
        .collect();
    Relation::from_rows_unchecked(schema, rows)
}

const TYPES: [DataType; 3] = [DataType::Int, DataType::Double, DataType::Str];
const OPS: [ThetaOp; 4] = [ThetaOp::Lt, ThetaOp::Le, ThetaOp::Eq, ThetaOp::Ne];

/// Run the kernel, its scan reference and the oracle and assert they
/// agree (plain asserts: the proptest shim does not shrink). Returns the
/// index kind actually exercised.
fn check_agreement(q: &MultiwayQuery, l: &Relation, r: &Relation) -> KernelKind {
    let left = IntermediateShape::base(q, 0);
    let right = IntermediateShape::base(q, 1);
    let out = IntermediateShape::union(q, &left, &right);
    let preds: Vec<CompiledPredicate> = q
        .compile()
        .expect("query compiles")
        .per_condition
        .iter()
        .flat_map(|c| c.iter().copied())
        .collect();
    let kernel = PairKernel::compile(&left, &right, &out, &preds);

    let lrows: Vec<&Tuple> = l.rows().iter().collect();
    let rrows: Vec<&Tuple> = r.rows().iter().collect();
    let (mut got, mut want) = (Vec::new(), Vec::new());
    kernel.join_into(&lrows, &rrows, &mut got);
    kernel.join_scan_reference(&lrows, &rrows, &mut want);
    // Pair streams must agree exactly (order included); the oracle only
    // as a multiset (it enumerates in its own order).
    assert_eq!(&got, &want, "{:?} index vs scan", kernel.kind());
    let rows: Vec<Tuple> = got
        .iter()
        .map(|&(li, ri)| kernel.assemble(lrows[li as usize], rrows[ri as usize]))
        .collect();
    assert_eq!(
        canonicalize(rows),
        canonicalize(oracle_join(q, &[l, r])),
        "{:?} index vs oracle",
        kernel.kind()
    );
    assert_pair_projection_is_invisible(q, l, r, !kernel.equality_key().is_empty());
    kernel.kind()
}

/// An engine holding `rels` in blocks small enough for several map tasks
/// each, and the inputs reading them, tagged in order.
fn small_block_engine(rels: &[Relation]) -> (Engine, Vec<InputSpec>) {
    let mut cfg = ClusterConfig::default();
    cfg.params.block_bytes = 256;
    let dfs = Dfs::new();
    let mut inputs = Vec::new();
    for (tag, rel) in rels.iter().enumerate() {
        dfs.put_relation(&format!("in{tag}"), rel, &cfg);
        inputs.push(InputSpec::new(format!("in{tag}"), tag as u8));
    }
    (Engine::new(cfg, dfs), inputs)
}

/// The pair instance through the engine under every strategy it admits:
/// see [`assert_projection_is_invisible`].
fn assert_pair_projection_is_invisible(
    q: &MultiwayQuery,
    l: &Relation,
    r: &Relation,
    hashable: bool,
) {
    let (engine, inputs) = small_block_engine(&[l.clone(), r.clone()]);
    // The right side's last column, then the left side's first.
    let mut projected = q.clone();
    projected.projection = vec![(1, r.schema().arity() - 1), (0, 0)];
    let preds: Vec<CompiledPredicate> = q
        .compile()
        .expect("query compiles")
        .per_condition
        .iter()
        .flat_map(|c| c.iter().copied())
        .collect();
    let mut strategies = vec![PairStrategy::Broadcast { replicated: 0 }];
    if hashable {
        strategies.push(PairStrategy::EquiHash);
    }
    for strategy in strategies {
        let job = || {
            let (left, right) = (IntermediateShape::base(q, 0), IntermediateShape::base(q, 1));
            PairJob::new("pair", q, left, right, preds.clone(), strategy, 3)
        };
        let (wide, narrow) = (job(), job().projecting(&projected));
        let cols = wide.out_shape().projection_cols(&projected);
        let context = || format!("query: {q}\nstrategy={strategy:?}\nl: {l:?}\nr: {r:?}");
        assert_projection_is_invisible(&engine, &wide, &narrow, &cols, &inputs, 3, &context);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any predicate set over random schemas: the selected index, the
    /// scan reference, and the oracle agree.
    #[test]
    fn kernel_equals_scan_and_oracle(
        ltypes in prop::collection::vec(0usize..3, 1..4),
        rtypes in prop::collection::vec(0usize..3, 1..4),
        lraws in prop::collection::vec(prop::collection::vec(any::<i64>(), 3), 0..28),
        rraws in prop::collection::vec(prop::collection::vec(any::<i64>(), 3), 0..28),
        pred_picks in prop::collection::vec((0usize..4, any::<u64>(), any::<u64>()), 1..3),
    ) {
        let ltypes: Vec<DataType> = ltypes.iter().map(|&i| TYPES[i]).collect();
        let rtypes: Vec<DataType> = rtypes.iter().map(|&i| TYPES[i]).collect();
        let lraws: Vec<Vec<i64>> = lraws.iter().map(|v| v[..ltypes.len()].to_vec()).collect();
        let rraws: Vec<Vec<i64>> = rraws.iter().map(|v| v[..rtypes.len()].to_vec()).collect();
        let l = build_rel("l", &ltypes, &lraws);
        let r = build_rel("r", &rtypes, &rraws);
        let mut qb = QueryBuilder::new("prop")
            .relation(l.schema().clone())
            .relation(r.schema().clone());
        for &(op_i, lc, rc) in &pred_picks {
            let lcol = format!("c{}", lc as usize % ltypes.len());
            let rcol = format!("c{}", rc as usize % rtypes.len());
            qb = qb.join("l", &lcol, OPS[op_i], "r", &rcol);
        }
        let q = qb.build().unwrap();
        check_agreement(&q, &l, &r);
    }

    /// Single-inequality instances: the sorted key range is actually
    /// the index under test (not a lucky walk), across both operator
    /// directions and Int/Double/Str columns.
    #[test]
    fn band_kernel_is_exercised_and_exact(
        ty in 0usize..3,
        op_i in 0usize..4,
        lraws in prop::collection::vec(any::<i64>(), 0..40),
        rraws in prop::collection::vec(any::<i64>(), 0..40),
    ) {
        const BAND_OPS: [ThetaOp; 4] = [ThetaOp::Lt, ThetaOp::Le, ThetaOp::Ge, ThetaOp::Gt];
        let types = [TYPES[ty]];
        let lraws: Vec<Vec<i64>> = lraws.iter().map(|&v| vec![v]).collect();
        let rraws: Vec<Vec<i64>> = rraws.iter().map(|&v| vec![v]).collect();
        let l = build_rel("l", &types, &lraws);
        let r = build_rel("r", &types, &rraws);
        let q = QueryBuilder::new("band")
            .relation(l.schema().clone())
            .relation(r.schema().clone())
            .join("l", "c0", BAND_OPS[op_i], "r", "c0")
            .build()
            .unwrap();
        let kind = check_agreement(&q, &l, &r);
        prop_assert_eq!(kind, KernelKind::Range);
    }

    /// Equality-bearing instances: the hash index is the one under
    /// test, with and without a residual inequality.
    #[test]
    fn hash_kernel_is_exercised_and_exact(
        ty in 0usize..3,
        residual in any::<bool>(),
        res_op in 0usize..4,
        lraws in prop::collection::vec(prop::collection::vec(any::<i64>(), 2), 0..40),
        rraws in prop::collection::vec(prop::collection::vec(any::<i64>(), 2), 0..40),
    ) {
        let types = [TYPES[ty], DataType::Int];
        let l = build_rel("l", &types, &lraws);
        let r = build_rel("r", &types, &rraws);
        let mut qb = QueryBuilder::new("hash")
            .relation(l.schema().clone())
            .relation(r.schema().clone())
            .join("l", "c0", ThetaOp::Eq, "r", "c0");
        if residual {
            qb = qb.join("l", "c1", OPS[res_op], "r", "c1");
        }
        let q = qb.build().unwrap();
        let kind = check_agreement(&q, &l, &r);
        prop_assert_eq!(kind, KernelKind::Hash);
    }

    /// A merge of two partial results on their shared relation (NULLs
    /// in its join column, a row id for identity): the projecting merge
    /// prices the full joined row, which carries the shared relation's
    /// columns once — not the sum of its two sides.
    #[test]
    fn merge_projection_is_invisible(
        ty in 0usize..3,
        raws in prop::collection::vec(prop::collection::vec(any::<i64>(), 0..14), 3),
    ) {
        let types = [TYPES[ty], DataType::Int];
        let rel = |name: &str, raws: &[i64]| {
            let schema = Schema::from_pairs(name, &[("c0", types[0]), ("c1", types[1])]);
            let rows = raws
                .iter()
                .enumerate()
                .map(|(i, &raw)| Tuple::new(vec![materialise(types[0], raw), Value::Int(i as i64)]))
                .collect();
            Relation::from_rows_unchecked(schema, rows)
        };
        let (r0, r1, r2) = (rel("r0", &raws[0]), rel("r1", &raws[1]), rel("r2", &raws[2]));
        let chain = |rels: &[&Relation]| {
            let mut qb = QueryBuilder::new("merge");
            for r in rels {
                qb = qb.relation(r.schema().clone());
            }
            for w in rels.windows(2) {
                qb = qb.join(w[0].schema().name(), "c0", ThetaOp::Le, w[1].schema().name(), "c0");
            }
            qb.build().unwrap()
        };
        let q = chain(&[&r0, &r1, &r2]);
        let (sa, sb) = (IntermediateShape::of(&q, &[0, 1]), IntermediateShape::of(&q, &[1, 2]));
        let ia = oracle_join(&chain(&[&r0, &r1]), &[&r0, &r1]);
        let ib = oracle_join(&chain(&[&r1, &r2]), &[&r1, &r2]);
        let (engine, inputs) = small_block_engine(&[
            Relation::from_rows_unchecked(sa.schema.clone(), ia),
            Relation::from_rows_unchecked(sb.schema.clone(), ib),
        ]);
        let mut projected = q.clone();
        projected.projection = vec![(2, 0), (1, 0), (0, 1)];
        let merge = || PairJob::new("merge", &q, sa.clone(), sb.clone(), vec![], PairStrategy::EquiHash, 3);
        let (wide, narrow) = (merge(), merge().projecting(&projected));
        let cols = wide.out_shape().projection_cols(&projected);
        let context = || format!("r0: {r0:?}\nr1: {r1:?}\nr2: {r2:?}");
        assert_projection_is_invisible(&engine, &wide, &narrow, &cols, &inputs, 3, &context);
    }
}

/// A value for the chain differential: every class the hash and
/// key-range indexes have to order or set aside. Columns are deliberately *not* typed —
/// integers beyond ±2⁵³ sit next to the doubles they collide with under
/// the f64 view, strings next to numbers. `mode` is the column's
/// flavour: 0 spreads numbers over a wide domain (narrow ranges, so the
/// index is what runs), 1 adds a minority of strings to that (few
/// enough for the always-examined tail to stay under the scan
/// fallback's threshold), 2 is all special values.
fn chain_value(raw: u64, mode: u64) -> Value {
    const BIG: i64 = 1 << 53;
    const WORDS: [&str; 6] = ["a", "ab", "b", "ba", "c", "ca"];
    let small = ((raw >> 8) % 6) as i64;
    let wide = ((raw >> 8) % 48) as i64;
    let special = match raw % 11 {
        0 => Value::Null,
        1 => Value::Double(f64::NAN),
        10 => Value::Double(-f64::NAN),
        2 => Value::Double(-0.0),
        3 => Value::Double(0.0),
        4 => Value::Int(BIG + small),
        5 => Value::Int(-BIG - small),
        6 => Value::Double((BIG + 2 * (small / 2)) as f64),
        7 => Value::Double(f64::INFINITY),
        8 => Value::from(WORDS[small as usize]),
        _ => Value::Int(small - 1),
    };
    match (mode, (raw >> 32) % 8) {
        (2, _) | (_, 0) => special,
        (1, 1) => Value::from(WORDS[small as usize]),
        (_, 1..=2) => Value::Double(wide as f64 * 0.5 - 4.0),
        _ => Value::Int(wide - 8),
    }
}

/// Offsets for either side of a predicate: mostly none, some finite,
/// now and then a non-finite one (which the index must refuse).
fn chain_offset(raw: u64) -> f64 {
    match raw % 12 {
        0..=5 => 0.0,
        6 => 2.0,
        7 => -1.5,
        8 => 0.5,
        9 => 1.0,
        10 => -0.0,
        _ => f64::INFINITY,
    }
}

/// One component's reduce through both descents.
fn assert_range_equals_scan(
    job: &ChainThetaJob,
    groups: &BTreeMap<u64, Vec<TaggedRecord>>,
    context: &dyn Fn() -> String,
) {
    for (key, records) in groups {
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let priced = job.reduce(*key, records, &mut got);
        let scanned = job.reduce_scan_reference(*key, records, &mut want);
        // Compared as text: `Value` equality goes through the f64 view
        // and would take `Int(2⁵³ + 1)` for `Double(2⁵³)`.
        let (got, want) = (format!("{got:?}"), format!("{want:?}"));
        assert!(
            got == want,
            "rows or row order differ in component {key}\n range: {got}\n scan:  {want}\n{}",
            context()
        );
        assert_eq!(
            priced,
            scanned,
            "priced count differs in component {key}\n{}",
            context()
        );
    }
}

/// A job without its dead-row filter: everything but
/// [`MrJob::dead_rows`] delegates, so the engine ships every row.
struct ShipAll<'j>(&'j dyn MrJob);

impl MrJob for ShipAll<'_> {
    fn name(&self) -> String {
        self.0.name()
    }

    fn output_schema(&self) -> Schema {
        self.0.output_schema()
    }

    fn map(&self, tag: u8, row: &Tuple, block_seed: u64, row_idx: usize, emit: &mut Emit<'_>) {
        self.0.map(tag, row, block_seed, row_idx, emit)
    }

    fn reduce_task(
        &self,
        r: u64,
        records: &[TaggedRecord],
        counted: &[u64],
        emit: &mut ReduceEmit<'_>,
    ) -> u64 {
        self.0.reduce_task(r, records, counted, emit)
    }

    fn skip_filter(&self, zones: &TagZones) -> Option<Box<dyn SkipFilter>> {
        self.0.skip_filter(zones)
    }
}

/// Collects a streamed run's batches.
#[derive(Default)]
struct Collect(Mutex<Vec<Tuple>>);

impl BatchSink for Collect {
    fn send(&self, batch: RowBatch) -> bool {
        self.0.lock().unwrap().extend(batch.rows);
        true
    }
}

/// One engine run, buffered or streamed: its rows and every figure the
/// simulated clock prices.
fn engine_run(
    engine: &Engine,
    job: &dyn MrJob,
    inputs: &[InputSpec],
    reducers: u32,
    streamed: bool,
) -> (Vec<Tuple>, [u64; 5], [f64; 2]) {
    let none = FaultPlan::none();
    let (rows, m) = if streamed {
        let sink = Arc::new(Collect::default());
        let spec = SinkSpec::new(sink.clone(), 3);
        let run = engine
            .try_run_streamed(job, inputs, 16, reducers, &none, &spec, true, None)
            .expect("streamed run");
        let rows = std::mem::take(&mut *sink.0.lock().unwrap());
        (rows, run.metrics)
    } else {
        let run = engine
            .try_run_with(job, inputs, 16, reducers, None, &none, true, None)
            .expect("buffered run");
        (run.output.into_rows(), run.metrics)
    };
    let priced = [
        m.reduce_candidates,
        m.map_output_records,
        m.map_output_bytes,
        m.reduce_input_max_bytes,
        m.output_bytes,
    ];
    let clock = [m.reduce_input_mean_bytes, m.sim_total_secs];
    (rows, priced, clock)
}

/// `wide` (building whole joined rows) and `narrow` (the same job,
/// projecting `cols` of them in the leaf) through the engine, buffered
/// and streamed, each with and without its dead-row filter: every run
/// prices the same figures, the wide runs return the same rows in the
/// same order, and the narrow runs return exactly their projection.
/// Rows compare as text: `Value` equality goes through the f64 view and
/// would take `Int(2⁵³ + 1)` for `Double(2⁵³)`.
fn assert_projection_is_invisible(
    engine: &Engine,
    wide: &dyn MrJob,
    narrow: &dyn MrJob,
    cols: &[usize],
    inputs: &[InputSpec],
    reducers: u32,
    context: &dyn Fn() -> String,
) {
    let (rows, priced, clock) = engine_run(engine, wide, inputs, reducers, false);
    let projected: Vec<Tuple> = rows
        .iter()
        .map(|row| cols.iter().map(|&c| row.get(c).clone()).collect())
        .collect();
    let (want_wide, want_narrow) = (format!("{rows:?}"), format!("{projected:?}"));
    for streamed in [false, true] {
        for (job, want, what) in [
            (wide, &want_wide, "whole-row"),
            (narrow, &want_narrow, "projecting"),
        ] {
            for ship_all in [false, true] {
                let shipped = ShipAll(job);
                let job: &dyn MrJob = if ship_all { &shipped } else { job };
                let (got, got_priced, got_clock) =
                    engine_run(engine, job, inputs, reducers, streamed);
                let got = format!("{got:?}");
                let what = format!("{what} streamed={streamed} ship_all={ship_all}");
                assert!(
                    &got == want,
                    "rows differ ({what})\n got:  {got}\n want: {want}\n{}",
                    context()
                );
                assert!(
                    (got_priced, got_clock) == (priced, clock),
                    "priced figures differ ({what})\n got:  {got_priced:?} {got_clock:?}\n want: {priced:?} {clock:?}\n{}",
                    context()
                );
            }
        }
    }
}

/// The chain job through the engine: see
/// [`assert_projection_is_invisible`]. The filter counts dead rows
/// instead of shipping them; the projection drops columns in the leaf.
/// Neither may be visible in rows, row order or any priced figure.
fn assert_elision_is_invisible(
    job: &ChainThetaJob,
    narrow: &ChainThetaJob,
    cols: &[usize],
    rels: &[Vec<Tuple>],
    context: &dyn Fn() -> String,
) {
    let schema = Schema::from_pairs("r", &[("c0", DataType::Double), ("c1", DataType::Double)]);
    let dims: Vec<Relation> = job
        .dims()
        .iter()
        .map(|&rel| Relation::from_rows_unchecked(schema.clone(), rels[rel].clone()))
        .collect();
    let (engine, inputs) = small_block_engine(&dims);
    assert_projection_is_invisible(&engine, job, narrow, cols, &inputs, job.reducers(), context);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// 2–4-dimension chains over untyped data, every predicate shape the
    /// indexes distinguish, under every partitioning the suite uses:
    /// the indexed descent returns the scan's rows, in the scan's
    /// order, and prices the scan's work — and through the engine, a
    /// run that counts dead rows instead of shipping them, or builds
    /// only the projected columns, is indistinguishable from one that
    /// ships every row and builds it whole.
    #[test]
    fn chain_range_descent_equals_scan_reference(
        ndims in 2usize..5,
        raws in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(any::<u64>(), 2), 0..40), 4),
        modes in prop::collection::vec(prop::collection::vec(0u64..3, 2), 4),
        picks in prop::collection::vec(any::<u64>(), 64),
    ) {
        let mut picks = picks.into_iter();
        let mut pick = move |n: u64| picks.next().expect("enough picks") % n;
        let names = ["r", "s", "t", "u"];
        let rels: Vec<Vec<Tuple>> = raws[..ndims]
            .iter()
            .zip(&modes)
            .map(|(rows, modes)| {
                rows.iter()
                    .map(|r| Tuple::new(r.iter().zip(modes).map(|(&v, &m)| chain_value(v, m)).collect()))
                    .collect()
            })
            .collect();
        let mut qb = QueryBuilder::new("chain");
        for name in &names[..ndims] {
            qb = qb.relation(Schema::from_pairs(
                *name,
                &[("c0", DataType::Double), ("c1", DataType::Double)],
            ));
        }
        // A random spanning tree over the dimensions, so a depth may
        // have no predicate against an earlier one (`r–t, s–t`).
        let mut order: Vec<usize> = (0..ndims).collect();
        for i in (1..ndims).rev() {
            order.swap(i, pick(i as u64 + 1) as usize);
        }
        for i in 1..ndims {
            let (u, v) = (order[pick(i as u64) as usize], order[i]);
            let expr = |rel: usize, c: u64, off: f64| {
                ColExpr::col_plus(names[rel], format!("c{}", c % 2), off)
            };
            let (cu, cv) = (pick(2), pick(2));
            let (ou, ov) = (chain_offset(pick(12)), chain_offset(pick(12)));
            match pick(6) {
                0 => qb = qb.join_expr(expr(u, cu, ou), ThetaOp::Eq, expr(v, cv, ov)),
                1 => qb = qb.join_expr(expr(u, cu, ou), ThetaOp::Ne, expr(v, cv, ov)),
                2 => {
                    let op = [ThetaOp::Lt, ThetaOp::Le, ThetaOp::Ge, ThetaOp::Gt][pick(4) as usize];
                    qb = qb.join_expr(expr(u, cu, ou), op, expr(v, cv, ov));
                }
                3 => {
                    // The benchmark's band: `u <= v AND v <= u + w`.
                    qb = qb
                        .join_expr(expr(u, cu, 0.0), ThetaOp::Le, expr(v, cv, 0.0))
                        .and_expr(expr(v, cv, 0.0), ThetaOp::Le, expr(u, cu, 1.0 + ou.abs()));
                }
                4 => {
                    // A band with the offset on the other side, strict.
                    qb = qb
                        .join_expr(expr(v, cv, ov), ThetaOp::Gt, expr(u, cu, -1.0))
                        .and_expr(expr(u, cu, 2.0), ThetaOp::Gt, expr(v, cv, ov));
                }
                _ => {
                    // Two unrelated predicates on one edge.
                    qb = qb
                        .join_expr(expr(u, cu, ou), ThetaOp::Le, expr(v, cv, 0.0))
                        .and_expr(expr(u, 1 - cu, 0.0), ThetaOp::Ne, expr(v, 1 - cv, ov));
                }
            }
        }
        let q = qb.build().expect("generated query builds");
        // The last relation's second column, then the first's first.
        let mut projected = q.clone();
        projected.projection = vec![(ndims - 1, 1), (0, 0)];
        let edges: Vec<usize> = (0..q.num_conditions()).collect();
        let cards: Vec<u64> = rels.iter().map(|r| r.len() as u64).collect();
        for strategy in [PartitionStrategy::Hilbert, PartitionStrategy::Grid] {
            for k_r in [1u32, 4, 9] {
                let job = ChainThetaJob::new(&q, &edges, &cards, k_r, strategy);
                let narrow = ChainThetaJob::new(&q, &edges, &cards, k_r, strategy).projecting(&projected);
                let cols = job.out_shape().projection_cols(&projected);
                let mut groups: BTreeMap<u64, Vec<TaggedRecord>> = BTreeMap::new();
                for (dim, &rel) in job.dims().iter().enumerate() {
                    for (i, row) in rels[rel].iter().enumerate() {
                        job.map(dim as u8, row, 0xC0FFEE ^ dim as u64, i, &mut |key, rec| {
                            groups.entry(key).or_default().push(rec)
                        });
                    }
                }
                let context = || format!("query: {q}\nk_r={k_r} strategy={strategy:?}\ndata: {rels:#?}");
                assert_range_equals_scan(&job, &groups, &context);
                assert_elision_is_invisible(&job, &narrow, &cols, &rels, &context);
            }
        }
    }
}
