//! Prepared statements: parse once, plan once, execute many times.
//!
//! The query lifecycle has three separately-ownable stages — **parse**
//! ([`Engine::prepare_sql`] → [`Prepared`], a reusable
//! [`ParsedQuery`] template with `?` positional parameters), **plan**
//! (the engine's shared plan cache of `Arc`-shared
//! [`QueryPlan`](mwtj_planner::QueryPlan) artifacts, keyed by query
//! shape × base bindings × planning `k` and invalidated by the
//! statistics epoch), and **execute**
//! ([`Engine::execute`] / [`Engine::execute_streamed`]). Ad-hoc
//! [`Engine::run_sql`] is the same three stages composed per call, so
//! prepared and ad-hoc runs of one query text share a single plan
//! entry and are bit-identical in rows *and* simulated Eq. 2–4
//! metrics.
//!
//! Lifecycle guarantees:
//!
//! * **Reuse across executions and sessions** — [`Prepared`] is a
//!   cheap `Clone` (`Arc`-shared); any number of sessions can execute
//!   one handle concurrently. Executions after the first skip parsing
//!   (the handle holds the template) and planning (plan-cache hit,
//!   observable via [`Engine::stats_snapshot`]).
//! * **Never a stale plan** — every plan-cache entry carries the
//!   statistics epoch it was planned under, verified at admission
//!   time: a relation reload (or recalibration) between prepare and
//!   execute bumps the epoch, so the execution replans against fresh
//!   statistics. The parse itself re-binds lazily too: if the epoch
//!   moved since the statement was prepared, the SQL is re-parsed
//!   against the current catalog before binding parameters.
//! * **Degradation-aware** — when admission degrades a grant to a
//!   smaller `k`, the reduced-`k` replan is cached per `k` beside the
//!   full plan, so repeatedly degraded executions of one statement
//!   also skip planning.
//! * **Parameter binding** — `?` slots bind per execution
//!   ([`ParsedQuery::bind`]); the plan is keyed by the *template*
//!   shape and planned from the template itself (param slots
//!   disqualify binding-sensitive operators like the equi-hash pair
//!   join at candidate time), so one plan artifact is valid for — and
//!   shared by — every parameter vector. Any binding produces exactly
//!   the query's correct rows; plan choice affects cost, never
//!   results.

use crate::engine::{augment_query, query_shape, Admitted, Engine, Session};
use crate::error::EngineError;
use crate::options::RunOptions;
use mwtj_obs::Span;
use mwtj_planner::QueryRun;
use mwtj_query::{MultiwayQuery, ParsedQuery};
use parking_lot::RwLock;
use std::sync::Arc;

/// A prepared statement: the parse stage's reusable product, bound to
/// the SQL text it was prepared from. Cheap to clone — all clones
/// share one template — and safe to execute from many sessions
/// concurrently: the handle holds no data, only the template; each
/// execution binds the template's FROM clause to the bases' current
/// files for itself.
///
/// Obtain one with [`Engine::prepare_sql`] (or [`Session::prepare`]);
/// run it with [`Engine::execute`], [`Engine::execute_streamed`],
/// [`Session::execute`].
#[derive(Clone)]
pub struct Prepared {
    inner: Arc<PreparedInner>,
}

struct PreparedInner {
    name: String,
    sql: String,
    state: RwLock<PreparedState>,
}

/// The epoch-stamped parse. Re-parsed lazily when the engine's
/// statistics epoch moves (a reload may have changed a base schema)
/// or when the statement is executed on a *different* engine than it
/// was last bound against (epochs of unrelated engines coincide
/// trivially — both start at 0 — so identity is tracked explicitly).
struct PreparedState {
    /// Identity of the engine the parse was bound against
    /// (process-unique, never reused).
    engine: u64,
    epoch: u64,
    parsed: ParsedQuery,
    /// The template's shape (with `?` slots) — the plan-cache key
    /// prefix every execution of this statement shares.
    shape: String,
}

impl Prepared {
    /// The query name the statement was prepared under.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The SQL text the statement was prepared from.
    pub fn sql(&self) -> &str {
        &self.inner.sql
    }

    /// Number of `?` positional parameters an execution must bind.
    pub fn param_count(&self) -> usize {
        self.inner.state.read().parsed.param_count()
    }
}

impl std::fmt::Debug for Prepared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prepared")
            .field("name", &self.inner.name)
            .field("sql", &self.inner.sql)
            .field("params", &self.param_count())
            .finish()
    }
}

impl Engine {
    /// Parse `sql` into a reusable [`Prepared`] statement (the first
    /// lifecycle stage) without binding, planning or executing
    /// anything. `?` placeholders in predicate-offset
    /// position become positional parameters bound per
    /// [`Engine::execute`].
    pub fn prepare_sql(&self, name: &str, sql: &str) -> Result<Prepared, EngineError> {
        let parsed = self.parse_sql(name, sql)?;
        let shape = query_shape(&parsed.query);
        Ok(Prepared {
            inner: Arc::new(PreparedInner {
                name: name.to_string(),
                sql: sql.to_string(),
                state: RwLock::new(PreparedState {
                    engine: self.engine_id(),
                    epoch: self.stats_epoch(),
                    parsed,
                    shape,
                }),
            }),
        })
    }

    /// The statement's current parse and shape, re-parsed against the
    /// live catalog when the statistics epoch moved since the template
    /// was last bound (a reload may have changed a base schema, and a
    /// statement prepared on another engine must bind to *this*
    /// engine's catalog).
    pub(crate) fn current_parse(
        &self,
        prepared: &Prepared,
    ) -> Result<(ParsedQuery, String), EngineError> {
        let epoch = self.stats_epoch();
        let engine = self.engine_id();
        {
            let state = prepared.inner.state.read();
            if state.engine == engine && state.epoch == epoch {
                return Ok((state.parsed.clone(), state.shape.clone()));
            }
        }
        let parsed = self.parse_sql(&prepared.inner.name, &prepared.inner.sql)?;
        let shape = query_shape(&parsed.query);
        let mut state = prepared.inner.state.write();
        state.engine = engine;
        state.epoch = epoch;
        state.parsed = parsed.clone();
        state.shape = shape.clone();
        Ok((parsed, shape))
    }

    /// The admission sequence every SQL entry point shares: bind
    /// `params` into the template first (so an arity mismatch costs
    /// nothing), then admit with the FROM clause's bindings. Admission
    /// plans from the *template* (param slots intact): one plan
    /// artifact under the template's cache key, valid for every
    /// parameter vector — slots disqualify binding-sensitive operators
    /// at candidate time. Returns the admission and the bound query to
    /// execute under it; `shape` overrides the plan-cache key shape.
    pub(crate) fn admit_sql(
        &self,
        parsed: &ParsedQuery,
        params: &[f64],
        opts: &RunOptions,
        shape: Option<&str>,
    ) -> Result<(Admitted, MultiwayQuery), EngineError> {
        if opts.wants_calibration() {
            self.ensure_calibrated();
        }
        let bound = parsed.bind(params)?;
        let template = augment_query(&parsed.query);
        let admitted = self.admit_for(&template, Some(&parsed.instances), opts, shape)?;
        Ok((admitted, augment_query(&bound.query)))
    }

    /// Execute a prepared statement with `params` bound to its `?`
    /// slots (pass `&[]` for a parameterless statement), under `opts`.
    ///
    /// The execution binds the statement's FROM clause to the bases'
    /// sealed files under one catalog read lock (it writes nothing
    /// shared, so concurrent executions of one handle cannot collide),
    /// reserves its `k_P` slice through admission control sized by the
    /// cached plan artifact, and executes that artifact — re-planning
    /// only when the statistics epoch moved or the grant was degraded
    /// to a smaller `k` (then cached per `k`). Results and simulated
    /// Eq. 2–4 metrics are bit-identical to an ad-hoc
    /// [`Engine::run_sql`] of the same effective text.
    pub fn execute(
        &self,
        prepared: &Prepared,
        params: &[f64],
        opts: &RunOptions,
    ) -> Result<QueryRun, EngineError> {
        let parse_span = Span::enter("parse");
        let (parsed, shape) = self.current_parse(prepared)?;
        let parse_record = parse_span.finish();
        let (mut admitted, q) = self.admit_sql(&parsed, params, opts, Some(&shape))?;
        if opts.tracing_enabled() {
            admitted.spans.insert(0, parse_record);
        }
        self.execute_admitted(&admitted, &q, opts, None)
    }
}

impl Session {
    /// Prepare a SQL statement on the session's engine (named "sql",
    /// like [`Session::run_sql`]).
    pub fn prepare(&self, sql: &str) -> Result<Prepared, EngineError> {
        self.engine().prepare_sql("sql", sql)
    }

    /// Execute a prepared statement under the session's default
    /// options.
    pub fn execute(&self, prepared: &Prepared, params: &[f64]) -> Result<QueryRun, EngineError> {
        self.engine().execute(prepared, params, self.options())
    }
}
