//! The four workloads: generated relations, statement classes with
//! their expected results, and which client cycles through which
//! classes. Everything random comes from one `StdRng` seeded by
//! `--seed`; the server only ever sees what is generated here.

use crate::reference::{join, Expected, Step, Table};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Names accepted by `--workload`, in suite order.
pub const NAMES: [&str; 4] = ["small_mix", "scan_skip", "theta_heavy", "stream_ingest"];

/// Every op class of the suite, in the order the per-class metrics
/// are reported. `load` exists in every workload (see [`Workload`]).
pub const CLASSES: [&str; 11] = [
    "band2_adhoc",
    "equi2_repeat",
    "chain3_prepared",
    "win_tight",
    "win_mid",
    "win_wide",
    "band2",
    "chain3",
    "multi4",
    "stream_equi",
    "load",
];

/// Rows per batch frame asked of streamed queries.
pub const STREAM_BATCH: usize = 512;

const COLSPEC: &str = "a:int,b:int,c:int";

/// How one op goes over the wire.
#[derive(Debug, Clone)]
pub enum Request {
    /// `run` with this exact text every time (plan-cache hit).
    Run { sql: String },
    /// `run` with a never-repeated fractional literal appended to the
    /// band width, so the text — and the plan-cache key — is new on
    /// every op while the integer result stays that of `width`.
    RunAdhoc { head: String, width: i64 },
    /// `execute` of the connection's `stmt`-th prepared statement.
    Execute { stmt: usize, param: f64 },
    /// `stream … batch=N`.
    Stream { sql: String },
    /// The wire `load` verb with a pre-rendered payload.
    Load { payload: String },
}

static ADHOC_SEQ: AtomicU64 = AtomicU64::new(0);

/// A band-width literal that no earlier op of this process has sent:
/// `width` plus a unique fraction below one. Columns are integers, so
/// the fraction changes the text but not the result.
pub fn adhoc_literal(width: i64) -> String {
    let seq = ADHOC_SEQ.fetch_add(1, Ordering::Relaxed) % 999_999 + 1;
    format!("{width}.{seq:06}")
}

/// One concrete statement of a class and what it must return.
#[derive(Debug, Clone)]
pub struct Variant {
    pub request: Request,
    pub expect: Expected,
}

impl Variant {
    /// The statement as plain SQL for in-process replay (`None` for
    /// loads). Ad-hoc variants draw a fresh literal, as on the wire.
    pub fn sql(&self, prepared: &[String]) -> Option<(String, Vec<f64>)> {
        match &self.request {
            Request::Run { sql } | Request::Stream { sql } => Some((sql.clone(), vec![])),
            Request::RunAdhoc { head, width } => {
                Some((format!("{head}{}", adhoc_literal(*width)), vec![]))
            }
            Request::Execute { stmt, param } => Some((prepared[*stmt].clone(), vec![*param])),
            Request::Load { .. } => None,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Class {
    pub name: &'static str,
    pub variants: Vec<Variant>,
}

impl Class {
    pub fn is_load(&self) -> bool {
        self.name == "load"
    }
}

/// A generated workload. The last class is always `load`: on
/// `stream_ingest` a client cycles it inside the window; elsewhere no
/// client does and the harness probes it serially after the window.
pub struct Workload {
    pub name: &'static str,
    /// Loaded through `Engine::load_relation` at set-up.
    pub tables: Vec<Table>,
    /// Prepared once per connection, in this order.
    pub prepared: Vec<String>,
    pub classes: Vec<Class>,
    /// Per client, the class indices it round-robins over.
    pub clients: Vec<Vec<usize>>,
}

impl Workload {
    pub fn load_class(&self) -> usize {
        self.classes.len() - 1
    }

    pub fn load_in_window(&self) -> bool {
        let load = self.load_class();
        self.clients.iter().any(|c| c.contains(&load))
    }
}

fn table(name: &str, n: usize, rng: &mut StdRng, domains: [i64; 3], clustered: bool) -> Table {
    let mut cols = domains.map(|d| (0..n).map(|_| rng.gen_range(0..d)).collect::<Vec<i64>>());
    if clustered {
        cols[0].sort_unstable();
    }
    Table {
        name: name.to_string(),
        cols,
    }
}

/// The wire `load` payload for `t`, rows in `order`.
fn load_payload(t: &Table, order: &[u32]) -> String {
    let mut out = format!("load {} {COLSPEC}\n", t.name);
    for &i in order {
        let i = i as usize;
        let _ = writeln!(out, "{},{},{}", t.cols[0][i], t.cols[1][i], t.cols[2][i]);
    }
    out
}

fn load_class(t: &Table, orders: &[Vec<u32>]) -> Class {
    let expect = Expected {
        rows: t.len() as u64,
        checksum: 0,
    };
    Class {
        name: "load",
        variants: orders
            .iter()
            .map(|o| Variant {
                request: Request::Load {
                    payload: load_payload(t, o),
                },
                expect,
            })
            .collect(),
    }
}

fn in_order(t: &Table) -> Vec<Vec<u32>> {
    vec![(0..t.len() as u32).collect()]
}

const BAND_A: &str = "x.a <= y.a AND y.a <= x.a + ";
const BAND_B: &str = "y.b <= z.b AND z.b <= y.b + ";

fn band(table: &Table, from: usize, col: usize, width: i64) -> Step<'_> {
    Step {
        from,
        from_col: col,
        table,
        col,
        width,
    }
}

/// Build workload `name` at `1/div` of its frozen size.
pub fn build(name: &str, seed: u64, div: usize) -> Option<Workload> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = |full: usize| (full / div).max(8);
    Some(match name {
        "small_mix" => small_mix(&mut rng, n(1000), n(800), n(400)),
        "scan_skip" => scan_skip(&mut rng, n(1_000_000)),
        "theta_heavy" => theta_heavy(&mut rng, n(2000), n(250)),
        "stream_ingest" => stream_ingest(&mut rng, n(20_000)),
        _ => return None,
    })
}

fn small_mix(rng: &mut StdRng, nr: usize, ns: usize, nt: usize) -> Workload {
    // Domains scale with |r| so the ~200-row results keep their size
    // under --quick.
    let da = 20 * nr as i64;
    let db = 2 * nr as i64;
    let r = table("r", nr, rng, [da, db, 1000], false);
    let s = table("s", ns, rng, [da, db, 1000], false);
    let t = table("t", nt, rng, [da, db, 1000], false);
    // Every statement must execute in well under the 40 ms of a TCP
    // delayed ACK: a slower reply drops the connection out of the
    // kernel's ping-pong mode, and the op after it then skips one of
    // the two wire stalls — or not, from one run to the next. Hence
    // the 3-way chain over the 400-row `t` alone (a chain reducer
    // examines |R|×|S| candidates whatever the band width).
    let widths = [1i64, 2, 3];
    let chain_widths = [20i64, 40, 60];
    let adhoc_head = format!("SELECT * FROM r x, s y WHERE {BAND_A}");
    let equi = "SELECT * FROM r x, t z WHERE x.b = z.b".to_string();
    let chain = format!("SELECT * FROM t x, t y, t z WHERE {BAND_A}? AND {BAND_B}1");
    let classes = vec![
        Class {
            name: "band2_adhoc",
            variants: widths
                .iter()
                .map(|&w| Variant {
                    request: Request::RunAdhoc {
                        head: adhoc_head.clone(),
                        width: w,
                    },
                    expect: join(&r, &[band(&s, 0, 0, w)]),
                })
                .collect(),
        },
        Class {
            name: "equi2_repeat",
            variants: vec![Variant {
                request: Request::Run { sql: equi },
                expect: join(&r, &[band(&t, 0, 1, 0)]),
            }],
        },
        Class {
            name: "chain3_prepared",
            variants: chain_widths
                .iter()
                .map(|&w| Variant {
                    request: Request::Execute {
                        stmt: 0,
                        param: w as f64,
                    },
                    expect: join(&t, &[band(&t, 0, 0, w), band(&t, 1, 1, 1)]),
                })
                .collect(),
        },
        load_class(&r, &in_order(&r)),
    ];
    Workload {
        name: "small_mix",
        tables: vec![r, s, t],
        prepared: vec![chain],
        classes,
        clients: vec![vec![0, 1, 2], vec![1, 2, 0]],
    }
}

fn scan_skip(rng: &mut StdRng, n: usize) -> Workload {
    let d = n as i64;
    let big = table("big", n, rng, [d, d, 1000], true);
    // (class, share of the domain the 32 window rows span)
    let spans = [("win_tight", 0.001), ("win_mid", 0.05), ("win_wide", 0.25)];
    let mut windows = Vec::new();
    let mut classes = Vec::new();
    for (class, share) in spans {
        let span = ((d as f64 * share) as i64).max(8);
        let mut variants = Vec::new();
        for k in 0..2 {
            let offset = rng.gen_range(0..d - span);
            let name = format!("w_{}{k}", &class[4..5]);
            let mut w = table(&name, 32, rng, [span, d, 1000], true);
            for a in &mut w.cols[0] {
                *a += offset;
            }
            let sql = format!("SELECT * FROM big x, {name} w WHERE x.a <= w.a AND w.a <= x.a + 2");
            variants.push(Variant {
                request: Request::Run { sql },
                expect: join(&big, &[band(&w, 0, 0, 2)]),
            });
            windows.push(w);
        }
        classes.push(Class {
            name: class,
            variants,
        });
    }
    classes.push(load_class(&windows[0], &in_order(&windows[0])));
    let mut tables = vec![big];
    tables.extend(windows);
    Workload {
        name: "scan_skip",
        tables,
        prepared: vec![],
        classes,
        clients: vec![vec![0, 1, 2]],
    }
}

fn theta_heavy(rng: &mut StdRng, n: usize, m: usize) -> Workload {
    let (da, db) = (10 * n as i64, 10 * m as i64);
    let dc = (m as i64).max(8);
    let r = table("r", n, rng, [da, db, dc], false);
    let s = table("s", n, rng, [da, db, dc], false);
    let t = table("t", m, rng, [da, db, dc], false);
    let u = table("u", m, rng, [da, db, dc], false);
    let band2 = format!("SELECT * FROM r x, s y WHERE {BAND_A}2");
    let chain3 = format!("SELECT * FROM r x, s y, t z WHERE {BAND_A}2 AND {BAND_B}20");
    let multi4 =
        format!("SELECT * FROM r x, s y, t z, u v WHERE {BAND_A}2 AND {BAND_B}20 AND z.c = v.c");
    let steps3 = [band(&s, 0, 0, 2), band(&t, 1, 1, 20)];
    let steps4 = [band(&s, 0, 0, 2), band(&t, 1, 1, 20), band(&u, 2, 2, 0)];
    let one = |name, sql: String, expect| Class {
        name,
        variants: vec![Variant {
            request: Request::Run { sql },
            expect,
        }],
    };
    let classes = vec![
        one("band2", band2, join(&r, &steps3[..1])),
        one("chain3", chain3, join(&r, &steps3)),
        one("multi4", multi4, join(&r, &steps4)),
        load_class(&r, &in_order(&r)),
    ];
    Workload {
        name: "theta_heavy",
        tables: vec![r, s, t, u],
        prepared: vec![],
        classes,
        clients: vec![vec![0, 1, 2]],
    }
}

fn stream_ingest(rng: &mut StdRng, n: usize) -> Workload {
    // Two matches per key on average: ≈ 2n result rows.
    let da = (n as i64 / 2).max(4);
    let l = table("l", n, rng, [da, 1_000_000, 1000], false);
    let s = table("s", n, rng, [da, 1_000_000, 1000], false);
    let sql = "SELECT * FROM l x, s y WHERE x.a = y.a".to_string();
    // Four row orders of one multiset: every reload changes the bytes
    // on the wire and the block layout, never the streamed result.
    let orders: Vec<Vec<u32>> = (0..4)
        .map(|_| {
            let mut o: Vec<u32> = (0..n as u32).collect();
            o.shuffle(rng);
            o
        })
        .collect();
    let classes = vec![
        Class {
            name: "stream_equi",
            variants: vec![Variant {
                request: Request::Stream { sql },
                expect: join(&l, &[band(&s, 0, 0, 0)]),
            }],
        },
        load_class(&l, &orders),
    ];
    Workload {
        name: "stream_ingest",
        tables: vec![l, s],
        prepared: vec![],
        classes,
        clients: vec![vec![0], vec![1]],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for name in NAMES {
            let a = build(name, 7, 20).unwrap();
            let b = build(name, 7, 20).unwrap();
            let c = build(name, 8, 20).unwrap();
            assert_eq!(a.tables[0].cols, b.tables[0].cols, "{name}");
            assert_ne!(a.tables[0].cols, c.tables[0].cols, "{name}");
            let expects = |w: &Workload| -> Vec<Expected> {
                w.classes
                    .iter()
                    .flat_map(|c| c.variants.iter().map(|v| v.expect))
                    .collect()
            };
            assert_eq!(expects(&a), expects(&b), "{name}");
        }
        assert!(build("nope", 1, 1).is_none());
    }

    #[test]
    fn every_class_is_listed_and_every_query_returns_rows() {
        for name in NAMES {
            let w = build(name, 1, 20).unwrap();
            assert!(w.classes.last().unwrap().is_load());
            for c in &w.classes {
                assert!(CLASSES.contains(&c.name), "{name}/{}", c.name);
                for v in &c.variants {
                    assert!(v.expect.rows > 0, "{name}/{} would return nothing", c.name);
                }
            }
            for cycle in &w.clients {
                assert!(cycle.iter().all(|&c| c < w.classes.len()));
            }
        }
    }

    #[test]
    fn adhoc_literals_never_repeat_and_keep_their_integer_part() {
        let a = adhoc_literal(3);
        let b = adhoc_literal(3);
        assert_ne!(a, b);
        assert!(a.starts_with("3.") && a.len() == 8);
        assert_eq!(a.parse::<f64>().unwrap().floor(), 3.0);
    }
}
