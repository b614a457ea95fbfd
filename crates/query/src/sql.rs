//! A SQL-subset parser for N-join queries.
//!
//! The paper presents its benchmark workload "in a SQL-like style"
//! (§6.3.1); this module parses exactly that dialect into a
//! [`MultiwayQuery`]:
//!
//! ```sql
//! SELECT t3.id, t1.bt
//! FROM table t1, table t2, table t3
//! WHERE t1.bt <= t2.bt AND t1.l >= t2.l
//!   AND t2.bsc = t3.bsc AND t2.d = t3.d
//!   AND t1.d + 3 > t3.d
//! ```
//!
//! Supported grammar (case-insensitive keywords):
//!
//! ```text
//! query   := SELECT cols FROM rels WHERE conj
//! cols    := '*' | colref (',' colref)*
//! rels    := rel (',' rel)*
//! rel     := ident [ident]          -- "base alias" or just "alias"
//! conj    := cmp (AND cmp)*
//! cmp     := operand op operand
//! operand := colref [('+'|'-') (number | '?')]
//! colref  := ident '.' ident
//! op      := '<' | '<=' | '=' | '>=' | '>' | '!=' | '<>'
//! ```
//!
//! A `?` in the offset position is a *positional parameter* (prepared
//! statements): slots number left to right in text order, and the
//! resulting [`ParsedQuery`] is a template whose [`ParsedQuery::bind`]
//! produces an executable query per parameter vector.
//!
//! Every comparison must reference two *different* relations (join
//! predicates only — single-relation filters are outside the paper's
//! scope). Consecutive predicates over the same relation pair are
//! folded onto one join-graph edge, matching how the paper counts its
//! θ functions.

use crate::query::{MultiwayQuery, QueryBuilder};
use crate::theta::{ColExpr, ParamRef, ThetaOp};
use mwtj_storage::{Error, Result, Schema};

/// The first stage of the query lifecycle: a parsed SQL query (possibly
/// a `?`-parameterised template) plus the `FROM`-clause bookkeeping an
/// engine needs to wire instances to catalog entries.
#[derive(Debug, Clone)]
pub struct ParsedQuery {
    /// The query, built against the instance aliases. When
    /// [`ParsedQuery::param_count`] is non-zero this is a *template*
    /// with unbound `?` slots — [`ParsedQuery::bind`] before executing.
    pub query: MultiwayQuery,
    /// `(alias, base)` per FROM entry, in clause order. For a bare
    /// `FROM calls` entry both are `"calls"`.
    pub instances: Vec<(String, String)>,
}

/// Former name of [`ParsedQuery`] (kept for source compatibility).
pub type ParsedSql = ParsedQuery;

impl ParsedQuery {
    /// Number of `?` positional parameters in the template (`0` for an
    /// ordinary query).
    pub fn param_count(&self) -> usize {
        self.query.param_count()
    }

    /// Bind the template's positional parameters, producing an
    /// executable [`ParsedQuery`] (errors on a count mismatch). A
    /// parameterless query binds with `&[]` and comes back unchanged.
    pub fn bind(&self, params: &[f64]) -> Result<ParsedQuery> {
        Ok(ParsedQuery {
            query: self.query.bind_params(params)?,
            instances: self.instances.clone(),
        })
    }
}

/// Parse `sql` into a query. `schema_of` resolves a FROM-clause base
/// table name to its schema; each relation instance gets the schema's
/// columns under its alias.
pub fn parse_query(
    name: &str,
    sql: &str,
    schema_of: &dyn Fn(&str) -> Option<Schema>,
) -> Result<MultiwayQuery> {
    parse_sql(name, sql, schema_of).map(|p| p.query)
}

/// Like [`parse_query`], but also reports which base table each
/// FROM-clause instance refers to, so callers can register aliases.
pub fn parse_sql(
    name: &str,
    sql: &str,
    schema_of: &dyn Fn(&str) -> Option<Schema>,
) -> Result<ParsedQuery> {
    let tokens = tokenize(sql)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        sql,
        params: 0,
    };
    p.parse(name, schema_of)
}

/// A parsed SQL statement: a plain query, or an `EXPLAIN [ANALYZE]`
/// wrapper around one.
#[derive(Debug, Clone)]
pub enum Statement {
    /// An executable query.
    Select(ParsedQuery),
    /// `EXPLAIN <query>` (report the plan without executing) or
    /// `EXPLAIN ANALYZE <query>` (execute and report the profile).
    Explain {
        /// True for `EXPLAIN ANALYZE`.
        analyze: bool,
        /// The wrapped query.
        query: ParsedQuery,
    },
}

/// Parse a statement: an optional `EXPLAIN [ANALYZE]` prefix followed
/// by the [`parse_sql`] query grammar. `EXPLAIN` and `ANALYZE` are
/// keywords, so they cannot be used as table or alias names.
pub fn parse_statement(
    name: &str,
    sql: &str,
    schema_of: &dyn Fn(&str) -> Option<Schema>,
) -> Result<Statement> {
    let tokens = tokenize(sql)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        sql,
        params: 0,
    };
    if matches!(p.peek(), Some(Tok::Keyword(Kw::Explain))) {
        p.next();
        let analyze = if matches!(p.peek(), Some(Tok::Keyword(Kw::Analyze))) {
            p.next();
            true
        } else {
            false
        };
        Ok(Statement::Explain {
            analyze,
            query: p.parse(name, schema_of)?,
        })
    } else {
        Ok(Statement::Select(p.parse(name, schema_of)?))
    }
}

// ---------------------------------------------------------------- lexer

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Number(f64),
    Comma,
    Dot,
    Star,
    Plus,
    Minus,
    Question,
    Op(ThetaOp),
    Keyword(Kw),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kw {
    Select,
    From,
    Where,
    And,
    Explain,
    Analyze,
}

fn tokenize(sql: &str) -> Result<Vec<Tok>> {
    let mut out = Vec::new();
    let mut chars = sql.char_indices().peekable();
    while let Some(&(i, c)) = chars.peek() {
        match c {
            c if c.is_whitespace() => {
                chars.next();
            }
            ',' => {
                out.push(Tok::Comma);
                chars.next();
            }
            '.' => {
                // Disambiguate "t1.id" (dot) from "0.5" (number) by the
                // previous token: after an ident it's a field access.
                if matches!(out.last(), Some(Tok::Ident(_))) {
                    out.push(Tok::Dot);
                    chars.next();
                } else {
                    out.push(lex_number(&mut chars, sql, i)?);
                }
            }
            '*' => {
                out.push(Tok::Star);
                chars.next();
            }
            '?' => {
                out.push(Tok::Question);
                chars.next();
            }
            '+' => {
                out.push(Tok::Plus);
                chars.next();
            }
            '-' => {
                out.push(Tok::Minus);
                chars.next();
            }
            '<' | '>' | '=' | '!' => {
                chars.next();
                let second = chars.peek().map(|&(_, c2)| c2);
                let op = match (c, second) {
                    ('<', Some('=')) => {
                        chars.next();
                        ThetaOp::Le
                    }
                    ('<', Some('>')) => {
                        chars.next();
                        ThetaOp::Ne
                    }
                    ('<', _) => ThetaOp::Lt,
                    ('>', Some('=')) => {
                        chars.next();
                        ThetaOp::Ge
                    }
                    ('>', _) => ThetaOp::Gt,
                    ('=', _) => ThetaOp::Eq,
                    ('!', Some('=')) => {
                        chars.next();
                        ThetaOp::Ne
                    }
                    _ => {
                        return Err(Error::TypeError {
                            detail: format!("stray `{c}` at byte {i} of SQL"),
                        })
                    }
                };
                out.push(Tok::Op(op));
            }
            c if c.is_ascii_digit() => {
                out.push(lex_number(&mut chars, sql, i)?);
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut word = String::new();
                while let Some(&(_, c2)) = chars.peek() {
                    if c2.is_alphanumeric() || c2 == '_' {
                        word.push(c2);
                        chars.next();
                    } else {
                        break;
                    }
                }
                let kw = match word.to_ascii_uppercase().as_str() {
                    "SELECT" => Some(Kw::Select),
                    "FROM" => Some(Kw::From),
                    "WHERE" => Some(Kw::Where),
                    "AND" => Some(Kw::And),
                    "EXPLAIN" => Some(Kw::Explain),
                    "ANALYZE" => Some(Kw::Analyze),
                    _ => None,
                };
                out.push(match kw {
                    Some(k) => Tok::Keyword(k),
                    None => Tok::Ident(word),
                });
            }
            other => {
                return Err(Error::TypeError {
                    detail: format!("unexpected character `{other}` at byte {i} of SQL"),
                })
            }
        }
    }
    Ok(out)
}

fn lex_number(
    chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
    sql: &str,
    start: usize,
) -> Result<Tok> {
    let mut end = start;
    while let Some(&(j, c2)) = chars.peek() {
        if c2.is_ascii_digit() || c2 == '.' {
            end = j + c2.len_utf8();
            chars.next();
        } else {
            break;
        }
    }
    sql[start..end]
        .parse::<f64>()
        .map(Tok::Number)
        .map_err(|e| Error::TypeError {
            detail: format!("bad number `{}`: {e}", &sql[start..end]),
        })
}

// ---------------------------------------------------------------- parser

struct Parser<'a> {
    tokens: Vec<Tok>,
    pos: usize,
    sql: &'a str,
    /// Next `?` positional-parameter slot (text order).
    params: u32,
}

impl Parser<'_> {
    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_kw(&mut self, kw: Kw) -> Result<()> {
        match self.next() {
            Some(Tok::Keyword(k)) if k == kw => Ok(()),
            other => Err(self.err(&format!("expected {kw:?}, found {other:?}"))),
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(self.err(&format!("expected identifier, found {other:?}"))),
        }
    }

    fn err(&self, detail: &str) -> Error {
        Error::TypeError {
            detail: format!("SQL parse error: {detail} (query: `{}`)", self.sql),
        }
    }

    fn parse(
        &mut self,
        name: &str,
        schema_of: &dyn Fn(&str) -> Option<Schema>,
    ) -> Result<ParsedQuery> {
        self.expect_kw(Kw::Select)?;
        // Projection list (resolved after FROM).
        let mut proj: Vec<(String, String)> = Vec::new();
        let mut star = false;
        if matches!(self.peek(), Some(Tok::Star)) {
            self.next();
            star = true;
        } else {
            loop {
                let rel = self.expect_ident()?;
                match self.next() {
                    Some(Tok::Dot) => {}
                    other => return Err(self.err(&format!("expected `.`, found {other:?}"))),
                }
                let col = self.expect_ident()?;
                proj.push((rel, col));
                if matches!(self.peek(), Some(Tok::Comma)) {
                    self.next();
                } else {
                    break;
                }
            }
        }

        self.expect_kw(Kw::From)?;
        let mut builder = QueryBuilder::new(name);
        let mut instances: Vec<(String, String)> = Vec::new();
        loop {
            let mut first = self.expect_ident()?;
            // A dotted qualified name (`sys.queries`) folds into one
            // base name. Its *default* alias is the part after the dot
            // (`queries`), because a dotted alias could never be named
            // in a column reference (`rel.col` grammar).
            let mut default_alias = first.clone();
            if matches!(self.peek(), Some(Tok::Dot)) {
                self.next();
                let part = self.expect_ident()?;
                default_alias = part.clone();
                first = format!("{first}.{part}");
            }
            // "base alias" or bare "alias" (alias doubles as base).
            let (base, alias) = match self.peek() {
                Some(Tok::Ident(_)) => {
                    let alias = self.expect_ident()?;
                    (first, alias)
                }
                _ => (first, default_alias),
            };
            let schema =
                schema_of(&base).ok_or_else(|| Error::UnknownRelation { name: base.clone() })?;
            builder = builder.relation(Schema::new(&alias, schema.fields().to_vec()));
            instances.push((alias, base));
            if matches!(self.peek(), Some(Tok::Comma)) {
                self.next();
            } else {
                break;
            }
        }

        self.expect_kw(Kw::Where)?;
        loop {
            let left = self.parse_operand()?;
            let op = match self.next() {
                Some(Tok::Op(op)) => op,
                other => return Err(self.err(&format!("expected operator, found {other:?}"))),
            };
            let right = self.parse_operand()?;
            // Fold consecutive predicates over the same pair onto one
            // edge: try and_expr first, fall back to a new edge.
            let folded = builder.clone().and_expr(left.clone(), op, right.clone());
            builder = if folded.clone().build().is_ok() {
                folded
            } else {
                builder.join_expr(left, op, right)
            };
            if matches!(self.peek(), Some(Tok::Keyword(Kw::And))) {
                self.next();
            } else {
                break;
            }
        }
        if self.pos != self.tokens.len() {
            return Err(self.err(&format!(
                "trailing tokens after WHERE clause: {:?}",
                &self.tokens[self.pos..]
            )));
        }

        if !star {
            for (rel, col) in proj {
                builder = builder.project(&rel, &col);
            }
        }
        Ok(ParsedQuery {
            query: builder.build()?,
            instances,
        })
    }

    /// `colref [('+'|'-') (number | '?')]`
    fn parse_operand(&mut self) -> Result<ColExpr> {
        let rel = self.expect_ident()?;
        match self.next() {
            Some(Tok::Dot) => {}
            other => return Err(self.err(&format!("expected `.`, found {other:?}"))),
        }
        let col = self.expect_ident()?;
        let negated = match self.peek() {
            Some(Tok::Plus) => false,
            Some(Tok::Minus) => true,
            _ => return Ok(ColExpr::col(rel, col)),
        };
        self.next();
        if matches!(self.peek(), Some(Tok::Question)) {
            self.next();
            let index = self.params;
            self.params += 1;
            return Ok(ColExpr::col_param(rel, col, ParamRef { index, negated }));
        }
        let n = self.expect_number()?;
        Ok(ColExpr::col_plus(rel, col, if negated { -n } else { n }))
    }

    fn expect_number(&mut self) -> Result<f64> {
        match self.next() {
            Some(Tok::Number(n)) => Ok(n),
            other => Err(self.err(&format!("expected number, found {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwtj_storage::DataType;

    fn calls_schema() -> Schema {
        Schema::from_pairs(
            "table",
            &[
                ("id", DataType::Int),
                ("d", DataType::Int),
                ("bt", DataType::Int),
                ("l", DataType::Int),
                ("bsc", DataType::Int),
            ],
        )
    }

    fn resolver() -> impl Fn(&str) -> Option<Schema> {
        |name: &str| {
            if name == "table" {
                Some(calls_schema())
            } else {
                None
            }
        }
    }

    #[test]
    fn parses_dotted_relation_names() {
        let sys_resolver = |name: &str| {
            if name == "sys.queries" {
                Some(Schema::from_pairs(
                    "sys.queries",
                    &[("trace_id", DataType::Int), ("sim_ms", DataType::Double)],
                ))
            } else {
                None
            }
        };
        // Explicit aliases: a sys-catalog self band-join.
        let p = parse_sql(
            "q",
            "SELECT a.trace_id FROM sys.queries a, sys.queries b \
             WHERE a.sim_ms < b.sim_ms AND a.sim_ms + 10 > b.sim_ms",
            &sys_resolver,
        )
        .unwrap();
        assert_eq!(p.query.num_relations(), 2);
        assert_eq!(
            p.instances,
            vec![
                ("a".to_string(), "sys.queries".to_string()),
                ("b".to_string(), "sys.queries".to_string()),
            ]
        );
        // Bare dotted name: the default alias is the part after the
        // dot, so column references use `queries.…`.
        let p = parse_sql(
            "q",
            "SELECT queries.trace_id FROM sys.queries, sys.queries b \
             WHERE queries.sim_ms < b.sim_ms",
            &sys_resolver,
        )
        .unwrap();
        assert_eq!(
            p.instances,
            vec![
                ("queries".to_string(), "sys.queries".to_string()),
                ("b".to_string(), "sys.queries".to_string()),
            ]
        );
        // Unknown dotted names are typed errors, not panics.
        let err = parse_query(
            "q",
            "SELECT a.x FROM sys.nope a WHERE a.x < a.x",
            &sys_resolver,
        );
        assert!(matches!(err, Err(Error::UnknownRelation { .. })));
    }

    /// The paper's Q1, verbatim from §6.3.1.
    #[test]
    fn parses_paper_q1() {
        let sql = "SELECT t3.id FROM table t1, table t2, table t3 WHERE \
                   t1.bt <= t2.bt AND t1.l >= t2.l AND t2.bsc = t3.bsc AND t2.d = t3.d";
        let q = parse_query("Q1", sql, &resolver()).unwrap();
        assert_eq!(q.num_relations(), 3);
        // bt and l predicates fold onto the t1-t2 edge; bsc and d onto
        // t2-t3: two edges, four atoms.
        let atoms: usize = q.conditions.iter().map(|(_, _, p)| p.len()).sum();
        assert_eq!(atoms, 4);
        assert_eq!(q.projection.len(), 1);
        assert!(q.join_graph().is_connected());
    }

    /// The paper's Q3 with its `t1.d + 3 > t3.d` offset predicate.
    #[test]
    fn parses_offset_predicates() {
        let sql = "SELECT t1.id FROM table t1, table t2, table t3, table t4 WHERE \
                   t1.d < t2.d AND t2.d < t3.d AND t1.d + 3 > t3.d AND t1.bsc = t4.bsc";
        let q = parse_query("Q3", sql, &resolver()).unwrap();
        assert_eq!(q.num_relations(), 4);
        let has_offset = q
            .conditions
            .iter()
            .flat_map(|(_, _, p)| p)
            .any(|p| p.left.offset == 3.0);
        assert!(has_offset);
    }

    #[test]
    fn parses_all_operators() {
        for (txt, op) in [
            ("<", ThetaOp::Lt),
            ("<=", ThetaOp::Le),
            ("=", ThetaOp::Eq),
            (">=", ThetaOp::Ge),
            (">", ThetaOp::Gt),
            ("!=", ThetaOp::Ne),
            ("<>", ThetaOp::Ne),
        ] {
            let sql = format!("SELECT * FROM table a, table b WHERE a.d {txt} b.d");
            let q = parse_query("q", &sql, &resolver()).unwrap();
            assert_eq!(q.conditions[0].2[0].op, op, "{txt}");
        }
    }

    #[test]
    fn star_means_no_projection() {
        let sql = "SELECT * FROM table a, table b WHERE a.d < b.d";
        let q = parse_query("q", sql, &resolver()).unwrap();
        assert!(q.projection.is_empty());
    }

    #[test]
    fn negative_offsets() {
        let sql = "SELECT * FROM table a, table b WHERE a.d - 2 < b.d";
        let q = parse_query("q", sql, &resolver()).unwrap();
        assert_eq!(q.conditions[0].2[0].left.offset, -2.0);
    }

    #[test]
    fn keywords_case_insensitive() {
        let sql = "select a.id from table a, table b where a.d < b.d";
        assert!(parse_query("q", sql, &resolver()).is_ok());
    }

    #[test]
    fn parse_statement_handles_explain_prefixes() {
        let body = "SELECT a.id FROM table a, table b WHERE a.d < b.d";
        match parse_statement("q", body, &resolver()).unwrap() {
            Statement::Select(p) => assert_eq!(p.query.num_relations(), 2),
            other => panic!("expected Select, got {other:?}"),
        }
        match parse_statement("q", &format!("EXPLAIN {body}"), &resolver()).unwrap() {
            Statement::Explain { analyze, query } => {
                assert!(!analyze);
                assert_eq!(query.query.num_relations(), 2);
            }
            other => panic!("expected Explain, got {other:?}"),
        }
        match parse_statement("q", &format!("explain analyze {body}"), &resolver()).unwrap() {
            Statement::Explain { analyze, .. } => assert!(analyze),
            other => panic!("expected Explain, got {other:?}"),
        }
        // A bare EXPLAIN with no query is an error, not a panic.
        assert!(parse_statement("q", "EXPLAIN", &resolver()).is_err());
        assert!(parse_statement("q", "EXPLAIN ANALYZE", &resolver()).is_err());
    }

    #[test]
    fn rejects_garbage() {
        let bad = [
            "FROM table a WHERE a.d < a.d",                    // missing SELECT
            "SELECT * FROM table a, table b",                  // missing WHERE
            "SELECT * FROM nope a, table b WHERE a.d < b.d",   // unknown base
            "SELECT * FROM table a, table b WHERE a.zz < b.d", // unknown column
            "SELECT * FROM table a, table b WHERE a.d ?? b.d", // bad operator
            "SELECT * FROM table a, table b WHERE a.d < b.d extra", // trailing
        ];
        for sql in bad {
            assert!(parse_query("q", sql, &resolver()).is_err(), "{sql}");
        }
    }

    #[test]
    fn positional_parameters_parse_bind_and_refuse_misuse() {
        let sql = "SELECT t1.id FROM table t1, table t2 WHERE \
                   t1.d + ? < t2.d AND t1.bt - ? >= t2.bt";
        let parsed = parse_sql("q", sql, &resolver()).unwrap();
        assert_eq!(parsed.param_count(), 2);
        // Slots number left to right; `- ?` negates the bound value.
        let p0 = &parsed.query.conditions[0].2[0].left;
        assert_eq!(p0.param.map(|p| (p.index, p.negated)), Some((0, false)));
        let p1 = &parsed.query.conditions[0].2[1].left;
        assert_eq!(p1.param.map(|p| (p.index, p.negated)), Some((1, true)));
        // The template's Display names the slots (shape keys rely on
        // it) and the template refuses to compile unbound.
        assert!(
            parsed.query.to_string().contains("t1.d+?0"),
            "{}",
            parsed.query
        );
        assert!(parsed.query.compile().is_err());
        // Binding produces literal offsets and an executable query.
        let bound = parsed.bind(&[3.0, 2.0]).unwrap();
        assert_eq!(bound.query.conditions[0].2[0].left.offset, 3.0);
        assert_eq!(bound.query.conditions[0].2[1].left.offset, -2.0);
        assert_eq!(bound.param_count(), 0);
        assert!(bound.query.compile().is_ok());
        // Arity mismatches are errors.
        assert!(parsed.bind(&[1.0]).is_err());
        assert!(parsed.bind(&[1.0, 2.0, 3.0]).is_err());
        // A `?` anywhere but the offset position is rejected.
        assert!(parse_sql(
            "q",
            "SELECT ? FROM table a, table b WHERE a.d < b.d",
            &resolver()
        )
        .is_err());
        assert!(parse_sql(
            "q",
            "SELECT * FROM table a, table b WHERE ? < b.d",
            &resolver()
        )
        .is_err());
    }

    #[test]
    fn parsed_query_is_executable_shape() {
        // End-to-end sanity: compile succeeds and edges reference real
        // columns.
        let sql = "SELECT t2.id FROM table t1, table t2 WHERE t1.bt <= t2.bt AND t1.l >= t2.l";
        let q = parse_query("q", sql, &resolver()).unwrap();
        assert!(q.compile().is_ok());
        assert_eq!(q.num_conditions(), 1); // folded onto one edge
        assert_eq!(q.conditions[0].2.len(), 2);
    }
}
