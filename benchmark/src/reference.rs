//! The harness's own join evaluator: the expected row count and
//! checksum of every statement are computed here, from the generated
//! integer columns, by sorted-index lookups that share no code with
//! the engine under test.

/// A generated relation: three integer columns `a`, `b`, `c`.
#[derive(Debug, Clone)]
pub struct Table {
    pub name: String,
    pub cols: [Vec<i64>; 3],
}

impl Table {
    pub fn len(&self) -> usize {
        self.cols[0].len()
    }
}

/// What a statement must return: how many rows, and an
/// order-independent 64-bit checksum of their CSV text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Expected {
    pub rows: u64,
    pub checksum: u64,
}

impl Expected {
    /// Fold one CSV row (no line terminator) into the summary.
    pub fn add_row(&mut self, csv_row: &[u8]) {
        self.rows += 1;
        self.checksum = self.checksum.wrapping_add(row_hash(csv_row));
    }

    /// Summarise a CSV body whose first line is a header.
    pub fn of_csv_with_header(body: &str) -> Expected {
        let mut e = Expected::default();
        for line in body.lines().skip(1) {
            e.add_row(line.as_bytes());
        }
        e
    }
}

/// FNV-1a over the bytes, then a splitmix64 finaliser so that the
/// wrapping sum over rows does not cancel on near-identical rows.
fn row_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// One more relation joined onto the partial result: rows of `table`
/// whose `col` lies in `[v, v + width]`, where `v` is column
/// `from_col` of the relation already bound at position `from`
/// (`width == 0` is an equi-join).
pub struct Step<'a> {
    pub from: usize,
    pub from_col: usize,
    pub table: &'a Table,
    pub col: usize,
    pub width: i64,
}

/// Evaluate `first ⋈ steps…` and summarise the result as the engine's
/// `SELECT *` would print it: all columns of every relation, in FROM
/// order, comma-separated.
pub fn join(first: &Table, steps: &[Step<'_>]) -> Expected {
    // Per step: the new table's rows sorted by the join column.
    let indexes: Vec<Vec<(i64, u32)>> = steps
        .iter()
        .map(|s| {
            let mut idx: Vec<(i64, u32)> = s.table.cols[s.col]
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, i as u32))
                .collect();
            idx.sort_unstable();
            idx
        })
        .collect();
    let mut tables: Vec<&Table> = vec![first];
    tables.extend(steps.iter().map(|s| s.table));
    let mut out = Expected::default();
    let mut bound = vec![0u32; tables.len()];
    let mut text = String::new();
    for i in 0..first.len() {
        bound[0] = i as u32;
        extend(&tables, steps, &indexes, 0, &mut bound, &mut text, &mut out);
    }
    out
}

fn extend(
    tables: &[&Table],
    steps: &[Step<'_>],
    indexes: &[Vec<(i64, u32)>],
    depth: usize,
    bound: &mut [u32],
    text: &mut String,
    out: &mut Expected,
) {
    use std::fmt::Write as _;
    let Some(step) = steps.get(depth) else {
        text.clear();
        for (t, &row) in tables.iter().zip(bound.iter()) {
            for col in &t.cols {
                if !text.is_empty() {
                    text.push(',');
                }
                let _ = write!(text, "{}", col[row as usize]);
            }
        }
        out.add_row(text.as_bytes());
        return;
    };
    let v = tables[step.from].cols[step.from_col][bound[step.from] as usize];
    let idx = &indexes[depth];
    let lo = idx.partition_point(|&(x, _)| x < v);
    for &(x, row) in &idx[lo..] {
        if x > v + step.width {
            break;
        }
        bound[depth + 1] = row;
        extend(tables, steps, indexes, depth + 1, bound, text, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(name: &str, a: &[i64], b: &[i64]) -> Table {
        Table {
            name: name.into(),
            cols: [a.to_vec(), b.to_vec(), vec![0; a.len()]],
        }
    }

    /// Brute-force nested loop over the same predicate, as CSV lines.
    fn brute(l: &Table, lc: usize, r: &Table, rc: usize, width: i64) -> Expected {
        let mut e = Expected::default();
        for i in 0..l.len() {
            for j in 0..r.len() {
                let (x, y) = (l.cols[lc][i], r.cols[rc][j]);
                if x <= y && y <= x + width {
                    let row = format!(
                        "{},{},{},{},{},{}",
                        l.cols[0][i],
                        l.cols[1][i],
                        l.cols[2][i],
                        r.cols[0][j],
                        r.cols[1][j],
                        r.cols[2][j]
                    );
                    e.add_row(row.as_bytes());
                }
            }
        }
        e
    }

    #[test]
    fn equi_join_counts_duplicate_keys_on_both_sides() {
        let l = table("l", &[1, 1, 2, 5], &[10, 11, 12, 13]);
        let r = table("r", &[1, 1, 1, 2, 7], &[20, 21, 22, 23, 24]);
        let step = [Step {
            from: 0,
            from_col: 0,
            table: &r,
            col: 0,
            width: 0,
        }];
        let got = join(&l, &step);
        assert_eq!(got.rows, 2 * 3 + 1);
        assert_eq!(got, brute(&l, 0, &r, 0, 0));
    }

    #[test]
    fn band_join_matches_brute_force_and_empty_results_are_zero() {
        let l = table("l", &[0, 3, 3, 9, -2], &[0; 5]);
        let r = table("r", &[1, 2, 3, 4, 5, 5, 11], &[0; 7]);
        let step = |width| {
            [Step {
                from: 0,
                from_col: 0,
                table: &r,
                col: 0,
                width,
            }]
        };
        assert_eq!(join(&l, &step(2)), brute(&l, 0, &r, 0, 2));
        assert!(join(&l, &step(2)).rows > 0);
        let far = table("far", &[100, 200], &[0, 0]);
        assert_eq!(join(&far, &step(2)), Expected::default());
        let none = table("none", &[], &[]);
        assert_eq!(join(&none, &step(2)), Expected::default());
    }

    #[test]
    fn chains_bind_each_step_to_the_named_earlier_relation() {
        // r.a ~ s.a (band 1), then s.b = t.b: the second step looks up
        // through position 1, not position 0.
        let r = table("r", &[1, 4], &[0, 0]);
        let s = table("s", &[1, 2, 5], &[7, 8, 7]);
        let t = table("t", &[0, 0, 0], &[7, 7, 9]);
        let steps = [
            Step {
                from: 0,
                from_col: 0,
                table: &s,
                col: 0,
                width: 1,
            },
            Step {
                from: 1,
                from_col: 1,
                table: &t,
                col: 1,
                width: 0,
            },
        ];
        // (r0,s0) (r0,s1) (r1,s2) survive the band; s0 and s2 have
        // b=7 → two t rows each, s1 has b=8 → none.
        let got = join(&r, &steps);
        assert_eq!(got.rows, 4);
        let mut want = Expected::default();
        for row in [
            "1,0,0,1,7,0,0,7,0",
            "1,0,0,1,7,0,0,7,0",
            "4,0,0,5,7,0,0,7,0",
            "4,0,0,5,7,0,0,7,0",
        ] {
            want.add_row(row.as_bytes());
        }
        assert_eq!(got, want);
    }

    #[test]
    fn checksum_ignores_row_order_but_not_content() {
        let body_a = "h\n1,2\n3,4\n";
        let body_b = "h\n3,4\n1,2\n";
        let body_c = "h\n1,2\n3,5\n";
        let a = Expected::of_csv_with_header(body_a);
        assert_eq!(a.rows, 2);
        assert_eq!(a, Expected::of_csv_with_header(body_b));
        assert_ne!(a.checksum, Expected::of_csv_with_header(body_c).checksum);
    }
}
