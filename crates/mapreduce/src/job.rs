//! The MRJ programming model.
//!
//! A job reads one or more DFS files, each carrying a small integer
//! *tag* (the relation's position in the join chain), maps every input
//! row to zero or more `(partition key, tagged record)` pairs, shuffles
//! by partition key, and reduces each key group.
//!
//! This is deliberately the narrow waist all of the paper's jobs fit
//! through: Hilbert chain joins emit component ids as keys; equi-joins
//! emit value hashes; 1-Bucket-Theta emits rectangle ids; merges emit
//! shared-key hashes.

use crate::dfs::DfsFile;
use mwtj_storage::{BlockZones, Schema, Tuple};
use std::sync::Arc;

/// One input file with its chain tag.
#[derive(Debug, Clone)]
pub struct InputSpec {
    /// The input's label: with the job name and block index it seeds
    /// the map tasks, and when no file is [`InputSpec::bound`] it is
    /// the DFS file name to read.
    pub file: String,
    /// Tag delivered to the mapper with every row of this file
    /// (typically the relation's index in the job's chain).
    pub tag: u8,
    /// A sealed file the caller already holds (a query's base relation,
    /// bound once at admission). `None` reads `file` from the DFS by
    /// name when the job starts (intermediates).
    pub bound: Option<Arc<DfsFile>>,
}

impl InputSpec {
    /// An input read from the DFS by name.
    pub fn new(file: impl Into<String>, tag: u8) -> Self {
        InputSpec {
            file: file.into(),
            tag,
            bound: None,
        }
    }

    /// An input over an already-resolved file, labelled `label`.
    pub fn bound(label: impl Into<String>, file: Arc<DfsFile>, tag: u8) -> Self {
        InputSpec {
            file: label.into(),
            tag,
            bound: Some(file),
        }
    }
}

/// A record in flight between map and reduce: the source tag plus the
/// tuple payload. `aux` carries a mapper-chosen 64-bit value (the
/// paper's Algorithm 1 uses it for the tuple's random global id, so the
/// reducer can re-derive the tuple's stripe without a global view).
#[derive(Debug, Clone)]
pub struct TaggedRecord {
    /// Source tag (which input relation).
    pub tag: u8,
    /// Mapper-assigned auxiliary value (global id / band index / hash).
    pub aux: u64,
    /// The row.
    pub tuple: Tuple,
}

impl TaggedRecord {
    /// Bytes this record occupies on the wire: encoded tuple + tag byte
    /// + aux (varint-ish, call it 8) — the unit of shuffle accounting.
    pub fn wire_bytes(&self) -> usize {
        Self::wire_len(&self.tuple)
    }

    /// [`TaggedRecord::wire_bytes`] of a record carrying `tuple`,
    /// without building it.
    pub fn wire_len(tuple: &Tuple) -> usize {
        tuple.encoded_len() + 1 + 8
    }
}

/// Map-side emitter: `(partition key, record)`.
pub type Emit<'a> = dyn FnMut(u64, TaggedRecord) + 'a;

/// Zone maps of a job's input blocks, grouped by input tag. Blocks
/// appear in read order (file order, concatenated when several inputs
/// share a tag), so a block's position here is its ordinal among the
/// tag's map tasks.
#[derive(Debug, Default)]
pub struct TagZones {
    tags: Vec<Vec<Arc<BlockZones>>>,
}

impl TagZones {
    /// Empty set.
    pub fn new() -> Self {
        TagZones::default()
    }

    /// Append the next block of `tag`.
    pub fn push(&mut self, tag: u8, zones: Arc<BlockZones>) {
        let t = tag as usize;
        if self.tags.len() <= t {
            self.tags.resize_with(t + 1, Vec::new);
        }
        self.tags[t].push(zones);
    }

    /// The blocks of `tag`, in read order (empty for unknown tags).
    pub fn blocks(&self, tag: u8) -> &[Arc<BlockZones>] {
        self.tags.get(tag as usize).map_or(&[], |v| v.as_slice())
    }
}

/// A job-compiled data-skipping decision procedure, built once per run
/// from the input [`TagZones`]. Both methods must be *conservative*:
/// answering `false` asserts that dropping the block's (or row's) map
/// emissions cannot change the job's output. Skipping only ever drops
/// work — surviving blocks keep their original seeds and surviving rows
/// their original in-block indices — so output rows stay bit-identical
/// to a skip-off run.
pub trait SkipFilter: Send + Sync {
    /// May block `block` (read-order ordinal within `tag`) contribute
    /// any output? `false` ⇒ the whole block is skipped unread.
    fn keep_block(&self, tag: u8, block: usize) -> bool;

    /// May `row` of `tag` contribute any output? `false` ⇒ its map call
    /// is skipped (the row is still read and charged as input).
    fn keep_row(&self, tag: u8, row: &Tuple) -> bool;

    /// `(block pairs examined, block pairs proven empty)` across the
    /// predicate graph — the zone-map effectiveness counters.
    fn pair_counts(&self) -> (u64, u64);
}

/// The rows of one run's zone-kept blocks, by input tag: what a job's
/// [`MrJob::dead_rows`] filter is built from.
pub struct KeptRows<'a> {
    tags: Vec<Vec<&'a [Tuple]>>,
    skip: Option<&'a dyn SkipFilter>,
}

impl<'a> KeptRows<'a> {
    /// No blocks yet; `skip` is the run's zone-map filter, if any.
    pub fn new(skip: Option<&'a dyn SkipFilter>) -> Self {
        KeptRows {
            tags: Vec::new(),
            skip,
        }
    }

    /// Append the next kept block of `tag`.
    pub fn push(&mut self, tag: u8, rows: &'a [Tuple]) {
        let t = tag as usize;
        if self.tags.len() <= t {
            self.tags.resize_with(t + 1, Vec::new);
        }
        self.tags[t].push(rows);
    }

    fn blocks(&self, tag: u8) -> &[&'a [Tuple]] {
        self.tags.get(tag as usize).map_or(&[], |v| v.as_slice())
    }

    /// Rows in `tag`'s kept blocks, before row-level skipping.
    pub fn count(&self, tag: u8) -> usize {
        self.blocks(tag).iter().map(|b| b.len()).sum()
    }

    /// `tag`'s rows that reach a map call: the kept blocks' rows in read
    /// order, less those the zone-map filter drops.
    pub fn rows(&self, tag: u8) -> impl Iterator<Item = &'a Tuple> + '_ {
        self.blocks(tag)
            .iter()
            .flat_map(|b| b.iter())
            .filter(move |row| self.skip.is_none_or(|f| f.keep_row(tag, row)))
    }
}

/// A job's proof, built once per run, that some input rows cannot
/// contribute to any output row — and the reduce that still prices them.
///
/// A *dead* row is counted, not shipped: the engine adds the records its
/// map call would emit, and their wire bytes, to the map output and to
/// each destination reducer, but never builds or moves them. The
/// simulated clock therefore prices exactly what a run that ships every
/// row prices.
pub trait DeadRows: Send + Sync {
    /// If `row` of `tag` is dead, report every record its map call would
    /// emit as `count(partition key, wire bytes)` and return `true`;
    /// otherwise report nothing and return `false`, and the engine maps
    /// the row as usual. `block_seed` and `row_idx` are the map call's.
    fn count(
        &self,
        tag: u8,
        row: &Tuple,
        block_seed: u64,
        row_idx: usize,
        count: &mut dyn FnMut(u64, usize),
    ) -> bool;

    /// Reduce reducer `key`'s whole input: the shipped `records` plus,
    /// per tag `t`, `counted[t]` records that were counted instead
    /// (missing tags count 0). Must emit the rows, in the order, and
    /// return the priced count that [`MrJob::reduce`] would for the
    /// input with every counted record shipped.
    fn reduce(
        &self,
        key: u64,
        records: &[TaggedRecord],
        counted: &[u64],
        emit: &mut dyn FnMut(Tuple) -> bool,
    ) -> u64;
}

/// A MapReduce job. Implementations must be `Sync`: map and reduce
/// tasks run on a thread pool.
pub trait MrJob: Sync {
    /// Human-readable job name (for metrics and plan traces).
    fn name(&self) -> String;

    /// Schema of the job's output rows.
    fn output_schema(&self) -> Schema;

    /// Map one input row. `tag` is the [`InputSpec::tag`] of the file
    /// the row came from; `block_seed` is a per-map-task seed and
    /// `row_idx` the row's position within its block. Together they let
    /// a mapper draw *deterministic* pseudo-random values per row
    /// (Algorithm 1's random global IDs) while staying rerunnable —
    /// exactly Hadoop's task-retry contract: no global view, but
    /// deterministic given the block.
    fn map(&self, tag: u8, row: &Tuple, block_seed: u64, row_idx: usize, emit: &mut Emit<'_>);

    /// Reduce one key group. `records` arrive grouped by key; groups
    /// are delivered in ascending key order and records within a group
    /// keep their arrival order (map-task order, then emit order) —
    /// the engine's sort-merge grouping is stable, and downstream
    /// byte-accounting determinism relies on it.
    ///
    /// Returns the group's **priced** candidate count: the number of
    /// candidate combinations the textbook reducer would examine — for
    /// the chain join its depth-wise nested loop with early predicate
    /// pruning, for a pair join `|L|·|R|`. The engine charges
    /// `cpu_per_candidate_secs` per unit on the simulated clock, so the
    /// count must not depend on how the host finds the matches (the
    /// join jobs' hash and key-range indexes visit far fewer). What the
    /// host really visited is [`MrJob::reduce_examined`].
    fn reduce(&self, key: u64, records: &[TaggedRecord], out: &mut Vec<Tuple>) -> u64;

    /// Running total of the candidates this job's `reduce` /
    /// `reduce_streamed` calls have really visited on the host, calls
    /// of attempts that were later retried included — the engine
    /// reports the growth across one run as
    /// [`JobMetrics::reduce_examined`](crate::JobMetrics::reduce_examined).
    /// Host-side observation only: nothing prices it. `None` (the
    /// default) for jobs that do not count their visits.
    fn reduce_examined(&self) -> Option<u64> {
        None
    }

    /// Compile a data-skipping filter for this run's input blocks, or
    /// `None` when the job cannot prune (no compiled predicates, or
    /// semantics — like shared-relation NULL-equality merges — that
    /// zone ranges cannot capture). The default never skips.
    fn skip_filter(&self, _zones: &TagZones) -> Option<Box<dyn SkipFilter>> {
        None
    }

    /// Build this run's [`DeadRows`] filter from the rows of its
    /// zone-kept blocks, or `None` (the default) to ship every row.
    ///
    /// The counted-reduce contract: counts include every dead row, so
    /// the group sizes and survivor counts the job prices are those of
    /// a run that ships them. Only a job whose reduce groups are whole
    /// reducers — no record sets [`GROUP_BY_AUX`](crate::engine::GROUP_BY_AUX)
    /// in its `aux` — may offer a filter. The engine then calls [`DeadRows::reduce`]
    /// once per reducer, including one that received only counted
    /// records or none, in place of [`MrJob::reduce`] and
    /// [`MrJob::reduce_streamed`].
    fn dead_rows<'a>(&'a self, _kept: &KeptRows<'a>) -> Option<Box<dyn DeadRows + 'a>> {
        None
    }

    /// Streaming variant of [`MrJob::reduce`]: emit output rows one at
    /// a time instead of materialising the group's output vector.
    ///
    /// Contract: must emit exactly the rows `reduce` would push, in the
    /// same order, and return the same candidate count — the engine's
    /// streamed path relies on it for bit-identical results and cost
    /// metrics. `emit` returns `false` when the downstream receiver is
    /// gone; implementations should stop producing promptly (the run is
    /// being cancelled, so the candidate count no longer matters).
    ///
    /// The default buffers one group's output via `reduce` — correct
    /// for any job, memory-bounded only by the largest single group.
    /// Jobs whose groups can be huge (the terminal join jobs) override
    /// this with a true visitor path.
    fn reduce_streamed(
        &self,
        key: u64,
        records: &[TaggedRecord],
        emit: &mut dyn FnMut(Tuple) -> bool,
    ) -> u64 {
        let mut out = Vec::new();
        let candidates = self.reduce(key, records, &mut out);
        for row in out {
            if !emit(row) {
                break;
            }
        }
        candidates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwtj_storage::tuple;

    #[test]
    fn wire_bytes_includes_overhead() {
        let r = TaggedRecord {
            tag: 3,
            aux: 42,
            tuple: tuple![1, 2, 3],
        };
        assert_eq!(r.wire_bytes(), r.tuple.encoded_len() + 9);
    }

    #[test]
    fn input_spec_builder() {
        let i = InputSpec::new("f", 2);
        assert_eq!(i.file, "f");
        assert_eq!(i.tag, 2);
    }
}
