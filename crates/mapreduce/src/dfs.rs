//! A model of the distributed file system: named files split into
//! blocks, blocks replicated across nodes, with data locality for map
//! scheduling and priced uploads.
//!
//! Blocks hold decoded tuples (host memory is our disk) but their
//! *accounted* size is the encoded byte length, so block counts and all
//! I/O pricing match what a real HDFS would see.

use crate::config::ClusterConfig;
use mwtj_storage::{BlockZones, Relation, Schema, Tuple};
use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// Identifies one block of one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockId {
    /// File-unique block ordinal.
    pub index: u32,
}

/// One replicated block.
#[derive(Debug, Clone)]
pub struct Block {
    /// Rows stored in this block.
    pub rows: Arc<Vec<Tuple>>,
    /// Encoded byte size of the rows.
    pub bytes: usize,
    /// Nodes holding a replica.
    pub replicas: Vec<u32>,
    /// Per-column zone maps (min/max/null counts) computed at write
    /// time — the metadata map-side data skipping routes on.
    pub zones: Arc<BlockZones>,
}

/// A named DFS file: a schema and its blocks.
#[derive(Debug, Clone)]
pub struct DfsFile {
    /// Schema of the rows in the file.
    pub schema: Schema,
    /// The blocks, in order.
    pub blocks: Vec<Block>,
    /// Total encoded bytes.
    pub bytes: usize,
    /// Total rows.
    pub rows: usize,
}

impl DfsFile {
    /// Iterate all rows in block order (testing/oracle use; the engine
    /// reads per block).
    pub fn all_rows(&self) -> impl Iterator<Item = &Tuple> {
        self.blocks.iter().flat_map(|b| b.rows.iter())
    }
}

/// The file system. Cheap to clone (shared interior).
#[derive(Debug, Clone, Default)]
pub struct Dfs {
    inner: Arc<RwLock<HashMap<String, Arc<DfsFile>>>>,
}

impl Dfs {
    /// Create an empty DFS.
    pub fn new() -> Self {
        Dfs::default()
    }

    /// Store a relation as a file named `name` ([`Dfs::seal`] then
    /// [`Dfs::put_file`]). Returns the simulated upload time in seconds.
    pub fn put_relation(&self, name: &str, rel: &Relation, config: &ClusterConfig) -> f64 {
        self.put_file(name, Arc::new(Self::seal(name, rel, config)), config)
    }

    /// Split a relation into blocks of `config.params.block_bytes`,
    /// placing `replication` replicas of each block on distinct random
    /// nodes (seeded by `name`) and computing each block's zone maps.
    /// The file is sealed — immutable from here on — but not yet
    /// visible under any name.
    pub fn seal(name: &str, rel: &Relation, config: &ClusterConfig) -> DfsFile {
        let mut rng = StdRng::seed_from_u64(hash_name(name));
        let block_bytes = config.params.block_bytes.max(1);
        let nodes: Vec<u32> = (0..config.nodes).collect();
        let arity = rel.schema().arity();
        let mut blocks: Vec<Block> = Vec::new();
        let mut cur: Vec<Tuple> = Vec::new();
        let mut cur_bytes = 0usize;
        // Rows already sealed into blocks — with a columnar backing,
        // block `blocks.len()` covers rows `sealed .. sealed+cur.len()`
        // and its zones come from one typed pass over the column
        // vectors instead of a per-tuple value walk.
        let mut sealed = 0usize;
        for row in rel.rows() {
            let len = row.encoded_len();
            if cur_bytes + len > block_bytes && !cur.is_empty() {
                sealed += cur.len();
                blocks.push(Self::seal_block(
                    &mut cur,
                    &mut cur_bytes,
                    &nodes,
                    config,
                    &mut rng,
                    arity,
                    rel.columns().map(|c| (c.as_ref(), sealed)),
                ));
            }
            cur_bytes += len;
            cur.push(row.clone());
        }
        if !cur.is_empty() || blocks.is_empty() {
            sealed += cur.len();
            blocks.push(Self::seal_block(
                &mut cur,
                &mut cur_bytes,
                &nodes,
                config,
                &mut rng,
                arity,
                rel.columns().map(|c| (c.as_ref(), sealed)),
            ));
        }
        DfsFile {
            schema: rel.schema().clone(),
            blocks,
            bytes: rel.encoded_bytes(),
            rows: rel.len(),
        }
    }

    /// Publish a sealed file under `name`, replacing any previous file
    /// of that name. Returns the simulated upload time in seconds (each
    /// datanode uploads from local disk in parallel, §6.3: "uploading
    /// is performed by each DataNode from their local disk").
    pub fn put_file(&self, name: &str, file: Arc<DfsFile>, config: &ClusterConfig) -> f64 {
        // Parallel upload by all datanodes; the pipeline write rate
        // already includes replication (TestDFSIO semantics).
        let per_node_bytes = file.bytes as f64 / config.nodes.max(1) as f64;
        self.inner.write().insert(name.to_string(), file);
        per_node_bytes / config.hardware.disk_write_bps
    }

    fn seal_block(
        cur: &mut Vec<Tuple>,
        cur_bytes: &mut usize,
        nodes: &[u32],
        config: &ClusterConfig,
        rng: &mut impl Rng,
        arity: usize,
        // The relation's columnar backing plus this block's *end* row
        // index (the block covers `end - cur.len() .. end`).
        columnar: Option<(&mwtj_storage::Columns, usize)>,
    ) -> Block {
        let k = (config.params.replication as usize).min(nodes.len().max(1));
        let mut choice: Vec<u32> = nodes.to_vec();
        choice.shuffle(rng);
        choice.truncate(k);
        let rows = Arc::new(std::mem::take(cur));
        let zones = match columnar {
            // Columnar backing: one typed min/max pass per column
            // vector (bit-identical to `BlockZones::collect`, pinned
            // by storage tests).
            Some((cols, end))
                if end >= rows.len() && end <= cols.len() && cols.arity() == arity =>
            {
                Arc::new(cols.zones_for(end - rows.len()..end))
            }
            _ => Arc::new(BlockZones::collect(&rows, arity)),
        };
        Block {
            rows,
            bytes: std::mem::take(cur_bytes),
            replicas: choice,
            zones,
        }
    }

    /// Fetch a file.
    pub fn get(&self, name: &str) -> Option<Arc<DfsFile>> {
        self.inner.read().get(name).cloned()
    }

    /// Remove a file (e.g. a consumed intermediate), returning whether it
    /// existed.
    pub fn remove(&self, name: &str) -> bool {
        self.inner.write().remove(name).is_some()
    }

    /// All file names.
    pub fn list(&self) -> Vec<String> {
        let mut v: Vec<String> = self.inner.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Read a whole file back into a relation (final-result collection).
    pub fn read_relation(&self, name: &str) -> Option<Relation> {
        let f = self.get(name)?;
        let rows: Vec<Tuple> = f.all_rows().cloned().collect();
        Some(Relation::from_rows_unchecked(f.schema.clone(), rows))
    }
}

fn hash_name(name: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    name.hash(&mut h);
    h.finish()
}

/// The logical view of a DFS file name: the per-run `__run<N>_` prefix
/// of an intermediate file is a transient renaming of the same logical
/// data. Block seeding keys on the logical name, so every run of one
/// query seeds its map tasks identically.
pub fn logical_file_name(file: &str) -> &str {
    if let Some(after) = file.strip_prefix("__run") {
        let digits = after.chars().take_while(|c| c.is_ascii_digit()).count();
        if digits > 0 {
            if let Some(rest) = after[digits..].strip_prefix('_') {
                return rest;
            }
        }
    }
    file
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwtj_storage::{tuple, DataType};

    fn rel(n: usize) -> Relation {
        let schema = Schema::from_pairs("t", &[("a", DataType::Int), ("b", DataType::Str)]);
        let rows = (0..n)
            .map(|i| tuple![i as i64, format!("row-{i:06}")])
            .collect();
        Relation::from_rows_unchecked(schema, rows)
    }

    /// A columnar-backed relation must produce block-for-block
    /// identical zone maps (and placement) to the same relation forced
    /// row-major — the skip subsystem cannot observe the storage
    /// layout.
    #[test]
    fn columnar_backing_yields_identical_zones() {
        let mut cfg = ClusterConfig::default();
        cfg.params.block_bytes = 4096; // force a multi-block split
        let schema = Schema::from_pairs("t", &[("a", DataType::Int), ("b", DataType::Double)]);
        let rows: Vec<Tuple> = (0..5_000)
            .map(|i| {
                let a = if i % 97 == 0 {
                    mwtj_storage::Value::Null
                } else if i % 41 == 0 {
                    mwtj_storage::Value::Int((1i64 << 53) + i)
                } else {
                    mwtj_storage::Value::Int(i * 7 % 1000)
                };
                let b = if i % 53 == 0 {
                    mwtj_storage::Value::Double(-0.0)
                } else {
                    mwtj_storage::Value::Double(i as f64 / 3.0)
                };
                Tuple::new(vec![a, b])
            })
            .collect();
        let r = Relation::from_rows(schema, rows).unwrap();
        let columnar = r.with_columnar();
        assert!(columnar.columns().is_some());
        let row_major = columnar.without_columns();
        let (d1, d2) = (Dfs::new(), Dfs::new());
        d1.put_relation("t", &columnar, &cfg);
        d2.put_relation("t", &row_major, &cfg);
        let (f1, f2) = (d1.get("t").unwrap(), d2.get("t").unwrap());
        assert_eq!(f1.blocks.len(), f2.blocks.len());
        assert!(f1.blocks.len() > 1, "want a multi-block split");
        for (b1, b2) in f1.blocks.iter().zip(&f2.blocks) {
            assert_eq!(b1.rows, b2.rows);
            assert_eq!(b1.replicas, b2.replicas);
            assert_eq!(format!("{:?}", b1.zones), format!("{:?}", b2.zones));
        }
    }

    #[test]
    fn blocks_respect_size_and_hold_all_rows() {
        let cfg = ClusterConfig::default();
        let dfs = Dfs::new();
        let r = rel(20_000);
        let t = dfs.put_relation("t", &r, &cfg);
        assert!(t > 0.0);
        let f = dfs.get("t").unwrap();
        assert_eq!(f.rows, 20_000);
        assert_eq!(f.bytes, r.encoded_bytes());
        assert!(f.blocks.len() > 1, "expected multiple blocks");
        for b in &f.blocks {
            assert!(b.bytes <= cfg.params.block_bytes * 2, "oversized block");
            assert_eq!(
                b.replicas.len(),
                cfg.params.replication as usize,
                "replication factor"
            );
            let mut sorted = b.replicas.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), b.replicas.len(), "replicas on distinct nodes");
        }
        let total: usize = f.blocks.iter().map(|b| b.rows.len()).sum();
        assert_eq!(total, 20_000);
    }

    #[test]
    fn empty_relation_gets_one_empty_block() {
        let cfg = ClusterConfig::default();
        let dfs = Dfs::new();
        let r = rel(0);
        dfs.put_relation("e", &r, &cfg);
        let f = dfs.get("e").unwrap();
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.rows, 0);
    }

    #[test]
    fn read_back_roundtrips() {
        let cfg = ClusterConfig::default();
        let dfs = Dfs::new();
        let r = rel(1234);
        dfs.put_relation("t", &r, &cfg);
        let back = dfs.read_relation("t").unwrap();
        assert_eq!(back.len(), r.len());
        assert_eq!(back.sorted_rows(), r.sorted_rows());
    }

    #[test]
    fn upload_time_scales_with_bytes() {
        let cfg = ClusterConfig::default();
        let dfs = Dfs::new();
        let t_small = dfs.put_relation("s", &rel(1000), &cfg);
        let t_big = dfs.put_relation("b", &rel(10_000), &cfg);
        assert!(t_big > t_small * 5.0, "{t_big} vs {t_small}");
    }

    #[test]
    fn blocks_carry_zone_maps() {
        let cfg = ClusterConfig::default();
        let dfs = Dfs::new();
        dfs.put_relation("t", &rel(5_000), &cfg);
        let f = dfs.get("t").unwrap();
        let mut seen = 0usize;
        for b in &f.blocks {
            assert_eq!(b.zones.rows, b.rows.len() as u64);
            assert_eq!(b.zones.columns.len(), 2);
            // Column 0 is 0..5000 split in row order: each block's range
            // covers exactly its rows.
            match b.zones.column(0).range {
                mwtj_storage::ZoneRange::Range { min, max } => {
                    assert_eq!(min as usize, seen);
                    assert_eq!(max as usize, seen + b.rows.len() - 1);
                }
                other => panic!("expected range, got {other:?}"),
            }
            // Column 1 is strings: never prunable.
            assert_eq!(b.zones.column(1).range, mwtj_storage::ZoneRange::Unbounded);
            seen += b.rows.len();
        }
    }

    /// A sealed file can be scanned without ever entering the
    /// namespace, and publishing it stores that very file.
    #[test]
    fn seal_then_put_file_is_put_relation() {
        let cfg = ClusterConfig::default();
        let dfs = Dfs::new();
        let r = rel(20_000);
        let sealed = Arc::new(Dfs::seal("t", &r, &cfg));
        assert!(dfs.list().is_empty(), "sealing alone publishes nothing");
        let secs = dfs.put_file("t", Arc::clone(&sealed), &cfg);
        assert!(Arc::ptr_eq(&dfs.get("t").unwrap(), &sealed));
        let other = Dfs::new();
        assert_eq!(other.put_relation("t", &r, &cfg), secs);
        let stored = other.get("t").unwrap();
        assert_eq!(stored.blocks.len(), sealed.blocks.len());
        for (a, b) in stored.blocks.iter().zip(&sealed.blocks) {
            assert_eq!(a.rows, b.rows);
            assert_eq!(a.replicas, b.replicas);
            assert_eq!(*a.zones, *b.zones);
        }
    }

    #[test]
    fn logical_names_strip_namespaces() {
        assert_eq!(logical_file_name("__run3_mid"), "mid");
        assert_eq!(logical_file_name("trades"), "trades");
        assert_eq!(logical_file_name("__runx_t"), "__runx_t");
    }

    #[test]
    fn list_and_remove() {
        let cfg = ClusterConfig::default();
        let dfs = Dfs::new();
        dfs.put_relation("a", &rel(1), &cfg);
        dfs.put_relation("b", &rel(1), &cfg);
        assert_eq!(dfs.list(), vec!["a".to_string(), "b".to_string()]);
        assert!(dfs.remove("a"));
        assert!(!dfs.remove("a"));
        assert_eq!(dfs.list(), vec!["b".to_string()]);
    }
}
