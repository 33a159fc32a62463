//! Bounded-memory corpus disk pipeline: parallel shard writers and a
//! shard-at-a-time reader for out-of-core training.
//!
//! [`write_corpus`] fans the shards of a [`CorpusPlan`] out over the
//! worker pool; each worker generates its shard and streams it through a
//! bounded [`JsonlWriter`] into its own `{split}-{index:05}.jsonl` file,
//! so the file bytes are identical for any thread count and no more than
//! one shard per worker is ever resident. A `manifest.json` written last
//! records the shard layout.
//!
//! [`CorpusReader`] streams the corpus back: one shard at a time, each
//! returned as a [`ShardLease`] whose drop releases its examples from
//! the shared [`ResidencyGauge`] — the gauge's peak proves the
//! out-of-core bound (peak resident examples ≤ largest shard). Tables
//! are deduplicated by content fingerprint into a bounded `Arc<Table>`
//! pool so the examples of one table share a single allocation, exactly
//! as they do in the in-memory generator.
//!
//! Training consumes either path through the [`ExampleSource`] trait:
//! [`SplitSource`] (disk) and [`InMemorySource`] (generated) yield the
//! same shards in the same order, which is what makes streamed training
//! byte-identical to in-memory training.

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use nlidb_json::{FromJson, Json, JsonError, ToJson};
use nlidb_storage::{Column, DataType, Schema, Table, Value};
use nlidb_tensor::pool;

use crate::example::{Example, GoldSlot, SlotRole};
use crate::export::{ExportRecord, JsonlWriter};
use crate::shard::{CorpusPlan, Split};

/// Manifest file name inside a corpus directory. Written after every
/// shard file, so its presence marks a complete corpus.
pub const MANIFEST_FILE: &str = "manifest.json";

/// Errors from the corpus disk pipeline.
#[derive(Debug)]
pub enum StreamError {
    /// Filesystem error.
    Io(std::io::Error),
    /// Malformed JSON in a shard or manifest file.
    Json(JsonError),
    /// Structurally valid JSON that does not describe a valid corpus
    /// (unknown dtype, unparsable cell, shard/manifest mismatch, ...).
    Format(String),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "io error: {e}"),
            StreamError::Json(e) => write!(f, "json error: {}", e.message()),
            StreamError::Format(m) => write!(f, "format error: {m}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> Self {
        StreamError::Io(e)
    }
}

impl From<JsonError> for StreamError {
    fn from(e: JsonError) -> Self {
        StreamError::Json(e)
    }
}

/// One shard's entry in the corpus manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMeta {
    /// Shard file name, relative to the corpus directory.
    pub file: String,
    /// Split name (`train` / `dev` / `test`).
    pub split: String,
    /// Global shard index (also the shard's PRNG stream).
    pub index: usize,
    /// Examples in the shard.
    pub examples: usize,
}

/// The corpus manifest: seed plus the shard layout, in corpus order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusManifest {
    /// The corpus seed (informational; shard files are self-contained).
    pub seed: u64,
    /// Total examples across all shards.
    pub examples: usize,
    /// Shard entries, ordered by global shard index.
    pub shards: Vec<ShardMeta>,
}

impl ToJson for ShardMeta {
    fn to_json(&self) -> Json {
        Json::obj([
            ("file", self.file.to_json()),
            ("split", self.split.to_json()),
            ("index", self.index.to_json()),
            ("examples", self.examples.to_json()),
        ])
    }
}

impl FromJson for ShardMeta {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(ShardMeta {
            file: j.req("file")?,
            split: j.req("split")?,
            index: j.req("index")?,
            examples: j.req("examples")?,
        })
    }
}

impl ToJson for CorpusManifest {
    fn to_json(&self) -> Json {
        Json::obj([
            ("seed", self.seed.to_json()),
            ("examples", self.examples.to_json()),
            ("shards", self.shards.to_json()),
        ])
    }
}

impl FromJson for CorpusManifest {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(CorpusManifest {
            seed: j.req("seed")?,
            examples: j.req("examples")?,
            shards: j.req("shards")?,
        })
    }
}

/// Shard file name for `(split, global_index)`.
pub fn shard_file_name(split: Split, index: usize) -> String {
    format!("{}-{:05}.jsonl", split.name(), index)
}

/// Generates every shard of `plan` and streams them to `dir` (created if
/// missing), fanning out over the worker pool. Each shard is generated
/// and written by exactly one worker through a bounded writer, so file
/// bytes are identical for any thread count and peak memory is bounded
/// by one shard per worker. Writes `manifest.json` last.
pub fn write_corpus(plan: &CorpusPlan, dir: &Path) -> Result<CorpusManifest, StreamError> {
    std::fs::create_dir_all(dir)?;
    let specs = plan.shards();
    let mut results: Vec<Option<Result<ShardMeta, StreamError>>> =
        (0..specs.len()).map(|_| None).collect();
    pool::parallel_for_chunks(&mut results, 1, |i, slot| {
        let spec = &specs[i];
        let write = || -> Result<ShardMeta, StreamError> {
            let file = shard_file_name(spec.split, spec.index);
            let sink = std::fs::File::create(dir.join(&file))?;
            let mut w = JsonlWriter::new(sink);
            for e in plan.gen_shard(spec.index) {
                w.write_example(&e)?;
            }
            let records = w.records();
            w.finish()?;
            Ok(ShardMeta {
                file,
                split: spec.split.name().to_string(),
                index: spec.index,
                examples: records,
            })
        };
        slot[0] = Some(write());
    });
    let mut shards = Vec::with_capacity(specs.len());
    for r in results {
        shards.push(r.expect("every shard slot is filled")?);
    }
    let manifest = CorpusManifest {
        seed: plan.config().base.seed,
        examples: shards.iter().map(|s| s.examples).sum(),
        shards,
    };
    std::fs::write(dir.join(MANIFEST_FILE), manifest.to_json().to_string())?;
    Ok(manifest)
}

/// Shared gauge of resident streamed examples: `current` counts the
/// examples held by live [`ShardLease`]s, `peak` the high-water mark.
/// The peak is how the tests assert the out-of-core bound.
#[derive(Debug, Clone, Default)]
pub struct ResidencyGauge {
    inner: Arc<GaugeInner>,
}

#[derive(Debug, Default)]
struct GaugeInner {
    current: AtomicUsize,
    peak: AtomicUsize,
}

impl ResidencyGauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        ResidencyGauge::default()
    }

    /// Examples currently resident under leases on this gauge.
    pub fn current(&self) -> usize {
        // lint:allow(atomic-ordering): residency gauge; counters guard no other memory, and the residency tests read them after joining the workers.
        self.inner.current.load(Ordering::Relaxed)
    }

    /// High-water mark of [`Self::current`].
    pub fn peak(&self) -> usize {
        // lint:allow(atomic-ordering): same gauge argument as `current` above.
        self.inner.peak.load(Ordering::Relaxed)
    }

    fn add(&self, n: usize) {
        // lint:allow(atomic-ordering): fetch_add/fetch_max are atomic RMWs, so counts and the high-water mark stay exact under any interleaving; ordering would only matter if the gauge published other memory, which it does not.
        let now = self.inner.current.fetch_add(n, Ordering::Relaxed) + n;
        // lint:allow(atomic-ordering): same RMW argument as the line above.
        self.inner.peak.fetch_max(now, Ordering::Relaxed);
    }

    fn sub(&self, n: usize) {
        // lint:allow(atomic-ordering): same RMW argument as `add` above.
        self.inner.current.fetch_sub(n, Ordering::Relaxed);
    }
}

/// One loaded shard: the examples plus a registration on the source's
/// [`ResidencyGauge`] that is released when the lease drops. Derefs to
/// `[Example]`.
pub struct ShardLease {
    examples: Vec<Example>,
    gauge: ResidencyGauge,
}

impl ShardLease {
    /// Wraps `examples`, registering them on `gauge`.
    pub fn new(examples: Vec<Example>, gauge: ResidencyGauge) -> Self {
        gauge.add(examples.len());
        ShardLease { examples, gauge }
    }

    /// The shard's examples.
    pub fn examples(&self) -> &[Example] {
        &self.examples
    }
}

impl std::ops::Deref for ShardLease {
    type Target = [Example];
    fn deref(&self) -> &[Example] {
        &self.examples
    }
}

impl Drop for ShardLease {
    fn drop(&mut self) {
        self.gauge.sub(self.examples.len());
    }
}

/// A shard-addressable stream of examples — the unit the out-of-core
/// training loops consume. Implemented by [`SplitSource`] (disk) and
/// [`InMemorySource`] (generated); both yield the same shards in the
/// same order for the same plan, which is what makes streamed training
/// byte-identical to in-memory training.
pub trait ExampleSource {
    /// Number of shards.
    fn num_shards(&self) -> usize;
    /// Total examples across all shards.
    fn num_examples(&self) -> usize;
    /// Loads shard `shard` (source-local index).
    fn load_shard(&mut self, shard: usize) -> Result<ShardLease, StreamError>;
    /// The gauge leases from this source register on.
    fn gauge(&self) -> ResidencyGauge;
}

fn parse_dtype(s: &str) -> Result<DataType, StreamError> {
    match s {
        "text" => Ok(DataType::Text),
        "int" => Ok(DataType::Int),
        "float" => Ok(DataType::Float),
        other => Err(StreamError::Format(format!("unknown dtype '{other}'"))),
    }
}

fn parse_cell(cell: &str, dtype: DataType) -> Result<Value, StreamError> {
    if cell == "NULL" {
        return Ok(Value::Null);
    }
    match dtype {
        DataType::Text => Ok(Value::Text(cell.to_string())),
        DataType::Int => cell
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| StreamError::Format(format!("'{cell}' is not an int cell"))),
        // Cells are written with Rust's shortest-roundtrip float display,
        // so parsing back reproduces the exact bits.
        DataType::Float => cell
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| StreamError::Format(format!("'{cell}' is not a float cell"))),
    }
}

fn parse_role(role: &str) -> Result<SlotRole, StreamError> {
    if role == "select" {
        return Ok(SlotRole::Select);
    }
    role.strip_prefix("cond")
        .and_then(|i| i.parse::<usize>().ok())
        .map(SlotRole::Cond)
        .ok_or_else(|| StreamError::Format(format!("unknown slot role '{role}'")))
}

/// Rebuilds the concrete table of one export record.
fn table_from_record(rec: &ExportRecord) -> Result<Table, StreamError> {
    if rec.columns.len() != rec.types.len() {
        return Err(StreamError::Format(format!(
            "table '{}': {} columns but {} types",
            rec.table,
            rec.columns.len(),
            rec.types.len()
        )));
    }
    let dtypes: Vec<DataType> =
        rec.types.iter().map(|t| parse_dtype(t)).collect::<Result<_, _>>()?;
    let columns: Vec<Column> = rec
        .columns
        .iter()
        .zip(&dtypes)
        .map(|(n, &d)| Column::new(n.clone(), d))
        .collect();
    let mut table = Table::new(rec.table.clone(), Schema::new(columns));
    for row in &rec.rows {
        if row.len() != dtypes.len() {
            return Err(StreamError::Format(format!(
                "table '{}': row with {} cells, expected {}",
                rec.table,
                row.len(),
                dtypes.len()
            )));
        }
        let cells: Vec<Value> = row
            .iter()
            .zip(&dtypes)
            .map(|(c, &d)| parse_cell(c, d))
            .collect::<Result<_, _>>()?;
        table.push_row(cells);
    }
    Ok(table)
}

fn slots_from_record(rec: &ExportRecord) -> Result<Vec<GoldSlot>, StreamError> {
    rec.slots
        .iter()
        .map(|s| {
            Ok(GoldSlot {
                role: parse_role(&s.role)?,
                column: s.column,
                col_span: s.col_span,
                value: s.value.clone(),
                val_span: s.val_span,
            })
        })
        .collect()
}

/// Rebuilds a full [`Example`] (with its own table allocation) from an
/// export record — the lossless inverse of
/// [`export_record`](crate::export::export_record) for generated corpora.
pub fn example_from_record(rec: &ExportRecord) -> Result<Example, StreamError> {
    Ok(Example {
        id: rec.id,
        question: rec.question.clone(),
        table: Arc::new(table_from_record(rec)?),
        query: rec.sql.clone(),
        slots: slots_from_record(rec)?,
        sketch_compatible: rec.sketch_compatible,
    })
}

/// FNV-1a over the record's table content (name, schema, cells).
fn table_fingerprint(rec: &ExportRecord) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= 0xff; // field separator
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    eat(rec.table.as_bytes());
    for (c, t) in rec.columns.iter().zip(&rec.types) {
        eat(c.as_bytes());
        eat(t.as_bytes());
    }
    for row in &rec.rows {
        for cell in row {
            eat(cell.as_bytes());
        }
    }
    h
}

/// Bounded FIFO pool of reconstructed tables, keyed by content
/// fingerprint — all examples of one table share a single `Arc<Table>`,
/// as they do in the in-memory generator, while the pool itself stays
/// bounded so a corpus of any size can stream through.
struct TablePool {
    cap: usize,
    map: BTreeMap<u64, Arc<Table>>,
    order: VecDeque<u64>,
}

impl TablePool {
    fn new(cap: usize) -> Self {
        TablePool { cap: cap.max(1), map: BTreeMap::new(), order: VecDeque::new() }
    }

    fn get_or_build(&mut self, rec: &ExportRecord) -> Result<Arc<Table>, StreamError> {
        let key = table_fingerprint(rec);
        if let Some(t) = self.map.get(&key) {
            // Cheap structural guard against fingerprint collisions.
            if t.name == rec.table && t.num_rows() == rec.rows.len() {
                return Ok(Arc::clone(t));
            }
        }
        let table = Arc::new(table_from_record(rec)?);
        if !self.map.contains_key(&key) {
            self.order.push_back(key);
            if self.order.len() > self.cap {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
        self.map.insert(key, Arc::clone(&table));
        Ok(table)
    }
}

/// Streams a written corpus back from disk, shard by shard.
pub struct CorpusReader {
    dir: PathBuf,
    manifest: CorpusManifest,
    tables: TablePool,
    gauge: ResidencyGauge,
}

/// Tables kept live in the reader's dedup pool.
const TABLE_POOL_CAP: usize = 64;

impl CorpusReader {
    /// Opens a corpus directory by reading its manifest.
    pub fn open(dir: &Path) -> Result<Self, StreamError> {
        let text = std::fs::read_to_string(dir.join(MANIFEST_FILE))?;
        let manifest = CorpusManifest::from_json(&Json::parse(&text)?)?;
        Ok(CorpusReader {
            dir: dir.to_path_buf(),
            manifest,
            tables: TablePool::new(TABLE_POOL_CAP),
            gauge: ResidencyGauge::new(),
        })
    }

    /// The manifest the reader was opened with.
    pub fn manifest(&self) -> &CorpusManifest {
        &self.manifest
    }

    /// Number of shards in the corpus (all splits).
    pub fn num_shards(&self) -> usize {
        self.manifest.shards.len()
    }

    /// The reader's residency gauge.
    pub fn gauge(&self) -> ResidencyGauge {
        self.gauge.clone()
    }

    /// Loads one shard by global index.
    pub fn read_shard(&mut self, shard: usize) -> Result<ShardLease, StreamError> {
        let meta = self
            .manifest
            .shards
            .get(shard)
            .ok_or_else(|| StreamError::Format(format!("no shard {shard} in manifest")))?
            .clone();
        let text = std::fs::read_to_string(self.dir.join(&meta.file))?;
        let mut examples = Vec::with_capacity(meta.examples);
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let rec = ExportRecord::from_json(&Json::parse(line)?)?;
            examples.push(Example {
                id: rec.id,
                table: self.tables.get_or_build(&rec)?,
                question: rec.question.clone(),
                query: rec.sql.clone(),
                slots: slots_from_record(&rec)?,
                sketch_compatible: rec.sketch_compatible,
            });
        }
        if examples.len() != meta.examples {
            return Err(StreamError::Format(format!(
                "shard file {} has {} records, manifest says {}",
                meta.file,
                examples.len(),
                meta.examples
            )));
        }
        Ok(ShardLease::new(examples, self.gauge.clone()))
    }

    /// A view of one split as an [`ExampleSource`] (shards re-indexed
    /// from zero, in corpus order).
    pub fn split_source(&mut self, split: Split) -> SplitSource<'_> {
        let shard_ids: Vec<usize> = self
            .manifest
            .shards
            .iter()
            .enumerate()
            .filter(|(_, m)| m.split == split.name())
            .map(|(i, _)| i)
            .collect();
        let examples = shard_ids.iter().map(|&i| self.manifest.shards[i].examples).sum();
        SplitSource { reader: self, shard_ids, examples }
    }
}

/// One split of an on-disk corpus, exposed as an [`ExampleSource`].
pub struct SplitSource<'a> {
    reader: &'a mut CorpusReader,
    shard_ids: Vec<usize>,
    examples: usize,
}

impl ExampleSource for SplitSource<'_> {
    fn num_shards(&self) -> usize {
        self.shard_ids.len()
    }

    fn num_examples(&self) -> usize {
        self.examples
    }

    fn load_shard(&mut self, shard: usize) -> Result<ShardLease, StreamError> {
        self.reader.read_shard(self.shard_ids[shard])
    }

    fn gauge(&self) -> ResidencyGauge {
        self.reader.gauge()
    }
}

/// An in-memory [`ExampleSource`]: pre-materialized shards served under
/// the same lease/gauge protocol as the disk reader. The reference
/// implementation streamed training is compared against.
pub struct InMemorySource {
    shards: Vec<Vec<Example>>,
    gauge: ResidencyGauge,
}

impl InMemorySource {
    /// Wraps pre-built shards.
    pub fn new(shards: Vec<Vec<Example>>) -> Self {
        InMemorySource { shards, gauge: ResidencyGauge::new() }
    }

    /// Generates one split of `plan` shard-by-shard.
    pub fn from_plan(plan: &CorpusPlan, split: Split) -> Self {
        let shards: Vec<Vec<Example>> =
            plan.shards_for(split).iter().map(|s| plan.gen_shard(s.index)).collect();
        InMemorySource::new(shards)
    }
}

impl ExampleSource for InMemorySource {
    fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn num_examples(&self) -> usize {
        self.shards.iter().map(Vec::len).sum()
    }

    fn load_shard(&mut self, shard: usize) -> Result<ShardLease, StreamError> {
        Ok(ShardLease::new(self.shards[shard].clone(), self.gauge.clone()))
    }

    fn gauge(&self) -> ResidencyGauge {
        self.gauge.clone()
    }
}

/// Reads one full split into memory (convenience for evaluation, where
/// the dev/test splits are small).
pub fn load_split(dir: &Path, split: Split) -> Result<Vec<Example>, StreamError> {
    let mut reader = CorpusReader::open(dir)?;
    let mut src = reader.split_source(split);
    let mut out = Vec::with_capacity(src.num_examples());
    for s in 0..src.num_shards() {
        out.extend_from_slice(&src.load_shard(s)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::{export_record, to_jsonl};
    use crate::shard::ShardedCorpusConfig;
    use nlidb_tensor::pool::{default_threads, set_threads};

    fn temp_dir(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("nlidb-stream-{name}-{}", std::process::id()))
    }

    fn assert_same_example(a: &Example, b: &Example) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.question, b.question);
        assert_eq!(a.query, b.query);
        assert_eq!(a.slots, b.slots);
        assert_eq!(a.sketch_compatible, b.sketch_compatible);
        assert_eq!(a.table.name, b.table.name);
        assert_eq!(a.table.schema(), b.table.schema());
        for r in 0..a.table.num_rows() {
            for c in 0..a.table.num_cols() {
                assert_eq!(a.table.cell(r, c), b.table.cell(r, c), "cell ({r},{c})");
            }
        }
    }

    #[test]
    fn written_corpus_reads_back_losslessly() {
        let plan = CorpusPlan::compile(ShardedCorpusConfig::tiny(21));
        let dir = temp_dir("roundtrip");
        let manifest = write_corpus(&plan, &dir).unwrap();
        assert_eq!(manifest.shards.len(), plan.shards().len());
        assert_eq!(manifest.examples, plan.num_examples());
        let mut reader = CorpusReader::open(&dir).unwrap();
        assert_eq!(reader.manifest(), &manifest);
        for (i, spec) in plan.shards().iter().enumerate() {
            let want = plan.gen_shard(spec.index);
            let on_disk = std::fs::read_to_string(dir.join(&manifest.shards[i].file)).unwrap();
            assert_eq!(on_disk, to_jsonl(&want), "shard {i} file is not its JSONL export");
            let got = reader.read_shard(i).unwrap();
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_same_example(g, w);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_files_are_byte_identical_across_thread_counts() {
        let plan = CorpusPlan::compile(ShardedCorpusConfig::tiny(22));
        let d1 = temp_dir("threads1");
        let dn = temp_dir("threadsn");
        set_threads(1);
        write_corpus(&plan, &d1).unwrap();
        set_threads(4);
        write_corpus(&plan, &dn).unwrap();
        set_threads(default_threads());
        let mut names: Vec<String> =
            plan.shards().iter().map(|s| shard_file_name(s.split, s.index)).collect();
        names.push(MANIFEST_FILE.to_string());
        for name in names {
            let a = std::fs::read(d1.join(&name)).unwrap();
            let b = std::fs::read(dn.join(&name)).unwrap();
            assert_eq!(a, b, "{name} differs across thread counts");
        }
        std::fs::remove_dir_all(&d1).ok();
        std::fs::remove_dir_all(&dn).ok();
    }

    #[test]
    fn residency_stays_bounded_by_one_shard() {
        let plan = CorpusPlan::compile(ShardedCorpusConfig::tiny(23));
        let dir = temp_dir("gauge");
        write_corpus(&plan, &dir).unwrap();
        let mut reader = CorpusReader::open(&dir).unwrap();
        let gauge = reader.gauge();
        let max_shard =
            reader.manifest().shards.iter().map(|s| s.examples).max().unwrap();
        let total: usize = reader.manifest().shards.iter().map(|s| s.examples).sum();
        for i in 0..reader.num_shards() {
            let lease = reader.read_shard(i).unwrap();
            assert_eq!(gauge.current(), lease.len());
            drop(lease);
            assert_eq!(gauge.current(), 0);
        }
        assert!(gauge.peak() <= max_shard, "peak {} > shard bound {max_shard}", gauge.peak());
        assert!(gauge.peak() < total, "streaming never held the whole corpus");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The bounds at scale: a corpus of 1e5 questions (5,000 train tables
    /// of 20 questions, 250 tables per shard, about 100 MB of temp files).
    #[test]
    fn a_1e5_question_corpus_regenerates_and_streams_one_shard_at_a_time() {
        let mut cfg = ShardedCorpusConfig::tiny(92);
        cfg.base.train_tables = 5000;
        cfg.base.dev_tables = 10;
        cfg.base.test_tables = 10;
        cfg.base.questions_per_table = 20;
        cfg.tables_per_shard = 250;
        let plan = CorpusPlan::compile(cfg.clone());
        assert!(plan.num_examples() >= 100_000, "{} questions", plan.num_examples());
        let dir = temp_dir("scale");
        let manifest = write_corpus(&plan, &dir).unwrap();
        assert_eq!(manifest.examples, plan.num_examples());

        // One mid-corpus shard, regenerated alone from a fresh plan.
        let probe = manifest.shards.len() / 2;
        let regenerated = to_jsonl(&CorpusPlan::compile(cfg).gen_shard(probe));
        let on_disk = std::fs::read_to_string(dir.join(&manifest.shards[probe].file)).unwrap();
        assert!(regenerated == on_disk, "shard {probe} does not regenerate byte-identically");

        // Stream the train split back: every example exactly once, never
        // more than one shard resident.
        let mut reader = CorpusReader::open(&dir).unwrap();
        let gauge = reader.gauge();
        let mut src = reader.split_source(Split::Train);
        let split_total = src.num_examples();
        let mut ids = Vec::with_capacity(split_total);
        for s in 0..src.num_shards() {
            ids.extend(src.load_shard(s).unwrap().iter().map(|e| e.id));
        }
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), split_total, "train examples did not stream back exactly once");
        let max_shard = manifest
            .shards
            .iter()
            .filter(|s| s.split == "train")
            .map(|s| s.examples)
            .max()
            .unwrap();
        assert!(gauge.peak() <= max_shard, "peak {} > shard bound {max_shard}", gauge.peak());
        assert!(gauge.peak() < split_total, "streaming held the whole split");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn examples_of_one_table_share_the_arc() {
        let plan = CorpusPlan::compile(ShardedCorpusConfig::tiny(24));
        let dir = temp_dir("dedup");
        write_corpus(&plan, &dir).unwrap();
        let mut reader = CorpusReader::open(&dir).unwrap();
        let shard = reader.read_shard(0).unwrap();
        let qpt = plan.config().base.questions_per_table;
        assert!(shard.len() > qpt);
        for pair in shard.chunks(qpt) {
            for e in &pair[1..] {
                assert!(
                    Arc::ptr_eq(&pair[0].table, &e.table),
                    "examples of one table should share the allocation"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn split_source_and_in_memory_source_agree() {
        let plan = CorpusPlan::compile(ShardedCorpusConfig::tiny(25));
        let dir = temp_dir("sources");
        write_corpus(&plan, &dir).unwrap();
        let mut reader = CorpusReader::open(&dir).unwrap();
        for split in Split::ALL {
            let mut mem = InMemorySource::from_plan(&plan, split);
            let mut disk = reader.split_source(split);
            assert_eq!(disk.num_shards(), mem.num_shards(), "{split:?}");
            assert_eq!(disk.num_examples(), mem.num_examples(), "{split:?}");
            for s in 0..disk.num_shards() {
                let a = disk.load_shard(s).unwrap();
                let b = mem.load_shard(s).unwrap();
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(b.iter()) {
                    assert_same_example(x, y);
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_split_concatenates_split_shards() {
        let plan = CorpusPlan::compile(ShardedCorpusConfig::tiny(26));
        let dir = temp_dir("loadsplit");
        write_corpus(&plan, &dir).unwrap();
        let ds = plan.gen_all();
        let train = load_split(&dir, Split::Train).unwrap();
        assert_eq!(train.len(), ds.train.len());
        for (a, b) in train.iter().zip(&ds.train) {
            assert_same_example(a, b);
        }
        let dev = load_split(&dir, Split::Dev).unwrap();
        assert_eq!(dev.len(), ds.dev.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn example_from_record_is_lossless() {
        let plan = CorpusPlan::compile(ShardedCorpusConfig::tiny(27));
        for e in plan.gen_shard(0).iter().take(8) {
            let rebuilt = example_from_record(&export_record(e)).unwrap();
            assert_same_example(&rebuilt, e);
        }
    }

    #[test]
    fn malformed_inputs_are_format_errors() {
        assert!(matches!(parse_dtype("bool"), Err(StreamError::Format(_))));
        assert!(matches!(parse_cell("abc", DataType::Int), Err(StreamError::Format(_))));
        assert!(matches!(parse_role("group3"), Err(StreamError::Format(_))));
        assert_eq!(parse_cell("NULL", DataType::Float).unwrap(), Value::Null);
        assert!(matches!(parse_role("cond2"), Ok(SlotRole::Cond(2))));
    }
}
