//! Batched inference serving (`nlidb_core::serve`).
//!
//! The per-example [`Nlidb::predict`] path rebuilds every piece of
//! per-table state — column tokenizations, §II statistics, the
//! content-match value index — for each question. Serving workloads
//! (WikiSQL-style evaluation, interactive traffic) ask thousands of
//! questions against a handful of schemas, so [`ServeEngine::serve`]
//! amortizes that work and spreads what is left across the
//! `nlidb_tensor::pool`:
//!
//! 1. **Group by table.** Requests are grouped by
//!    [`Table::fingerprint`] in first-appearance order. The fingerprint
//!    is hashed once per request: it is the table half of every cache
//!    key and the fingerprint of the group's [`TableContext`].
//! 2. **Look up.** On the calling thread, group by group and request by
//!    request, a deterministic bounded [`PredictionCache`] keyed by
//!    `(table fingerprint, tokenized question, guided flag)` answers
//!    repeats across batches, and duplicates *within* a batch are
//!    deduplicated to one computation regardless of cache settings.
//! 3. **Fan out, a wave at a time.** The groups left with misses are
//!    taken in waves of `pool::num_threads()` groups. On the calling
//!    thread, the wave takes each table's §II statistics from the cache
//!    if an earlier miss computed them
//!    ([`PredictionCache::resident_stats`]). Then it builds its groups'
//!    contexts across the pool, one task per group, once for all of a
//!    group's misses; a context computes its statistics only when none
//!    were resident. Then every distinct miss of the wave, whatever its
//!    table, runs the pipeline's one inference body (annotate → decode →
//!    commit, the commit being the repair walk for guided requests) in
//!    one pool fan-out, each writing to its own slot. Last, on the
//!    calling thread, the cache keeps the statistics the wave computed,
//!    and the wave's contexts are dropped before the next wave starts,
//!    so a batch never holds more live contexts than the pool has
//!    threads, and two questions on two tables keep two threads busy.
//! 4. **Publish.** On the calling thread, group by group and question by
//!    question, each answer goes to every request waiting on it and into
//!    the cache. Results are returned in request order.
//!
//! A fully cached batch builds no context and enqueues no pool job.
//!
//! ## Determinism contract
//!
//! Batched predictions are **byte-identical** to running
//! [`Nlidb::predict`] sequentially over the same requests, for every
//! thread count and cache configuration
//! (`crates/core/tests/serve_determinism.rs` pins this). Requests with
//! [`ServeRequest::guided`] set are likewise byte-identical to
//! sequential [`Nlidb::predict_guided`](crate::pipeline::Nlidb::predict_guided)
//! — guidance is a pure per-request function of `(question, table,
//! trained parameters)`, so every bullet below applies to it unchanged.
//! The argument:
//!
//! - the per-table context is a pure function of the table, so sharing
//!   one context across a group, building a wave's contexts on
//!   different threads, or taking a context's statistics from an
//!   earlier micro-batch changes *when* and *where* state is computed,
//!   never *what* is computed;
//! - per-request predictions are independent pure functions of
//!   `(question, context, trained parameters)` written to disjoint
//!   slots, so thread scheduling cannot reorder any float;
//! - every cache operation happens on the calling thread, *outside* the
//!   parallel sections, in one fixed order: all of a batch's lookups
//!   (group order, then request order) before all of its insertions
//!   (group order, then question order). Resident statistics are read
//!   before a wave's fan-outs and kept after them, in group order, and
//!   touch no prediction entry or counter. Hits, misses, insertions,
//!   evictions and the per-table counts are therefore functions of the
//!   request stream and the batch boundaries alone, at any pool width.
//!   Because lookups come first, a later group's lookup can hit an entry
//!   that an earlier group's insertions in the same batch then evict;
//!   answering one group after another would have missed it and
//!   recomputed the same prediction; and
//! - a cache hit returns a stored prediction that the deterministic
//!   pipeline would reproduce exactly, so serving from cache cannot
//!   change bytes.
//!
//! Trace families: `serve.*` spans (`serve.batch`; `serve.group` around
//! each group's lookups; `serve.context` and `serve.predict` per pool
//! task) and counters (`serve.requests`, `serve.groups`, `serve.dedup`,
//! `serve.cache.hits`, `serve.cache.misses`, `serve.cache.insertions`,
//! `serve.cache.evictions`, and `serve.stats.computed` /
//! `serve.stats.resident` per context built).

use std::collections::BTreeMap;

use nlidb_sqlir::Query;
use nlidb_storage::{Table, TableStats};
use nlidb_tensor::pool;

use crate::pipeline::{Nlidb, TableContext};

/// One serving request: a tokenized question against a table.
#[derive(Debug, Clone, Copy)]
pub struct ServeRequest<'a> {
    /// The tokenized question.
    pub question: &'a [String],
    /// The table to answer against.
    pub table: &'a Table,
    /// Opt-in execution-guided decoding
    /// ([`Nlidb::predict_guided`](crate::pipeline::Nlidb::predict_guided)):
    /// candidates are executed against the table and repaired
    /// deterministically. `false` is the pre-existing unguided path,
    /// byte-for-byte.
    pub guided: bool,
}

/// Cache key: the table's content fingerprint, the tokenized question,
/// and the decode mode. Two requests collide exactly when the
/// deterministic pipeline would produce the same prediction for both —
/// guided and unguided predictions can legitimately differ for the same
/// `(table, question)`, so the mode is part of the key.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CacheKey {
    /// [`Table::fingerprint`] of the request's table.
    pub fingerprint: u64,
    /// The tokenized question.
    pub question: Vec<String>,
    /// Whether the prediction used execution-guided decoding.
    pub guided: bool,
}

/// Per-table-fingerprint cache accounting (the per-tenant view a
/// multi-tenant server needs: every registered table belongs to a
/// tenant, so attributing hits and misses to the table fingerprint
/// grounds per-tenant `stats` responses and admission decisions in real
/// counts instead of engine-global aggregates).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheTableStats {
    /// Lookup hits against this fingerprint.
    pub hits: u64,
    /// Lookup misses against this fingerprint.
    pub misses: u64,
    /// Insertions of keys with this fingerprint.
    pub insertions: u64,
    /// Evictions of keys with this fingerprint.
    pub evictions: u64,
}

/// A bounded, deterministic FIFO prediction cache.
///
/// Entries are stored in a `BTreeMap` (order-free iteration — no
/// `HashMap` iteration order can leak into behavior, satisfying the
/// `hashmap-iteration` lint by construction) with a parallel
/// insertion-sequence index. When an insertion exceeds the capacity, the
/// entry with the **smallest insertion sequence number** (the oldest) is
/// evicted — a pure function of the insertion history, independent of
/// thread count, hash state, or iteration order. Re-inserting an existing
/// key replaces its value but keeps its original insertion position.
///
/// Besides the engine-global counters, every hit/miss/insertion/eviction
/// is also attributed to the key's table fingerprint
/// ([`PredictionCache::table_stats`]), so a server fronting many tenants
/// can report and act on per-tenant cache behavior.
///
/// Beside those counters the cache keeps each served table's §II
/// statistics ([`PredictionCache::resident_stats`]): one small record per
/// fingerprint, computed on the table's first miss and reused by every
/// later one. Like the predictions, they are functions of the table and
/// the model, so they live exactly as long as the cache does.
#[derive(Debug, Default)]
pub struct PredictionCache {
    capacity: usize,
    next_seq: u64,
    entries: BTreeMap<CacheKey, (u64, Option<Query>)>,
    order: BTreeMap<u64, CacheKey>,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    per_table: BTreeMap<u64, CacheTableStats>,
    resident: BTreeMap<u64, TableStats>,
}

impl PredictionCache {
    /// Creates a cache holding at most `capacity` predictions; `0`
    /// disables caching entirely, resident statistics included
    /// (within-batch deduplication still applies).
    pub fn new(capacity: usize) -> PredictionCache {
        PredictionCache { capacity, ..PredictionCache::default() }
    }

    /// Whether caching is enabled (capacity > 0).
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Number of cached predictions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no predictions.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lifetime lookup hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime lookup misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Lifetime insertions (excluding value updates of existing keys).
    pub fn insertions(&self) -> u64 {
        self.insertions
    }

    /// Lifetime evictions.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Cached keys, oldest inserted first (the eviction order).
    pub fn keys_oldest_first(&self) -> Vec<&CacheKey> {
        self.order.values().collect()
    }

    /// Accounting attributed to one table fingerprint. A fingerprint the
    /// cache never saw reads as all-zero.
    pub fn table_stats(&self, fingerprint: u64) -> CacheTableStats {
        self.per_table.get(&fingerprint).copied().unwrap_or_default()
    }

    /// Per-fingerprint accounting for every fingerprint the cache has
    /// seen, in ascending fingerprint order.
    pub fn per_table_stats(&self) -> &BTreeMap<u64, CacheTableStats> {
        &self.per_table
    }

    /// The §II statistics kept for a table fingerprint: those a served
    /// miss computed under this cache's model. `None` before the table's
    /// first miss, and always for a disabled cache.
    pub fn resident_stats(&self, fingerprint: u64) -> Option<&TableStats> {
        self.resident.get(&fingerprint)
    }

    /// Keeps a table's statistics unless some are already kept. A no-op
    /// when the cache is disabled.
    fn keep_stats(&mut self, fingerprint: u64, stats: TableStats) {
        if self.enabled() {
            self.resident.entry(fingerprint).or_insert(stats);
        }
    }

    /// Looks up a prediction, counting the hit or miss (globally and
    /// against the key's table fingerprint). Disabled caches see neither
    /// lookups nor counters.
    pub fn get(&mut self, key: &CacheKey) -> Option<&Option<Query>> {
        if !self.enabled() {
            return None;
        }
        let per = self.per_table.entry(key.fingerprint).or_default();
        match self.entries.get(key) {
            Some((_, value)) => {
                self.hits += 1;
                per.hits += 1;
                nlidb_trace::count("serve.cache.hits", 1);
                Some(value)
            }
            None => {
                self.misses += 1;
                per.misses += 1;
                nlidb_trace::count("serve.cache.misses", 1);
                None
            }
        }
    }

    /// Inserts a prediction, evicting the oldest entries beyond capacity.
    /// A no-op when the cache is disabled.
    pub fn insert(&mut self, key: CacheKey, value: Option<Query>) {
        if !self.enabled() {
            return;
        }
        if let Some((_, stored)) = self.entries.get_mut(&key) {
            // Keep the original insertion position: FIFO, not LRU.
            *stored = value;
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.order.insert(seq, key.clone());
        self.per_table.entry(key.fingerprint).or_default().insertions += 1;
        self.entries.insert(key, (seq, value));
        self.insertions += 1;
        nlidb_trace::count("serve.cache.insertions", 1);
        while self.entries.len() > self.capacity {
            // `order` mirrors `entries`; should it ever run dry the loop
            // stops (over-full cache) rather than panic mid-serve.
            let Some((_, victim)) = self.order.pop_first() else { break };
            self.per_table.entry(victim.fingerprint).or_default().evictions += 1;
            self.entries.remove(&victim);
            self.evictions += 1;
            nlidb_trace::count("serve.cache.evictions", 1);
        }
    }
}

/// One per-table request group, first-appearance order.
struct Group<'a> {
    table: &'a Table,
    /// The table's content fingerprint, hashed once during grouping: the
    /// cache-key component, the key of the table's resident statistics,
    /// and the fingerprint of the group's context.
    fingerprint: u64,
    /// Request indices into the batch, ascending.
    indices: Vec<usize>,
    /// The group's distinct cache misses in first-request order, each
    /// with the request indices waiting on it (filled by the lookups).
    misses: Vec<(CacheKey, Vec<usize>)>,
}

/// The batched inference engine: a trained system plus a prediction
/// cache that persists across [`ServeEngine::serve`] calls.
pub struct ServeEngine<'m> {
    nlidb: &'m Nlidb,
    cache: PredictionCache,
}

impl<'m> ServeEngine<'m> {
    /// Builds an engine over a trained system that adopts `cache`; a
    /// fresh engine passes `PredictionCache::new(capacity)`. Long-lived
    /// servers use this to keep cache contents and statistics across
    /// engine reconstructions (the engine borrows the model, so a caller
    /// that owns its `Nlidb` rebuilds the engine per batch and threads
    /// the cache through with [`ServeEngine::into_cache`]).
    ///
    /// The cache must only be reused with the **same trained parameters**
    /// it was filled under: entries map `(table, question)` to the
    /// model's prediction and resident statistics live in the model's
    /// embedding space, so swapping models invalidates both (start from a
    /// fresh `PredictionCache` after a checkpoint swap).
    pub fn with_cache(nlidb: &'m Nlidb, cache: PredictionCache) -> ServeEngine<'m> {
        ServeEngine { nlidb, cache }
    }

    /// The prediction cache (hit/miss/eviction statistics for callers).
    pub fn cache(&self) -> &PredictionCache {
        &self.cache
    }

    /// Consumes the engine, returning its cache (see
    /// [`ServeEngine::with_cache`]).
    pub fn into_cache(self) -> PredictionCache {
        self.cache
    }

    /// Serves a batch of requests, returning predictions in request
    /// order, byte-identical to calling [`Nlidb::predict`] sequentially
    /// on each request (see the module-level determinism contract).
    pub fn serve(&mut self, requests: &[ServeRequest<'_>]) -> Vec<Option<Query>> {
        let _batch = nlidb_trace::span("serve.batch");
        nlidb_trace::count("serve.requests", requests.len() as u64);

        // Step 1: group requests by table content, first-appearance order.
        let mut group_of: BTreeMap<u64, usize> = BTreeMap::new();
        let mut groups: Vec<Group<'_>> = Vec::new();
        for (i, r) in requests.iter().enumerate() {
            let fingerprint = r.table.fingerprint();
            let gi = *group_of.entry(fingerprint).or_insert_with(|| {
                groups.push(Group {
                    table: r.table,
                    fingerprint,
                    indices: Vec::new(),
                    misses: Vec::new(),
                });
                groups.len() - 1
            });
            if let Some(group) = groups.get_mut(gi) {
                group.indices.push(i);
            }
        }
        nlidb_trace::count("serve.groups", groups.len() as u64);

        // Step 2 (calling thread): every lookup of the batch, before any
        // insertion. Everything that touches the cache happens here or in
        // step 4 — never inside a parallel section — so cache state and
        // counters are functions of the request stream alone.
        let mut results: Vec<Option<Option<Query>>> = vec![None; requests.len()];
        for group in &mut groups {
            let _g = nlidb_trace::span("serve.group");
            self.look_up(requests, group, &mut results);
        }

        // Step 3: the misses, a wave of pool-width groups at a time. A
        // fully cached batch has no wave: no context, no pool job.
        let pending: Vec<&Group<'_>> = groups.iter().filter(|g| !g.misses.is_empty()).collect();
        let mut answers: Vec<Option<Option<Query>>> = Vec::new();
        for wave in pending.chunks(pool::num_threads().max(1)) {
            answers.extend(self.answer_wave(requests, wave));
        }

        // Step 4 (calling thread, group then question order): publish to
        // every waiter and insert into the cache. `answers` holds one slot
        // per miss in this same order; a missing or unwritten slot (an
        // engine bug) degrades to "no prediction" rather than a panic.
        let mut answers = answers.into_iter();
        for group in groups {
            for (key, waiters) in group.misses {
                let value = answers.next().flatten().flatten();
                for i in waiters {
                    if let Some(slot) = results.get_mut(i) {
                        *slot = Some(value.clone());
                    }
                }
                self.cache.insert(key, value);
            }
        }
        // Every slot is filled by a hit or by step 4; an unfilled slot
        // would be an engine bug, and degrades to "no prediction" instead
        // of crashing the caller (the TCP server maps that to a typed
        // `internal` error, not a dropped connection).
        results.into_iter().map(Option::flatten).collect()
    }

    /// Resolves one group's cache hits into `results` and records its
    /// distinct misses in `group.misses`, deduplicating identical
    /// in-flight questions, in request order.
    fn look_up(
        &mut self,
        requests: &[ServeRequest<'_>],
        group: &mut Group<'_>,
        results: &mut [Option<Option<Query>>],
    ) {
        let mut slot_of: BTreeMap<CacheKey, usize> = BTreeMap::new();
        for &i in &group.indices {
            let Some(req) = requests.get(i) else { continue };
            let key = CacheKey {
                fingerprint: group.fingerprint,
                question: req.question.to_vec(),
                guided: req.guided,
            };
            if let Some(cached) = self.cache.get(&key) {
                if let Some(slot) = results.get_mut(i) {
                    *slot = Some(cached.clone());
                }
                continue;
            }
            match slot_of.get(&key).and_then(|&s| group.misses.get_mut(s)) {
                Some((_, waiters)) => {
                    waiters.push(i);
                    nlidb_trace::count("serve.dedup", 1);
                }
                None => {
                    slot_of.insert(key.clone(), group.misses.len());
                    group.misses.push((key, vec![i]));
                }
            }
        }
    }

    /// Answers every miss of one wave of groups: the wave's contexts are
    /// built across the pool (one task per group) from the statistics the
    /// cache holds, then all of its misses run in one fan-out, then the
    /// cache keeps the statistics the wave computed. Returns one slot per
    /// miss, in group order then question order; the contexts are dropped
    /// on return.
    fn answer_wave(
        &mut self,
        requests: &[ServeRequest<'_>],
        wave: &[&Group<'_>],
    ) -> Vec<Option<Option<Query>>> {
        let nlidb = self.nlidb;
        // Each context is pure in its table, so building it once per group,
        // on whichever thread, from statistics computed in an earlier
        // micro-batch or not, cannot change any prediction.
        let mut contexts: Vec<(Option<TableStats>, Option<TableContext>)> = wave
            .iter()
            .map(|group| {
                let stats = self.cache.resident_stats(group.fingerprint).cloned();
                let counter = match stats {
                    Some(_) => "serve.stats.resident",
                    None => "serve.stats.computed",
                };
                nlidb_trace::count(counter, 1);
                (stats, None)
            })
            .collect();
        pool::parallel_for_chunks(&mut contexts, 1, |w, slot| {
            let _c = nlidb_trace::span("serve.context");
            if let (Some((stats, out)), Some(group)) = (slot.first_mut(), wave.get(w)) {
                *out = Some(nlidb.context_with_fingerprint(
                    group.table,
                    group.fingerprint,
                    stats.take(),
                ));
            }
        });

        // One job per miss: its group's slot in the wave and the request
        // whose question and mode it answers. Slot `j` always holds job
        // `j`'s prediction (disjoint writes, fixed sharding), so the
        // outcome is thread-count independent.
        let jobs: Vec<(usize, Option<usize>)> = wave
            .iter()
            .enumerate()
            .flat_map(|(w, group)| {
                group.misses.iter().map(move |(_, waiters)| (w, waiters.first().copied()))
            })
            .collect();
        let mut computed: Vec<Option<Option<Query>>> = vec![None; jobs.len()];
        pool::parallel_for_chunks(&mut computed, 1, |j, slot| {
            let _t = nlidb_trace::span("serve.predict");
            let job = jobs.get(j).and_then(|&(w, first)| {
                Some((wave.get(w)?, contexts.get(w)?.1.as_ref()?, requests.get(first?)?))
            });
            if let (Some(out), Some((group, ctx, req))) = (slot.first_mut(), job) {
                *out = Some(nlidb.answer(req.question, ctx, req.guided.then_some(group.table)));
            }
        });

        // Calling thread, group order: a context built from resident
        // statistics hands back the same record, which `keep_stats` skips.
        for (group, (_, ctx)) in wave.iter().zip(contexts) {
            if let Some(ctx) = ctx {
                self.cache.keep_stats(group.fingerprint, ctx.detect.stats);
            }
        }
        computed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlidb_tensor::Rng;

    fn key(fp: u64, word: &str) -> CacheKey {
        CacheKey { fingerprint: fp, question: vec![word.to_string()], guided: false }
    }

    fn q(sel: usize) -> Option<Query> {
        Some(Query::select(sel))
    }

    #[test]
    fn cache_hits_after_insert_and_respects_capacity() {
        let mut c = PredictionCache::new(2);
        assert!(c.get(&key(1, "a")).is_none());
        c.insert(key(1, "a"), q(0));
        c.insert(key(1, "b"), q(1));
        assert_eq!(c.get(&key(1, "a")), Some(&q(0)));
        assert_eq!(c.get(&key(1, "b")), Some(&q(1)));
        // Third insert evicts the oldest ("a").
        c.insert(key(1, "c"), q(2));
        assert_eq!(c.len(), 2);
        assert!(c.get(&key(1, "a")).is_none());
        assert_eq!(c.get(&key(1, "c")), Some(&q(2)));
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn cache_key_distinguishes_tables_and_questions() {
        let mut c = PredictionCache::new(8);
        c.insert(key(1, "a"), q(0));
        assert!(c.get(&key(2, "a")).is_none(), "different table, different entry");
        assert!(c.get(&key(1, "b")).is_none(), "different question, different entry");
        assert_eq!(c.get(&key(1, "a")), Some(&q(0)));
    }

    #[test]
    fn disabled_cache_stores_and_counts_nothing() {
        let mut c = PredictionCache::new(0);
        c.insert(key(1, "a"), q(0));
        assert!(c.get(&key(1, "a")).is_none());
        assert_eq!(c.len(), 0);
        assert_eq!((c.hits(), c.misses(), c.insertions(), c.evictions()), (0, 0, 0, 0));
    }

    #[test]
    fn reinsert_updates_value_but_keeps_fifo_position() {
        let mut c = PredictionCache::new(2);
        c.insert(key(1, "a"), q(0));
        c.insert(key(1, "b"), q(1));
        c.insert(key(1, "a"), q(9)); // update, not a new insertion
        assert_eq!(c.get(&key(1, "a")), Some(&q(9)));
        assert_eq!(c.insertions(), 2);
        // "a" is still the oldest: the next insert evicts it.
        c.insert(key(1, "c"), q(2));
        assert!(c.get(&key(1, "a")).is_none());
        assert_eq!(c.get(&key(1, "b")), Some(&q(1)));
    }

    #[test]
    fn per_table_stats_attribute_every_event_to_its_fingerprint() {
        let mut c = PredictionCache::new(2);
        assert!(c.get(&key(1, "a")).is_none()); // miss on fp 1
        c.insert(key(1, "a"), q(0)); // insertion on fp 1
        assert_eq!(c.get(&key(1, "a")), Some(&q(0))); // hit on fp 1
        c.insert(key(2, "a"), q(1)); // insertion on fp 2
        c.insert(key(2, "b"), q(2)); // insertion on fp 2, evicts fp 1's "a"
        assert_eq!(
            c.table_stats(1),
            CacheTableStats { hits: 1, misses: 1, insertions: 1, evictions: 1 }
        );
        assert_eq!(
            c.table_stats(2),
            CacheTableStats { hits: 0, misses: 0, insertions: 2, evictions: 0 }
        );
        assert_eq!(c.table_stats(99), CacheTableStats::default(), "unseen fp reads zero");
        // The per-fingerprint view partitions the global counters.
        let sum = |f: fn(&CacheTableStats) -> u64| c.per_table_stats().values().map(f).sum::<u64>();
        assert_eq!(sum(|s| s.hits), c.hits());
        assert_eq!(sum(|s| s.misses), c.misses());
        assert_eq!(sum(|s| s.insertions), c.insertions());
        assert_eq!(sum(|s| s.evictions), c.evictions());
    }

    #[test]
    fn disabled_cache_has_no_per_table_stats() {
        let mut c = PredictionCache::new(0);
        c.insert(key(1, "a"), q(0));
        assert!(c.get(&key(1, "a")).is_none());
        assert!(c.per_table_stats().is_empty());
    }

    /// A naive FIFO reference model: linear-scan vector ordered oldest
    /// first.
    struct RefCache {
        cap: usize,
        items: Vec<(CacheKey, Option<Query>)>,
    }

    impl RefCache {
        fn get(&self, k: &CacheKey) -> Option<&Option<Query>> {
            self.items.iter().find(|(ik, _)| ik == k).map(|(_, v)| v)
        }

        fn insert(&mut self, k: CacheKey, v: Option<Query>) {
            if self.cap == 0 {
                return;
            }
            if let Some(slot) = self.items.iter_mut().find(|(ik, _)| *ik == k) {
                slot.1 = v;
                return;
            }
            self.items.push((k, v));
            while self.items.len() > self.cap {
                self.items.remove(0);
            }
        }
    }

    #[test]
    fn every_lookup_precedes_every_insertion_at_any_pool_width() {
        use crate::{ModelConfig, NlidbOptions};
        use nlidb_data::wikisql::{generate, WikiSqlConfig};

        let mut gen_cfg = WikiSqlConfig::tiny(3004);
        gen_cfg.train_tables = 4;
        gen_cfg.questions_per_table = 4;
        let ds = generate(&gen_cfg);
        let nlidb =
            Nlidb::train(&ds, NlidbOptions { model: ModelConfig::tiny(), ..NlidbOptions::default() });
        // Table `a` with two distinct questions, then another table `b`.
        let (a, a1, a2) = ds
            .dev
            .iter()
            .find_map(|x| {
                let y = ds.dev.iter().find(|y| y.table == x.table && y.question != x.question)?;
                Some((&*x.table, &x.question, &y.question))
            })
            .expect("a dev table with two distinct questions");
        let (b, b1) = ds
            .dev
            .iter()
            .find(|e| e.table.fingerprint() != a.fingerprint())
            .map(|e| (&*e.table, &e.question))
            .expect("a second dev table");
        let (fa, fb) = (a.fingerprint(), b.fingerprint());
        let warm = [ServeRequest { question: b1, table: b, guided: false }];
        let batch = [
            ServeRequest { question: a1, table: a, guided: false },
            ServeRequest { question: a2, table: a, guided: false },
            ServeRequest { question: b1, table: b, guided: false },
        ];
        let sequential: Vec<Option<Query>> =
            batch.iter().map(|r| nlidb.predict(r.question, r.table)).collect();

        for threads in [1, pool::default_threads().max(2)] {
            pool::set_threads(threads);
            let mut engine = ServeEngine::with_cache(&nlidb, PredictionCache::new(2));
            engine.serve(&warm);
            // Lookups: a1 and a2 miss, b1 hits. Insertions: a1, then a2,
            // which evicts b1. Serving group `a` before looking up group
            // `b` would have evicted b1 first, missed it and recomputed.
            assert_eq!(engine.serve(&batch), sequential, "threads={threads}");
            let c = engine.cache();
            assert_eq!(
                (c.hits(), c.misses(), c.insertions(), c.evictions()),
                (1, 3, 3, 1),
                "threads={threads}"
            );
            assert_eq!(
                c.table_stats(fa),
                CacheTableStats { hits: 0, misses: 2, insertions: 2, evictions: 0 },
                "threads={threads}"
            );
            assert_eq!(
                c.table_stats(fb),
                CacheTableStats { hits: 1, misses: 1, insertions: 1, evictions: 1 },
                "threads={threads}"
            );
            let key = |question: &[String]| CacheKey {
                fingerprint: fa,
                question: question.to_vec(),
                guided: false,
            };
            assert_eq!(c.keys_oldest_first(), [&key(a1), &key(a2)], "threads={threads}");
        }
        pool::set_threads(pool::default_threads());
    }

    #[test]
    fn cache_matches_naive_reference_under_random_ops() {
        // Seeded-loop property test: random insert/lookup sequences over a
        // small key space (forcing collisions and evictions) against the
        // reference model. Pins the capacity bound, hit/miss agreement,
        // and the deterministic oldest-first eviction order.
        for case in 0..40u64 {
            let mut rng = Rng::seed_from_u64(0xCAC4E ^ case);
            let cap = rng.gen_range(0..5usize);
            let mut cache = PredictionCache::new(cap);
            let mut reference = RefCache { cap, items: Vec::new() };
            for step in 0..200 {
                let k = key(rng.gen_range(0..3u64), ["a", "b", "c", "d"][rng.gen_range(0..4usize)]);
                if rng.gen_bool(0.5) {
                    let v = q(rng.gen_range(0..4usize));
                    cache.insert(k.clone(), v.clone());
                    reference.insert(k, v);
                } else {
                    assert_eq!(
                        cache.get(&k),
                        reference.get(&k),
                        "case {case} step {step}: lookup disagrees"
                    );
                }
                assert!(cache.len() <= cap, "case {case}: capacity bound violated");
                assert_eq!(cache.len(), reference.items.len(), "case {case} step {step}");
                // Oldest-first order must match the reference FIFO exactly.
                let got: Vec<&CacheKey> = cache.keys_oldest_first();
                let want: Vec<&CacheKey> = reference.items.iter().map(|(k, _)| k).collect();
                assert_eq!(got, want, "case {case} step {step}: eviction order diverged");
            }
        }
    }
}
