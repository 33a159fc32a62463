//! Batched inference serving (`nlidb_core::serve`).
//!
//! The per-example [`Nlidb::predict`] path rebuilds every piece of
//! per-table state — column tokenizations, §II statistics, the
//! content-match value index — for each question. Serving workloads
//! (WikiSQL-style evaluation, interactive traffic) ask thousands of
//! questions against a handful of schemas, so [`ServeEngine::serve`]
//! amortizes that work:
//!
//! 1. **Group by table.** Requests are grouped by
//!    [`Table::fingerprint`] in first-appearance order; each group
//!    builds its [`TableContext`](crate::pipeline::TableContext) once,
//!    reusing the fingerprint the grouping already computed.
//! 2. **Fan out.** Within a group, distinct questions run the
//!    pipeline's one inference body (annotate → decode → commit, the
//!    commit being the repair walk for guided requests) in parallel
//!    across the `nlidb_tensor::pool`, each writing to its own slot.
//!    Results are returned in request order.
//! 3. **Cache.** A deterministic bounded [`PredictionCache`] keyed by
//!    `(table fingerprint, tokenized question, guided flag)` serves
//!    repeats across batches; duplicates *within* a batch are
//!    deduplicated to one computation regardless of cache settings.
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
//!   one context across a group changes *when* state is computed, never
//!   *what* is computed;
//! - per-request predictions are independent pure functions of
//!   `(question, context, trained parameters)` written to disjoint
//!   slots, so thread scheduling cannot reorder any float;
//! - cache lookups and insertions happen on the calling thread, in
//!   request order, *outside* the parallel section — hit/miss behavior
//!   and eviction order are functions of the request stream alone; and
//! - a cache hit returns a stored prediction that the deterministic
//!   pipeline would reproduce exactly, so serving from cache cannot
//!   change bytes.
//!
//! Trace families: `serve.*` spans (`serve.batch`, `serve.group`,
//! `serve.context`, `serve.predict`) and counters (`serve.requests`,
//! `serve.groups`, `serve.dedup`, `serve.cache.hits`,
//! `serve.cache.misses`, `serve.cache.insertions`,
//! `serve.cache.evictions`).

use std::collections::BTreeMap;

use nlidb_sqlir::Query;
use nlidb_storage::Table;
use nlidb_tensor::pool;

use crate::pipeline::Nlidb;

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
}

impl PredictionCache {
    /// Creates a cache holding at most `capacity` predictions; `0`
    /// disables caching entirely (within-batch deduplication still
    /// applies).
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
    /// cache-key component, and the fingerprint of the group's context.
    fingerprint: u64,
    /// Request indices into the batch, ascending.
    indices: Vec<usize>,
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
    /// model's prediction, so swapping models invalidates every entry
    /// (start from a fresh `PredictionCache` after a checkpoint swap).
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

        // Group requests by table content, first-appearance order.
        let mut group_of: BTreeMap<u64, usize> = BTreeMap::new();
        let mut groups: Vec<Group<'_>> = Vec::new();
        for (i, r) in requests.iter().enumerate() {
            let fp = r.table.fingerprint();
            let gi = *group_of.entry(fp).or_insert_with(|| {
                groups.push(Group { table: r.table, fingerprint: fp, indices: Vec::new() });
                groups.len() - 1
            });
            groups[gi].indices.push(i);
        }
        nlidb_trace::count("serve.groups", groups.len() as u64);

        let mut results: Vec<Option<Option<Query>>> = vec![None; requests.len()];
        for group in &groups {
            let _g = nlidb_trace::span("serve.group");
            self.serve_group(requests, group, &mut results);
        }
        // Every slot is filled by `serve_group`; an unfilled slot would
        // be an engine bug, and degrades to "no prediction" instead of
        // crashing the caller (the TCP server maps that to a typed
        // `internal` error, not a dropped connection).
        results.into_iter().map(|r| r.flatten()).collect()
    }

    /// Serves one table group: sequential cache/dedup pass, parallel
    /// fan-out over unique misses, sequential write-back and insertion.
    fn serve_group(
        &mut self,
        requests: &[ServeRequest<'_>],
        group: &Group<'_>,
        results: &mut [Option<Option<Query>>],
    ) {
        // Phase 1 (calling thread, request order): resolve cache hits and
        // deduplicate identical in-flight questions. Everything that
        // touches the cache happens here or in phase 3 — never inside the
        // parallel section — so cache state and counters are functions of
        // the request stream alone.
        let mut unique: Vec<(CacheKey, Vec<usize>)> = Vec::new();
        let mut slot_of: BTreeMap<CacheKey, usize> = BTreeMap::new();
        for &i in &group.indices {
            let Some(req) = requests.get(i) else { continue };
            let key = CacheKey {
                fingerprint: group.fingerprint,
                question: req.question.to_vec(),
                guided: req.guided,
            };
            if let Some(cached) = self.cache.get(&key) {
                results[i] = Some(cached.clone());
                continue;
            }
            match slot_of.get(&key) {
                Some(&s) => {
                    unique[s].1.push(i);
                    nlidb_trace::count("serve.dedup", 1);
                }
                None => {
                    slot_of.insert(key.clone(), unique.len());
                    unique.push((key, vec![i]));
                }
            }
        }
        if unique.is_empty() {
            return; // Every request hit the cache: skip the context build.
        }

        // The group's shared annotation context, built once for every miss
        // in the group. Pure in the table, so building it here (rather
        // than per request, or not at all on a fully-cached batch) cannot
        // change any prediction.
        let ctx = {
            let _c = nlidb_trace::span("serve.context");
            self.nlidb.context_with_fingerprint(group.table, group.fingerprint)
        };

        // Phase 2: fan the unique questions across the pool. Slot `u`
        // always holds question `u`'s prediction (disjoint writes, fixed
        // sharding), so the outcome is thread-count independent.
        let mut computed: Vec<Option<Option<Query>>> = vec![None; unique.len()];
        let nlidb = self.nlidb;
        let ctx = &ctx;
        let table = group.table;
        pool::parallel_for_chunks(&mut computed, 1, |u, slot| {
            let _t = nlidb_trace::span("serve.predict");
            let req = unique
                .get(u)
                .and_then(|(_, waiters)| waiters.first())
                .and_then(|&first| requests.get(first));
            if let (Some(out), Some(req)) = (slot.first_mut(), req) {
                *out = Some(nlidb.answer(req.question, ctx, req.guided.then_some(table)));
            }
        });

        // Phase 3 (calling thread, question order): publish to every
        // waiter and insert into the cache.
        for ((key, waiters), computed) in unique.into_iter().zip(computed) {
            // The fan-out writes every slot; an unwritten one (a bug)
            // degrades to "no prediction" rather than a panic here.
            let value = computed.flatten();
            for i in waiters {
                results[i] = Some(value.clone());
            }
            self.cache.insert(key, value);
        }
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
