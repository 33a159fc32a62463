//! Differential test for the batched serving engine: for every thread
//! count and cache configuration, [`ServeEngine::serve`] must return
//! predictions **byte-identical** to running [`Nlidb::predict`]
//! sequentially over the same requests.
//!
//! "Byte-identical" is checked three ways per prediction: structural
//! equality on the recovered [`Query`], equality of the `Debug`
//! rendering (every field, every float), and equality of the emitted
//! SQL text.

use std::sync::Arc;

use nlidb_core::serve::{PredictionCache, ServeEngine, ServeRequest};
use nlidb_core::{ModelConfig, Nlidb, NlidbOptions};
use nlidb_data::question::{realize_question, NoiseConfig};
use nlidb_data::wikisql::{gen_query, gen_table, generate, WikiSqlConfig};
use nlidb_sqlir::Query;
use nlidb_storage::{Table, TableStats};
use nlidb_tensor::{pool, Rng};

/// Serializes tests that flip the global pool size or trace switch.
fn pool_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tiny_system(seed: u64) -> (Nlidb, nlidb_data::Dataset) {
    let mut gen_cfg = WikiSqlConfig::tiny(seed);
    gen_cfg.train_tables = 8;
    gen_cfg.questions_per_table = 6;
    let ds = generate(&gen_cfg);
    let opts = NlidbOptions { model: ModelConfig::tiny(), ..NlidbOptions::default() };
    (Nlidb::train(&ds, opts), ds)
}

/// The request stream every configuration is checked against: the dev
/// split plus within-batch duplicates (every third question repeated at
/// the end of the batch), so dedup and cache-hit paths are exercised.
fn requests(ds: &nlidb_data::Dataset) -> Vec<(&[String], &nlidb_storage::Table)> {
    let mut reqs: Vec<(&[String], &nlidb_storage::Table)> = ds
        .dev
        .iter()
        .take(24)
        .map(|e| (e.question.as_slice(), &*e.table))
        .collect();
    let dups: Vec<_> = reqs.iter().step_by(3).copied().collect();
    reqs.extend(dups);
    reqs
}

fn render(preds: &[Option<Query>], columns_of: &[Vec<String>]) -> Vec<String> {
    preds
        .iter()
        .zip(columns_of)
        .map(|(p, cols)| match p {
            None => "<none>".to_string(),
            Some(q) => format!("{:?} || {}", q, q.to_sql(cols)),
        })
        .collect()
}

#[test]
fn batched_predictions_are_byte_identical_to_sequential() {
    let _guard = pool_lock();
    let (nlidb, ds) = tiny_system(3001);
    let reqs = requests(&ds);
    let columns_of: Vec<Vec<String>> = reqs.iter().map(|(_, t)| t.column_names()).collect();

    // Sequential reference, computed on the serial path.
    pool::set_threads(1);
    let sequential: Vec<Option<Query>> =
        reqs.iter().map(|(q, t)| nlidb.predict(q, t)).collect();
    let reference = render(&sequential, &columns_of);
    assert!(
        sequential.iter().filter(|p| p.is_some()).count() >= reqs.len() / 3,
        "reference produced too few parses to make the comparison meaningful"
    );

    let serve_reqs: Vec<ServeRequest<'_>> = reqs
        .iter()
        .map(|&(question, table)| ServeRequest { question, table, guided: false })
        .collect();

    for threads in [1usize, pool::default_threads()] {
        for cache_capacity in [0usize, 1, 1024] {
            pool::set_threads(threads);
            let mut engine =
                ServeEngine::with_cache(&nlidb, PredictionCache::new(cache_capacity));
            // Serve the batch twice through one engine: the second pass
            // hits the cache (when enabled) and must still match.
            for pass in 0..2 {
                let batched = engine.serve(&serve_reqs);
                assert_eq!(
                    render(&batched, &columns_of),
                    reference,
                    "threads={threads} cache_capacity={cache_capacity} pass={pass}: \
                     batched output diverged from sequential predict"
                );
                assert_eq!(batched, sequential);
            }
            if cache_capacity == 1024 {
                assert!(
                    engine.cache().hits() > 0,
                    "second pass through a large cache must hit"
                );
            }
            if cache_capacity > 0 {
                assert!(
                    engine.cache().len() <= cache_capacity,
                    "cache exceeded its capacity bound"
                );
            }
        }
    }
    pool::set_threads(pool::default_threads());
}

#[test]
fn cache_handoff_matches_a_persistent_engine_and_attributes_per_table() {
    let _guard = pool_lock();
    let (nlidb, ds) = tiny_system(3003);
    let reqs = requests(&ds);
    let serve_reqs: Vec<ServeRequest<'_>> = reqs
        .iter()
        .map(|&(question, table)| ServeRequest { question, table, guided: false })
        .collect();

    // One engine kept alive across both passes…
    let mut persistent = ServeEngine::with_cache(&nlidb, PredictionCache::new(64));
    let persistent_out = [persistent.serve(&serve_reqs), persistent.serve(&serve_reqs)];

    // …versus the server's usage pattern: a fresh engine per batch with
    // the cache handed off through `with_cache`/`into_cache`.
    let mut cache = nlidb_core::PredictionCache::new(64);
    let mut handoff_out = Vec::new();
    for _ in 0..2 {
        let mut eng = ServeEngine::with_cache(&nlidb, cache);
        handoff_out.push(eng.serve(&serve_reqs));
        cache = eng.into_cache();
    }
    assert_eq!(handoff_out[0], persistent_out[0], "cold pass diverged under cache handoff");
    assert_eq!(handoff_out[1], persistent_out[1], "warm pass diverged under cache handoff");
    let p = persistent.cache();
    assert_eq!(
        (p.hits(), p.misses(), p.insertions(), p.evictions(), p.len()),
        (cache.hits(), cache.misses(), cache.insertions(), cache.evictions(), cache.len()),
        "handoff changed cache accounting"
    );

    // Per-fingerprint attribution: the per-table rows must sum exactly
    // to the global counters, cover every table in the workload, and an
    // unknown fingerprint must read as zero.
    let per = cache.per_table_stats();
    assert!(!per.is_empty());
    let sum = |f: fn(&nlidb_core::CacheTableStats) -> u64| per.values().map(f).sum::<u64>();
    assert_eq!(sum(|s| s.hits), cache.hits());
    assert_eq!(sum(|s| s.misses), cache.misses());
    assert_eq!(sum(|s| s.insertions), cache.insertions());
    assert_eq!(sum(|s| s.evictions), cache.evictions());
    for (_, table) in &reqs {
        let fp = table.fingerprint();
        let row = cache.table_stats(fp);
        assert_eq!(row, *per.get(&fp).expect("workload table has a stats row"));
        assert!(row.hits + row.misses > 0, "workload table saw no lookups");
    }
    let absent = cache.table_stats(u64::MAX);
    assert_eq!((absent.hits, absent.misses, absent.insertions, absent.evictions), (0, 0, 0, 0));
}

#[test]
fn engine_cache_state_is_thread_count_independent() {
    let _guard = pool_lock();
    let (nlidb, ds) = tiny_system(3002);
    let reqs = requests(&ds);
    let serve_reqs: Vec<ServeRequest<'_>> = reqs
        .iter()
        .map(|&(question, table)| ServeRequest { question, table, guided: false })
        .collect();

    // Cache statistics and eviction order are functions of the request
    // stream alone: lookups and insertions happen sequentially on the
    // calling thread, outside the parallel section.
    let mut stats = Vec::new();
    for threads in [1usize, pool::default_threads().max(2)] {
        pool::set_threads(threads);
        let mut engine = ServeEngine::with_cache(&nlidb, PredictionCache::new(7));
        engine.serve(&serve_reqs);
        engine.serve(&serve_reqs);
        let keys: Vec<String> =
            engine.cache().keys_oldest_first().iter().map(|k| format!("{k:?}")).collect();
        stats.push((
            engine.cache().hits(),
            engine.cache().misses(),
            engine.cache().insertions(),
            engine.cache().evictions(),
            engine.cache().len(),
            keys,
        ));
    }
    pool::set_threads(pool::default_threads());
    assert_eq!(stats[0], stats[1], "cache behavior depended on thread count");
}

#[test]
fn misses_on_different_tables_share_one_pool_fan_out() {
    let _guard = pool_lock();
    let (nlidb, ds) = tiny_system(3004);
    let a = &ds.dev[0];
    let b = ds
        .dev
        .iter()
        .find(|e| e.table.fingerprint() != a.table.fingerprint())
        .expect("a second dev table");
    let batch = [
        ServeRequest { question: &a.question, table: &a.table, guided: false },
        ServeRequest { question: &b.question, table: &b.table, guided: true },
    ];
    let sequential =
        vec![nlidb.predict(&a.question, &a.table), nlidb.predict_guided(&b.question, &b.table)];

    pool::set_threads(2);
    let mut engine = ServeEngine::with_cache(&nlidb, PredictionCache::new(8));
    let pool_counters =
        || ["pool.jobs", "pool.tasks", "pool.serial_tasks"].map(nlidb_trace::counter);
    nlidb_trace::reset();
    nlidb_trace::set_enabled(true);
    let cold = engine.serve(&batch);
    let cold_counters = pool_counters();
    nlidb_trace::reset();
    let warm = engine.serve(&batch);
    let warm_counters = pool_counters();
    nlidb_trace::set_enabled(false);
    nlidb_trace::reset();
    pool::set_threads(pool::default_threads());

    assert_eq!(cold, sequential, "cold batch diverged from sequential predict");
    assert_eq!(warm, sequential, "cached batch diverged from sequential predict");
    // Two jobs of two tasks each: the two tables' contexts, then both
    // misses in one fan-out. Nothing ran inline.
    assert_eq!(cold_counters, [2, 4, 0], "pool.jobs, pool.tasks, pool.serial_tasks");
    // A fully cached batch builds no context and enqueues nothing.
    assert_eq!(warm_counters, [0, 0, 0], "a cached batch reached the pool");
}

/// A generated table of 1,000–1,200 rows and `n` distinct questions on it.
fn large_table_questions(seed: u64, n: usize) -> (Arc<Table>, Vec<Vec<String>>) {
    let mut rng = Rng::seed_from_u64(seed);
    let gt = gen_table("large", &mut rng, (1000, 1200));
    let names = gt.table.column_names();
    let mut questions: Vec<Vec<String>> = Vec::new();
    while questions.len() < n {
        let query = gen_query(&gt, 0.15, &mut rng);
        let noise = NoiseConfig::default();
        let (question, _) = realize_question(&gt.archetypes, &names, &query, &noise, &mut rng);
        if !questions.contains(&question) {
            questions.push(question);
        }
    }
    (gt.table, questions)
}

#[test]
fn table_stats_are_computed_once_per_table_across_micro_batches() {
    let _guard = pool_lock();
    let (nlidb, _) = tiny_system(3005);
    let (table, questions) = large_table_questions(0x1000, 4);
    let fp = table.fingerprint();
    let request =
        |i: usize| ServeRequest { question: &questions[i], table: &table, guided: i == 3 };
    let batches = [[request(0), request(1)], [request(2), request(3)]];
    let sequential: Vec<Option<Query>> = (0..4)
        .map(|i| match i == 3 {
            true => nlidb.predict_guided(&questions[i], &table),
            false => nlidb.predict(&questions[i], &table),
        })
        .collect();
    let computed = TableStats::compute(&table, nlidb.detector.space());

    for threads in [1, 2] {
        pool::set_threads(threads);
        for capacity in [64, 0] {
            nlidb_trace::reset();
            nlidb_trace::set_enabled(true);
            // The server's pattern: one engine per micro-batch, the cache
            // handed from one to the next.
            let mut cache = PredictionCache::new(capacity);
            let mut answers = Vec::new();
            for batch in &batches {
                let mut engine = ServeEngine::with_cache(&nlidb, cache);
                answers.extend(engine.serve(batch));
                cache = engine.into_cache();
            }
            let counts = ["serve.stats.computed", "serve.stats.resident"].map(nlidb_trace::counter);
            nlidb_trace::set_enabled(false);
            nlidb_trace::reset();

            let at = format!("threads={threads} capacity={capacity}");
            assert_eq!(answers, sequential, "{at}: answers diverged from sequential predict");
            if capacity == 0 {
                assert_eq!(counts, [2, 0], "{at}: a disabled cache recomputes every time");
                assert_eq!(cache.resident_stats(fp), None, "{at}");
            } else {
                assert_eq!(counts, [1, 1], "{at}: computed, resident");
                assert_eq!(cache.resident_stats(fp), Some(&computed), "{at}");
            }
        }
    }
    pool::set_threads(pool::default_threads());
}
