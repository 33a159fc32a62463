//! CI smoke for the batched serving engine (run by `scripts/verify.sh`).
//!
//! Trains a tiny end-to-end system, then enforces the serving contract:
//!
//! 1. **Identity**: batched predictions over the dev split (with
//!    within-batch duplicates) are identical to the sequential
//!    [`Nlidb::predict`] path, for a cache-less engine, a warm cache, and
//!    a capacity-1 cache.
//! 2. **Observability**: the `serve.*` trace families (batch/group/
//!    context/predict spans, request/cache counters) all appear in the
//!    emitted trace JSON.
//! 3. **Throughput**: on a repeated-table workload, a warm batch-64 pass
//!    is at least 2× faster per request than cold batch-1 serving.
//!
//! Exits non-zero on any violation.

use std::time::Instant;

use nlidb_core::serve::{PredictionCache, ServeEngine, ServeRequest};
use nlidb_core::{ModelConfig, Nlidb, NlidbOptions};
use nlidb_data::wikisql::{generate, WikiSqlConfig};
use nlidb_json::{json, Json};
use nlidb_sqlir::Query;

fn check(failed: &mut bool, ok: bool, what: &str) {
    println!("  [{}] {what}", if ok { "ok" } else { "FAIL" });
    if !ok {
        *failed = true;
    }
}

fn main() {
    let mut gen_cfg = WikiSqlConfig::tiny(76);
    gen_cfg.train_tables = 8;
    gen_cfg.questions_per_table = 6;
    let ds = generate(&gen_cfg);
    eprintln!("serve_smoke: training tiny system…");
    nlidb_trace::set_enabled(false);
    let opts = NlidbOptions { model: ModelConfig::tiny(), ..NlidbOptions::default() };
    let nlidb = Nlidb::train(&ds, opts);

    // The workload: every dev question, then every third one repeated, so
    // the batch exercises grouping, dedup, and (on a second pass) hits.
    let mut reqs: Vec<ServeRequest<'_>> = ds
        .dev
        .iter()
        .map(|e| ServeRequest { question: &e.question, table: &e.table, guided: false })
        .collect();
    let dups: Vec<ServeRequest<'_>> = reqs.iter().step_by(3).copied().collect();
    reqs.extend(dups);

    let sequential: Vec<Option<Query>> =
        reqs.iter().map(|r| nlidb.predict(r.question, r.table)).collect();

    let mut failed = false;
    println!("batch vs sequential identity ({} requests):", reqs.len());
    nlidb_trace::reset();
    nlidb_trace::set_enabled(true);
    for cache_capacity in [0usize, 1, 1024] {
        let mut engine = ServeEngine::with_cache(&nlidb, PredictionCache::new(cache_capacity));
        let cold = engine.serve(&reqs);
        let warm = engine.serve(&reqs);
        check(
            &mut failed,
            cold == sequential && warm == sequential,
            &format!("cache_capacity={cache_capacity}: batched output identical"),
        );
    }
    let path = nlidb_trace::write("serve_smoke").expect("write trace JSON");
    nlidb_trace::set_enabled(false);

    println!("trace file {}:", path.display());
    let text = std::fs::read_to_string(&path).expect("read trace JSON back");
    let parsed = Json::parse(&text).expect("trace JSON parses");
    let span_keys: Vec<&str> = match parsed.get("spans") {
        Some(Json::Obj(entries)) => entries.iter().map(|(k, _)| k.as_str()).collect(),
        _ => Vec::new(),
    };
    for name in ["serve.batch", "serve.group", "serve.context", "serve.predict"] {
        check(&mut failed, span_keys.contains(&name), &format!("span {name}"));
    }
    let counters = parsed.get("counters");
    for name in [
        "serve.requests",
        "serve.groups",
        "serve.dedup",
        "serve.cache.hits",
        "serve.cache.misses",
        "serve.cache.insertions",
    ] {
        check(
            &mut failed,
            counters.and_then(|c| c.get(name)).is_some(),
            &format!("counter {name}"),
        );
    }

    // Throughput: repeated-table workload, batch-64 warm vs batch-1 cold.
    println!("throughput (repeated-table workload):");
    let pool_size = ds.dev.len().min(8);
    let workload: Vec<ServeRequest<'_>> = (0..64)
        .map(|i| {
            let e = &ds.dev[i % pool_size];
            ServeRequest { question: &e.question, table: &e.table, guided: false }
        })
        .collect();
    let rounds = 5;
    let t = Instant::now();
    for _ in 0..rounds {
        for r in &workload[..8] {
            let mut engine = ServeEngine::with_cache(&nlidb, PredictionCache::new(0));
            let _ = engine.serve(std::slice::from_ref(r));
        }
    }
    let cold_ns_per_req = t.elapsed().as_nanos() as f64 / (rounds * 8) as f64;
    let mut engine = ServeEngine::with_cache(&nlidb, PredictionCache::new(1024));
    let _ = engine.serve(&workload); // warm the cache
    let t = Instant::now();
    for _ in 0..rounds {
        let _ = engine.serve(&workload);
    }
    let warm_ns_per_req = t.elapsed().as_nanos() as f64 / (rounds * workload.len()) as f64;
    let speedup = cold_ns_per_req / warm_ns_per_req;
    println!(
        "  batch-1 cold: {:.1} µs/req   batch-64 warm: {:.1} µs/req   speedup: {speedup:.1}x",
        cold_ns_per_req / 1e3,
        warm_ns_per_req / 1e3
    );
    check(&mut failed, speedup >= 2.0, "warm batch-64 at least 2x faster per request");

    nlidb_bench::write_result(
        "serve_smoke",
        &json!({
            "requests": reqs.len() as f64,
            "cold_ns_per_req": cold_ns_per_req,
            "warm_ns_per_req": warm_ns_per_req,
            "speedup": speedup,
        }),
    );
    if failed {
        std::process::exit(1);
    }
    println!("serve_smoke: all checks passed");
}
