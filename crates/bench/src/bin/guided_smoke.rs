//! CI smoke for execution-guided decoding (run by `scripts/verify.sh`).
//!
//! Trains a tiny end-to-end system, then enforces the guidance contract
//! (DESIGN.md, "Execution-guided decoding"):
//!
//! 1. **Guidance-off identity**: `decode_beam` equals the top of
//!    `decode_beam_ranked`, and `ServeRequest { guided: false }` is
//!    byte-identical to sequential [`Nlidb::predict`] — the pre-guidance
//!    path is untouched.
//! 2. **Never-fails**: over the dev/test shards of a fresh sharded
//!    corpus, every guided prediction executes without `ExecError` or is
//!    exactly the unguided prediction (the documented last resort).
//! 3. **Pure filter**: when the unguided prediction already executes to
//!    a non-vacuous result, guidance commits it unchanged.
//! 4. **Observability**: the `decode.guide.*` trace families (check
//!    span, verdict counters, repair-resolution counters) appear in the
//!    emitted trace JSON alongside the `storage.*` executor counters.
//! 5. **Lazy judging**: the repair walk executes only the candidates it
//!    reaches, so the sweep's `decode.guide.checks` stay within
//!    `beam_width` per guided prediction.
//!
//! Exits non-zero on any violation.

use nlidb_core::serve::{PredictionCache, ServeEngine, ServeRequest};
use nlidb_core::vocab::encode_source;
use nlidb_core::{ModelConfig, Nlidb, NlidbOptions};
use nlidb_data::shard::{CorpusPlan, ShardedCorpusConfig, Split};
use nlidb_data::wikisql::{generate, WikiSqlConfig};
use nlidb_json::{json, Json};
use nlidb_sqlir::Query;
use nlidb_storage::execute;

fn check(failed: &mut bool, ok: bool, what: &str) {
    println!("  [{}] {what}", if ok { "ok" } else { "FAIL" });
    if !ok {
        *failed = true;
    }
}

fn render(p: &Option<Query>) -> String {
    format!("{p:?}")
}

fn main() {
    let mut gen_cfg = WikiSqlConfig::tiny(81);
    gen_cfg.train_tables = 8;
    gen_cfg.questions_per_table = 6;
    let ds = generate(&gen_cfg);
    eprintln!("guided_smoke: training tiny system…");
    nlidb_trace::set_enabled(false);
    let opts = NlidbOptions { model: ModelConfig::tiny(), ..NlidbOptions::default() };
    let nlidb = Nlidb::train(&ds, opts);

    let mut failed = false;

    // 1. Guidance-off identity: the ranked decode is a pure refactor of
    // decode_beam, and an unguided serve batch matches sequential
    // prediction byte-for-byte.
    println!("guidance-off identity:");
    let mut ranked_tops_match = true;
    if let nlidb_core::pipeline::Translator::Gru(m) = nlidb.translator() {
        for e in ds.dev.iter().take(12) {
            let ann = nlidb.annotate_question(&e.question, &e.table);
            let (src, copy) = encode_source(nlidb.in_vocab(), nlidb.out_vocab(), &ann.tokens);
            if src.is_empty() {
                continue;
            }
            let width = nlidb.options().model.beam_width;
            let top = m.decode_beam(&src, &copy, width);
            let ranked = m.decode_beam_ranked(&src, &copy, width);
            if ranked.first() != Some(&top) {
                ranked_tops_match = false;
            }
        }
    }
    check(&mut failed, ranked_tops_match, "decode_beam == decode_beam_ranked[0] on dev");

    let sequential: Vec<Option<Query>> =
        ds.dev.iter().map(|e| nlidb.predict(&e.question, &e.table)).collect();
    let unguided_reqs: Vec<ServeRequest<'_>> = ds
        .dev
        .iter()
        .map(|e| ServeRequest { question: &e.question, table: &e.table, guided: false })
        .collect();
    let mut engine = ServeEngine::with_cache(&nlidb, PredictionCache::new(1024));
    let served = engine.serve(&unguided_reqs);
    check(&mut failed, served == sequential, "unguided serve == sequential predict");

    // 2 + 3. Never-fails and pure-filter, under tracing so the
    // decode.guide.* families are populated by real guided traffic.
    nlidb_trace::reset();
    nlidb_trace::set_enabled(true);
    let plan = CorpusPlan::compile(ShardedCorpusConfig::tiny(8101));
    let (mut total, mut executed_ok, mut last_resort) = (0usize, 0usize, 0usize);
    let mut top_passes_count = 0usize;
    let mut never_fails = true;
    let mut pure_filter = true;
    for split in [Split::Dev, Split::Test] {
        for spec in plan.shards_for(split) {
            for e in plan.gen_shard(spec.index) {
                total += 1;
                let guided = nlidb.predict_guided(&e.question, &e.table);
                let unguided = nlidb.predict(&e.question, &e.table);
                // The true top candidate: the decoded `s^a`, recovered.
                // When it executes to a non-vacuous result its verdict is
                // Pass, and the guide must commit it unchanged (which is
                // also exactly the unguided prediction).
                let ctx = nlidb.table_context(&e.table);
                let (sa, map) = nlidb.predict_annotated_in(&e.question, &ctx);
                let top = nlidb_sqlir::recover(&sa, &map).ok();
                let top_passes = matches!(
                    top.as_ref().map(|q| execute(&e.table, q)),
                    Some(Ok(ref rs)) if !rs.is_vacuous()
                );
                if top_passes {
                    top_passes_count += 1;
                    if render(&guided) != render(&unguided) {
                        pure_filter = false;
                    }
                }
                match guided.as_ref().map(|q| execute(&e.table, q)) {
                    Some(Ok(_)) => executed_ok += 1,
                    _ => {
                        last_resort += 1;
                        if render(&guided) != render(&unguided) {
                            never_fails = false;
                        }
                    }
                }
            }
        }
    }
    println!("never-fails sweep ({total} guided predictions):");
    check(&mut failed, total >= 24, "corpus sweep is non-trivial");
    check(
        &mut failed,
        never_fails,
        &format!("every prediction runs or is the last resort ({executed_ok} ok, {last_resort} last-resort)"),
    );
    check(
        &mut failed,
        pure_filter && top_passes_count > 0,
        &format!("passing top candidates committed unchanged ({top_passes_count} passes)"),
    );
    check(
        &mut failed,
        executed_ok * 10 >= total * 9,
        "at least 90% of guided predictions execute cleanly",
    );
    // 5. Lazy judging: the walk executes each beam candidate at most once,
    // and only when it reaches it.
    let checks = nlidb_trace::counter("decode.guide.checks");
    let budget = (nlidb.options().model.beam_width * total) as u64;
    check(
        &mut failed,
        checks <= budget,
        &format!("{checks} guide checks within beam_width x {total} predictions = {budget}"),
    );
    let path = nlidb_trace::write("guided_smoke").expect("write trace JSON");
    nlidb_trace::set_enabled(false);

    // 4. Trace families present (and wired next to storage.* counters).
    println!("trace file {}:", path.display());
    let text = std::fs::read_to_string(&path).expect("read trace JSON back");
    let parsed = Json::parse(&text).expect("trace JSON parses");
    let span_keys: Vec<&str> = match parsed.get("spans") {
        Some(Json::Obj(entries)) => entries.iter().map(|(k, _)| k.as_str()).collect(),
        _ => Vec::new(),
    };
    for name in ["decode.guide.predict", "decode.guide.check"] {
        check(&mut failed, span_keys.contains(&name), &format!("span {name}"));
    }
    let counters = parsed.get("counters");
    for name in
        ["decode.guide.checks", "decode.guide.pass", "decode.guide.repair.top", "storage.queries"]
    {
        check(
            &mut failed,
            counters.and_then(|c| c.get(name)).is_some(),
            &format!("counter {name}"),
        );
    }

    nlidb_bench::write_result(
        "guided_smoke",
        &json!({
            "predictions": total as f64,
            "executed_ok": executed_ok as f64,
            "last_resort": last_resort as f64,
            "guide_checks": checks as f64,
        }),
    );
    if failed {
        std::process::exit(1);
    }
    println!("guided_smoke: all checks passed");
}
