//! The traced run: per-layer self time, call counts and ratios, measured
//! from the outside in.
//!
//! After the usual set-up, the head of the workload's streams is
//! replayed three ways, request by request, with the inference pool
//! pinned to one thread so all three do the same serial work:
//!
//! 1. **Untraced baseline** — `ServeEngine::serve` with the workload's
//!    warmed cache, one call per request, no spans.
//! 2. **Decomposed replay** — the same requests through the public layer
//!    functions, in the order `Nlidb` composes them, each call wrapped in
//!    a span. The replay copies three pieces of private glue from the
//!    pipeline (slot assembly, the fallback query and the guided repair
//!    walk); `trace.agree` checks every computed answer against the
//!    program's own `detect_in` / `predict_annotated_in` / `predict_in` /
//!    `predict_guided_in`, so a drift shows instead of being measured.
//! 3. **TCP replay** — the same requests over one connection, with
//!    client-side spans for encoding, the round trip and decoding,
//!    bracketed by `stats` requests.
//!
//! Spans are kept in memory as `(id, parent, request, name, start_ns,
//! end_ns)` and written out when the run ends.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use nlidb_core::annotate::annotate;
use nlidb_core::mention::matcher::{context_free_matches, ColumnCandidate, MatchSource};
use nlidb_core::mention::resolve::resolve;
use nlidb_core::mention::value::{content_matches_indexed, ValueIndex};
use nlidb_core::mention::{DetectContext, DetectedSlot};
use nlidb_core::pipeline::Translator;
use nlidb_core::seq2seq::DecodeGuide;
use nlidb_core::serve::CacheKey;
use nlidb_core::{GuideVerdict, Nlidb, PredictionCache, ServeEngine, ServeRequest, TableContext};
use nlidb_json::{encode_frame, json, Json, ToJson};
use nlidb_serve::{Request, ServerConfig, ServerStats};
use nlidb_sqlir::{recover, AnnotatedSql, AnnotationMap, CmpOp, Literal, Query};
use nlidb_storage::{execute, Table, TableStats};
use nlidb_tensor::{pool, Graph};

use crate::client::{parse_response, wire_request, Conn};
use crate::load::{check_reply, median_step, server_stats, set_up_repeated, SetupTimes};
use crate::stats::{self_times, Span};
use crate::workload::{Op, Plan};
use crate::{Metric, Model, Report};

/// Layers of the decomposed replay, in pipeline order.
pub const MODEL_LAYERS: [&str; 15] = [
    "engine",
    "core.table_context",
    "storage.fingerprint",
    "storage.table_stats",
    "mention.value_index",
    "mention.context_free",
    "mention.classifier",
    "mention.adversarial",
    "mention.value",
    "mention.resolve",
    "annotate",
    "seq2seq.decode",
    "sqlir.recover",
    "guide.judge",
    "storage.execute",
];

/// Root span of one decomposed request.
const ROOT: &str = "request";
/// Root span of one TCP request.
const TCP_ROOT: &str = "tcp.request";

/// Questions the traced run replays (25 batches on `bulk_unique`).
pub const REPLAY_QUESTIONS: usize = 400;

/// In-memory span recorder for one replay.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its index.
    fn open_span(&mut self, name: &'static str) -> usize {
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            request: self.request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        self.spans.len() - 1
    }

    /// Closes the span opened as `index` (and anything left open in it).
    fn close_span(&mut self, index: usize) {
        let end = self.now_ns();
        if let Some(s) = self.spans.get_mut(index) {
            s.end_ns = end;
            let id = s.id;
            while let Some(top) = self.open.pop() {
                if top == id {
                    break;
                }
            }
        }
    }

    /// Runs `f` inside a span.
    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let s = self.open_span(name);
        let out = f(self);
        self.close_span(s);
        out
    }
}

/// Work counted at the layer boundaries of the decomposed replay.
#[derive(Debug, Default)]
struct Counts {
    groups: u64,
    rows_hashed: u64,
    localizations: u64,
    kept: u64,
    decodes: u64,
    candidates: u64,
    out_tokens: u64,
    recovers: u64,
    recover_fails: u64,
    guided: u64,
    verdicts: u64,
    rows_scanned: u64,
}

/// What the replay computed for one question.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    slots: Vec<DetectedSlot>,
    sa: AnnotatedSql,
    answer: Option<Query>,
}

/// A computed question awaiting its agreement check.
struct Check {
    question: usize,
    ctx: Arc<TableContext>,
    outcome: Outcome,
}

/// `Nlidb::table_context`, layer by layer.
fn table_context_traced(
    rec: &mut Recorder,
    m: &Nlidb,
    table: &Table,
    n: &mut Counts,
) -> TableContext {
    let fingerprint = rec.timed("storage.fingerprint", |_| table.fingerprint());
    n.rows_hashed += table.num_rows() as u64;
    let names = table.column_names();
    let name_tokens = names.iter().map(|c| nlidb_text::tokenize(c)).collect();
    let stats = rec.timed("storage.table_stats", |_| {
        TableStats::compute(table, m.detector.space())
    });
    let value_index = rec.timed("mention.value_index", |_| ValueIndex::build(table));
    TableContext {
        fingerprint,
        detect: DetectContext {
            names,
            name_tokens,
            stats,
            value_index,
        },
    }
}

/// `MentionDetector::detect_in`, layer by layer.
fn detect_traced(
    rec: &mut Recorder,
    m: &Nlidb,
    q: &[String],
    ctx: &DetectContext,
    n: &mut Counts,
) -> Vec<DetectedSlot> {
    let det = &m.detector;
    let cfg = &m.options().model;
    let mut cols = Vec::new();
    if !q.is_empty() {
        cols = rec.timed("mention.context_free", |_| {
            context_free_matches(q, &ctx.names, det.space(), det.lexicon(), &det.matcher_cfg)
        });
        let covered: Vec<usize> = cols.iter().map(|c| c.column).collect();
        let mut g = Graph::new();
        for (ci, col_tokens) in ctx.name_tokens.iter().enumerate() {
            if covered.contains(&ci) {
                continue;
            }
            let p = rec.timed("mention.classifier", |_| {
                det.classifier.predict_in(&mut g, q, col_tokens)
            });
            // 0.58 is the classifier threshold written in
            // `MentionDetector::detect_columns_in`; `trace.agree` drops
            // below 1 if the two ever differ.
            if p > 0.58 {
                n.localizations += 1;
                let located = rec.timed("mention.adversarial", |_| {
                    nlidb_core::mention::adversarial::locate_mention(
                        &det.classifier,
                        q,
                        col_tokens,
                        cfg,
                    )
                });
                if let Some(span) = located {
                    if !cols.iter().any(|c| span.0 < c.span.1 && c.span.0 < span.1) {
                        n.kept += 1;
                        cols.push(ColumnCandidate {
                            column: ci,
                            span,
                            score: p,
                            source: MatchSource::Semantic,
                        });
                    }
                }
            }
        }
        cols.sort_by_key(|c| c.span.0);
    }
    let vals = rec.timed("mention.value", |_| {
        let mut vals = content_matches_indexed(q, &ctx.value_index);
        for vm in det.value_detector.detect(q, &ctx.stats) {
            if !vals
                .iter()
                .any(|k| vm.span.0 < k.span.1 && k.span.0 < vm.span.1)
            {
                vals.push(vm);
            }
        }
        vals.sort_by_key(|v| v.span.0);
        vals
    });
    rec.timed("mention.resolve", |_| {
        let mut slots: Vec<DetectedSlot> = resolve(q, &cols, &vals)
            .iter()
            .map(|p| DetectedSlot {
                column: p.column,
                col_span: p.col_span,
                value: Some(
                    vals.iter()
                        .find(|v| v.span == p.val_span)
                        .and_then(|v| v.text.clone())
                        .unwrap_or_else(|| {
                            q.get(p.val_span.0..p.val_span.1)
                                .unwrap_or_default()
                                .join(" ")
                        }),
                ),
                val_span: Some(p.val_span),
            })
            .collect();
        for cand in &cols {
            if !slots
                .iter()
                .any(|s| s.col_span == Some(cand.span) || s.column == cand.column)
            {
                slots.push(DetectedSlot {
                    column: cand.column,
                    col_span: Some(cand.span),
                    value: None,
                    val_span: None,
                });
            }
        }
        slots.sort_by_key(DetectedSlot::position);
        slots.truncate(cfg.max_slots);
        slots
    })
}

/// `recover` under a span, counting failures.
fn recover_timed(
    rec: &mut Recorder,
    n: &mut Counts,
    sa: &AnnotatedSql,
    map: &AnnotationMap,
) -> Option<Query> {
    n.recovers += 1;
    let q = rec.timed("sqlir.recover", |_| recover(sa, map).ok());
    n.recover_fails += u64::from(q.is_none());
    q
}

/// `execute` under a span; true when the query runs.
fn executes(rec: &mut Recorder, n: &mut Counts, table: &Table, q: &Query) -> bool {
    n.rows_scanned += table.num_rows() as u64;
    rec.timed("storage.execute", |_| execute(table, q).is_ok())
}

/// A copy of the pipeline's private `fallback_query`: the first
/// column-only slot (or header), with an equality per valued slot.
fn fallback(map: &AnnotationMap) -> Option<Query> {
    let select = map
        .slots
        .iter()
        .find(|s| s.value.is_none())
        .and_then(|s| s.column)
        .or_else(|| map.headers.first().copied())?;
    let mut q = Query::select(select);
    for slot in &map.slots {
        if let (Some(col), Some(value)) = (slot.column, slot.value.as_ref()) {
            q = q.and_where(col, CmpOp::Eq, Literal::parse(value));
        }
    }
    Some(q)
}

/// `ExecutionGuide` with its judgement split into spans: the beam search
/// calls `admit` on every completed candidate, exactly as it calls the
/// program's guide.
struct JudgingGuide<'a> {
    rec: &'a mut Recorder,
    n: &'a mut Counts,
    m: &'a Nlidb,
    map: &'a AnnotationMap,
    table: &'a Table,
    memo: BTreeMap<Vec<usize>, GuideVerdict>,
}

impl JudgingGuide<'_> {
    fn judged_verdict(&mut self, seq: &[usize]) -> GuideVerdict {
        if let Some(&v) = self.memo.get(seq) {
            return v;
        }
        self.n.verdicts += 1;
        let span = self.rec.open_span("guide.judge");
        let sa = self.m.out_vocab().decode(seq);
        let v = match recover_timed(self.rec, self.n, &sa, self.map) {
            None => GuideVerdict::Unrecoverable,
            Some(q) => {
                self.n.rows_scanned += self.table.num_rows() as u64;
                match self
                    .rec
                    .timed("storage.execute", |_| execute(self.table, &q))
                {
                    Err(_) => GuideVerdict::Error,
                    Ok(rs) if rs.is_vacuous() => GuideVerdict::Vacuous,
                    Ok(_) => GuideVerdict::Pass,
                }
            }
        };
        self.rec.close_span(span);
        self.memo.insert(seq.to_vec(), v);
        v
    }

    fn recovered_traced(&mut self, seq: &[usize]) -> Option<Query> {
        let sa = self.m.out_vocab().decode(seq);
        recover_timed(self.rec, self.n, &sa, self.map)
    }
}

impl DecodeGuide for JudgingGuide<'_> {
    fn on_step(&mut self, _step: usize, _live_beams: usize) {}

    fn admit(&mut self, seq: &[usize]) -> bool {
        self.judged_verdict(seq) == GuideVerdict::Pass
    }
}

/// A copy of the repair walk in `Nlidb::predict_guided_in`.
fn repair_walk(g: &mut JudgingGuide<'_>, ranked: &[Vec<usize>]) -> Option<Query> {
    let top = ranked.first().map(|t| g.judged_verdict(t));
    if matches!(top, Some(GuideVerdict::Pass | GuideVerdict::Vacuous)) {
        return ranked.first().and_then(|t| g.recovered_traced(t));
    }
    let fallback_runs =
        |g: &mut JudgingGuide<'_>| fallback(g.map).filter(|q| executes(g.rec, g.n, g.table, q));
    if top != Some(GuideVerdict::Error) {
        if let Some(q) = fallback_runs(g) {
            return Some(q);
        }
    }
    for want in [GuideVerdict::Pass, GuideVerdict::Vacuous] {
        for seq in ranked.iter().skip(1) {
            if g.judged_verdict(seq) == want {
                return g.recovered_traced(seq);
            }
        }
    }
    if let Some(q) = fallback_runs(g) {
        return Some(q);
    }
    let sa =
        g.m.out_vocab()
            .decode(ranked.first().map(Vec::as_slice).unwrap_or(&[]));
    recover_timed(g.rec, g.n, &sa, g.map).or_else(|| fallback(g.map))
}

/// `Nlidb::predict_in` / `predict_guided_in` for one question, layer by
/// layer.
fn predict_traced(
    rec: &mut Recorder,
    m: &Nlidb,
    ctx: &TableContext,
    table: &Table,
    q: &[String],
    guided: bool,
    n: &mut Counts,
) -> Outcome {
    let slots = detect_traced(rec, m, q, &ctx.detect, n);
    let opts = m.options();
    let ann = rec.timed("annotate", |_| {
        annotate(
            q,
            &slots,
            &ctx.detect.names,
            &opts.annotate,
            opts.model.max_headers,
        )
    });
    let beam = opts.model.beam_width;
    let mut guide = JudgingGuide {
        rec,
        n,
        m,
        map: &ann.map,
        table,
        memo: BTreeMap::new(),
    };
    let span = guide.rec.open_span("seq2seq.decode");
    let src: Vec<usize> = ann.tokens.iter().map(|t| m.in_vocab().id(t)).collect();
    let copy: Vec<Option<usize>> = ann
        .tokens
        .iter()
        .map(|t| m.out_vocab().copy_id_for_input_token(t))
        .collect();
    let ranked = match (src.is_empty(), m.translator()) {
        (true, _) => Vec::new(),
        (false, Translator::Gru(s)) if guided => {
            s.decode_beam_guided(&src, &copy, beam, &mut guide)
        }
        (false, Translator::Gru(s)) => s.decode_beam_ranked(&src, &copy, beam),
        (false, Translator::Transformer(t)) => vec![t.decode_greedy(&src, &copy)],
    };
    guide.rec.close_span(span);
    guide.n.decodes += 1;
    guide.n.candidates += ranked.len() as u64;
    guide.n.out_tokens += ranked.first().map_or(0, Vec::len) as u64;
    let sa = m
        .out_vocab()
        .decode(ranked.first().map(Vec::as_slice).unwrap_or(&[]));
    let answer = if guided {
        guide.n.guided += 1;
        repair_walk(&mut guide, &ranked)
    } else {
        recover_timed(guide.rec, guide.n, &sa, &ann.map).or_else(|| fallback(&ann.map))
    };
    Outcome { slots, sa, answer }
}

/// `ServeEngine::serve` for one request, layer by layer: group by table
/// fingerprint, resolve cache hits, build one context per group with
/// misses, predict each distinct miss, insert.
fn replay_request(
    rec: &mut Recorder,
    m: &Nlidb,
    plan: &Plan,
    op: &Op,
    cache: &mut PredictionCache,
    n: &mut Counts,
    checks: &mut Vec<Check>,
) {
    let engine = rec.open_span("engine");
    let mut groups: Vec<(u64, usize, Vec<usize>)> = Vec::new();
    for &q in op.questions() {
        let Some(question) = plan.questions.get(q) else {
            continue;
        };
        let Some(table) = plan.tables.get(question.table) else {
            continue;
        };
        let fp = rec.timed("storage.fingerprint", |_| table.fingerprint());
        n.rows_hashed += table.num_rows() as u64;
        match groups.iter_mut().find(|g| g.0 == fp) {
            Some(g) => g.2.push(q),
            None => groups.push((fp, question.table, vec![q])),
        }
    }
    n.groups += groups.len() as u64;
    for (fp, t, qs) in groups {
        let mut misses: Vec<(CacheKey, usize)> = Vec::new();
        for q in qs {
            let Some(question) = plan.questions.get(q) else {
                continue;
            };
            let key = CacheKey {
                fingerprint: fp,
                question: question.tokens.clone(),
                guided: question.guided,
            };
            if cache.get(&key).is_none() && !misses.iter().any(|(k, _)| *k == key) {
                misses.push((key, q));
            }
        }
        let Some(table) = plan.tables.get(t) else {
            continue;
        };
        if misses.is_empty() {
            continue;
        }
        let ctx = Arc::new(rec.timed("core.table_context", |rec| {
            table_context_traced(rec, m, table, n)
        }));
        for (key, q) in misses {
            let Some(question) = plan.questions.get(q) else {
                continue;
            };
            let outcome = predict_traced(rec, m, &ctx, table, &question.tokens, question.guided, n);
            cache.insert(key, outcome.answer.clone());
            checks.push(Check {
                question: q,
                ctx: Arc::clone(&ctx),
                outcome,
            });
        }
    }
    rec.close_span(engine);
}

/// Whether the replay reproduced the program's own answer for a check.
fn agrees(m: &Nlidb, plan: &Plan, c: &Check) -> bool {
    let (Some(question), Some(table)) = (plan.questions.get(c.question), plan.table_of(c.question))
    else {
        return false;
    };
    let q = &question.tokens;
    let answer = match question.guided {
        true => m.predict_guided_in(q, &c.ctx, table),
        false => m.predict_in(q, &c.ctx),
    };
    m.detector.detect_in(q, &c.ctx.detect) == c.outcome.slots
        && m.predict_annotated_in(q, &c.ctx).0 == c.outcome.sa
        && answer == c.outcome.answer
}

/// The head of the streams, interleaved across connections, until it
/// carries `questions` questions (registrations ride along in place).
fn replay_ops(plan: &Plan, questions: usize) -> Vec<&Op> {
    let mut cursors: Vec<_> = plan.streams.iter().map(|s| s.iter().cycle()).collect();
    let mut out = Vec::new();
    let mut carried = 0;
    // The cap only guards against a stream without questions.
    while carried < questions && out.len() < 4 * questions + 8 {
        for cur in cursors.iter_mut() {
            if let Some(op) = cur.next() {
                carried += op.questions().len();
                out.push(op);
            }
        }
    }
    out
}

/// A prediction cache warmed with the plan's warm-up, as the server's is.
fn warmed_cache(m: &Nlidb, plan: &Plan) -> PredictionCache {
    let mut engine = ServeEngine::with_cache(
        m,
        PredictionCache::new(ServerConfig::default().cache_capacity),
    );
    for op in &plan.warmup {
        engine.serve(&serve_requests(plan, op));
    }
    engine.into_cache()
}

fn serve_requests<'p>(plan: &'p Plan, op: &Op) -> Vec<ServeRequest<'p>> {
    op.questions()
        .iter()
        .filter_map(|&q| {
            let question = plan.questions.get(q)?;
            let table = plan.tables.get(question.table)?;
            Some(ServeRequest {
                question: &question.tokens,
                table,
                guided: question.guided,
            })
        })
        .collect()
}

fn span_json(s: &Span) -> Json {
    json!({
        "id": s.id as i64,
        "parent": s.parent as i64,
        "request": s.request as i64,
        "name": s.name,
        "start_ns": s.start_ns as i64,
        "end_ns": s.end_ns as i64,
    })
}

fn stats_delta(before: &ServerStats, after: &ServerStats) -> (f64, f64, f64) {
    let questions = after.questions.saturating_sub(before.questions) as f64;
    let batches = after.batches.saturating_sub(before.batches) as f64;
    let shed = |s: &ServerStats| s.tenants.iter().map(|t| t.shed).sum::<u64>();
    let hits = after.cache.hits.saturating_sub(before.cache.hits) as f64;
    let misses = after.cache.misses.saturating_sub(before.cache.misses) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    (
        ratio(questions, batches),
        shed(after).saturating_sub(shed(before)) as f64,
        ratio(hits, hits + misses),
    )
}

/// A traced run: set-up `reps` times, then the three replays of the
/// streams' first `questions` questions, and the per-layer metrics.
pub fn measure(
    plan: &Plan,
    model: &Model,
    reps: usize,
    questions: usize,
) -> Result<Report, String> {
    let (mut served, setups) = set_up_repeated(plan, &model.ckpt, reps)?;
    let threads = pool::num_threads();
    pool::set_threads(1);
    let result = replays(plan, model, &mut served.conns, questions);
    pool::set_threads(threads);
    served.stop();
    let r = result?;

    let requests = r.ops as f64;
    let dec = self_times(&r.decomposed);
    let tcp = self_times(&r.tcp);
    let total = |spans: &[Span], root: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == root)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum()
    };
    let dec_total = total(&r.decomposed, ROOT);
    let tcp_total = total(&r.tcp, TCP_ROOT);
    let roundtrip = tcp.get("serve.roundtrip").map_or(0.0, |t| t.self_ns as f64);
    let per = |x: f64| if requests > 0.0 { x / requests } else { 0.0 };
    let share = |x: f64, of: f64| if of > 0.0 { x / of } else { 0.0 };
    let ratio = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 0.0 };
    let n = &r.counts;

    let mut metrics = vec![
        Metric::new("setup.corpus_s", model.corpus_s, "s"),
        Metric::new("setup.train_s", model.train_s.unwrap_or(0.0), "s"),
        Metric::new(
            "setup.load_s",
            median_step(&setups, |t: &SetupTimes| t.load_s),
            "s",
        ),
        Metric::new(
            "setup.register_s",
            median_step(&setups, |t: &SetupTimes| t.register_s),
            "s",
        ),
        Metric::new(
            "setup.warmup_s",
            median_step(&setups, |t: &SetupTimes| t.warmup_s),
            "s",
        ),
    ];
    let mut layer = |name: &str, calls: f64, self_ns: f64, of: f64| {
        metrics.push(Metric::new(
            &format!("{name}.calls"),
            per(calls),
            "1/request",
        ));
        metrics.push(Metric::new(
            &format!("{name}.self_ms"),
            per(self_ns) / 1e6,
            "ms",
        ));
        metrics.push(Metric::new(
            &format!("{name}.share"),
            share(self_ns, of),
            "fraction",
        ));
    };
    let serve_calls = tcp.get("serve.roundtrip").map_or(0, |t| t.calls) as f64;
    layer("serve", serve_calls, roundtrip - r.untraced_ns, tcp_total);
    let codec =
        ["protocol.encode", "protocol.decode"].map(|k| tcp.get(k).copied().unwrap_or_default());
    layer(
        "protocol",
        codec.iter().map(|t| t.calls as f64).sum(),
        codec.iter().map(|t| t.self_ns as f64).sum(),
        tcp_total,
    );
    for name in MODEL_LAYERS {
        let t = dec.get(name).copied().unwrap_or_default();
        layer(name, t.calls as f64, t.self_ns as f64, dec_total);
    }
    let covered: f64 = dec
        .iter()
        .filter(|(k, _)| **k != ROOT)
        .map(|(_, t)| t.self_ns as f64)
        .sum();
    let (batch_size, shed, hit_ratio) = stats_delta(&r.before, &r.after);
    metrics.extend([
        Metric::new("serve.batch_size", batch_size, "questions/batch"),
        Metric::new("serve.roundtrip_ms", per(roundtrip) / 1e6, "ms"),
        Metric::new("serve.shed", shed, "count"),
        Metric::new("protocol.frame_bytes", per(r.frame_bytes as f64), "bytes"),
        Metric::new("protocol.register_decode_ms", r.register_decode_ms, "ms"),
        Metric::new("cache.hit_ratio", hit_ratio, "fraction"),
        Metric::new("engine.groups", per(n.groups as f64), "1/request"),
        Metric::new(
            "storage.fingerprint.rows",
            per(n.rows_hashed as f64),
            "rows/request",
        ),
        Metric::new(
            "mention.adversarial.kept_ratio",
            ratio(n.kept, n.localizations),
            "fraction",
        ),
        Metric::new(
            "seq2seq.out_tokens",
            ratio(n.out_tokens, n.decodes),
            "tokens",
        ),
        Metric::new(
            "seq2seq.candidates",
            ratio(n.candidates, n.decodes),
            "count",
        ),
        Metric::new(
            "sqlir.recover.fail_ratio",
            ratio(n.recover_fails, n.recovers),
            "fraction",
        ),
        Metric::new("guide.verdicts", ratio(n.verdicts, n.guided), "1/question"),
        Metric::new("guide.used_ratio", ratio(n.guided, n.verdicts), "fraction"),
        Metric::new(
            "storage.rows_scanned",
            per(n.rows_scanned as f64),
            "rows/request",
        ),
        Metric::new(
            "trace.overhead",
            share(dec_total, r.untraced_ns) - 1.0,
            "fraction",
        ),
        // Nothing computed (an all-hit replay) means nothing disagreed.
        Metric::new(
            "trace.agree",
            if r.checked == 0 {
                1.0
            } else {
                ratio(r.agreed, r.checked)
            },
            "fraction",
        ),
        Metric::new("trace.coverage", share(covered, dec_total), "fraction"),
    ]);

    // A disagreement does not fail the run: `trace.agree` below 1 says the
    // replay's copies of the program's glue have drifted and its layer
    // times no longer describe the program, not that an answer is wrong.
    let info = vec![
        Metric::new("replay.requests", requests, "count"),
        Metric::new("replay.computed", r.checked as f64, "count"),
        Metric::new("replay.untraced_ms", r.untraced_ns / 1e6, "ms"),
        Metric::new("replay.decomposed_ms", dec_total / 1e6, "ms"),
        Metric::new("replay.tcp_ms", tcp_total / 1e6, "ms"),
    ];
    let record = json!({
        "decomposed": Json::Arr(r.decomposed.iter().map(span_json).collect()),
        "tcp": Json::Arr(r.tcp.iter().map(span_json).collect()),
    });
    Ok(Report {
        attempted: r.attempted,
        failed: r.failed,
        problems: r.problems,
        metrics,
        info,
        record,
    })
}

/// Raw results of the three replays.
struct Replays {
    ops: usize,
    untraced_ns: f64,
    decomposed: Vec<Span>,
    tcp: Vec<Span>,
    counts: Counts,
    checked: u64,
    agreed: u64,
    before: ServerStats,
    after: ServerStats,
    frame_bytes: usize,
    register_decode_ms: f64,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

/// The three replays, interleaved request by request so that drift in
/// the host's speed hits all three alike. The agreement check runs
/// after all three, outside every timed span.
fn replays(
    plan: &Plan,
    model: &Model,
    conns: &mut [Conn],
    questions: usize,
) -> Result<Replays, String> {
    let m = &model.reference;
    let ops = replay_ops(plan, questions);
    let conn = conns.first_mut().ok_or("no connection")?;
    let mut engine = ServeEngine::with_cache(m, warmed_cache(m, plan));
    let mut cache = warmed_cache(m, plan);
    let (mut dec, mut tcp) = (Recorder::new(), Recorder::new());
    let mut counts = Counts::default();
    let (mut untraced_ns, mut asks, mut checked, mut agreed) = (0.0, 0u32, 0u64, 0u64);
    let (mut frame_bytes, mut attempted, mut failed) = (0usize, 0u64, 0u64);
    let mut problems = Vec::new();
    let mut register_frames = Vec::new();
    let before = server_stats(conn)?;
    for (i, op) in ops.iter().enumerate() {
        attempted += 1;
        let req = wire_request(plan, i as i64, op)?;
        if let Op::Register(_) = op {
            // Only the server keeps a catalog; the in-process replays
            // read the plan's tables directly.
            let frame = encode_frame(&req.to_json());
            let resp = parse_response(conn.exchange_frame(&frame)?)?;
            register_frames.push(frame);
            if let Err(f) = check_reply(plan, op, resp) {
                failed += 1;
                problems.push(format!("replay request {i}: {}", f.reason));
            }
            continue;
        }

        let reqs = serve_requests(plan, op);
        let mut checks = Vec::new();
        let mut resp = None;
        // Whichever replay runs a request first pays for loading its table
        // and the model into the processor caches. Rotating the order
        // spreads that cost evenly over the three, so neither `serve`
        // (round trip minus engine time) nor `trace.overhead` inherits it.
        for step in 0..3 {
            match (step + asks as usize) % 3 {
                0 => {
                    let t = Instant::now();
                    std::hint::black_box(engine.serve(&reqs));
                    untraced_ns += t.elapsed().as_nanos() as f64;
                }
                1 => {
                    dec.request = asks;
                    let root = dec.open_span(ROOT);
                    replay_request(&mut dec, m, plan, op, &mut cache, &mut counts, &mut checks);
                    dec.close_span(root);
                }
                _ => {
                    tcp.request = asks;
                    let root = tcp.open_span(TCP_ROOT);
                    let frame = tcp.timed("protocol.encode", |_| encode_frame(&req.to_json()));
                    let rt = tcp.open_span("serve.roundtrip");
                    let line = conn.exchange_frame(&frame)?.to_string();
                    tcp.close_span(rt);
                    resp = Some(tcp.timed("protocol.decode", |_| parse_response(&line))?);
                    tcp.close_span(root);
                    frame_bytes += frame.len() + line.len();
                }
            }
        }
        for c in &checks {
            checked += 1;
            agreed += u64::from(agrees(m, plan, c));
        }
        if let Some(Err(f)) = resp.map(|r| check_reply(plan, op, r)) {
            failed += 1;
            problems.push(format!("replay request {i}: {}", f.reason));
        }
        asks += 1;
    }
    let after = server_stats(conn)?;

    // Register frames the run sends: the replay's own, else set-up's.
    if register_frames.is_empty() {
        for &t in plan.setup_tables.iter().take(8) {
            register_frames.push(encode_frame(
                &wire_request(plan, 0, &Op::Register(t))?.to_json(),
            ));
        }
    }
    let mut decode_ns = 0.0;
    for frame in &register_frames {
        let t = Instant::now();
        let decoded = nlidb_json::decode_frame(frame).map_err(|e| e.to_string())?;
        std::hint::black_box(Request::decode(&decoded).map_err(|e| e.message)?);
        decode_ns += t.elapsed().as_nanos() as f64;
    }
    let register_decode_ms = decode_ns / register_frames.len().max(1) as f64 / 1e6;

    Ok(Replays {
        ops: asks as usize,
        untraced_ns,
        decomposed: dec.spans,
        tcp: tcp.spans,
        counts,
        checked,
        agreed,
        before,
        after,
        frame_bytes,
        register_decode_ms,
        attempted,
        failed,
        problems,
    })
}
