//! Micro-benchmarks for every pipeline component: the latency numbers
//! behind each experiment table's row (tokenization → annotation →
//! classifier inference → adversarial influence → seq2seq decode → SQL
//! execution → canonical matching).
//!
//! Dependency-free harness (`harness = false`): each benchmark warms up,
//! then runs timed batches with `std::time::Instant` and reports the
//! median per-iteration latency. Results print as a table and are written
//! to `results/bench_components.json` in the same shape as the
//! experiment records.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use nlidb_core::mention::adversarial::influence;
use nlidb_core::mention::classifier::{training_pairs, MentionClassifier};
use nlidb_core::mention::value::ValueIndex;
use nlidb_core::serve::{PredictionCache, ServeEngine, ServeRequest};
use nlidb_core::vocab::build_input_vocab;
use nlidb_core::{ModelConfig, Nlidb, NlidbOptions};
use nlidb_data::stream::{write_corpus, CorpusReader};
use nlidb_data::question::realize_question;
use nlidb_data::wikisql::{gen_query, gen_table, generate, WikiSqlConfig};
use nlidb_data::{CorpusPlan, NoiseConfig, ShardedCorpusConfig};
use nlidb_json::json;
use nlidb_sqlir::{canonicalize, parse_sql, query_match};
use nlidb_storage::{execute, Table, TableStats, Value};
use nlidb_tensor::{math, pool, set_matmul_kernel, Graph, MatmulKernel, Rng, Tensor};
use nlidb_text::{tokenize, DepTree, EmbeddingSpace};

/// One benchmark's measurement.
struct Record {
    name: &'static str,
    median_ns: f64,
    /// Fastest batch: the statistic the bench-regression gate compares,
    /// because the minimum is far less sensitive to scheduler noise on a
    /// loaded host than the median of a handful of smoke batches.
    min_ns: f64,
    iters: u64,
}

/// `NLIDB_BENCH_SMOKE=1` shrinks batch counts and calibration budgets so
/// CI / verify.sh can confirm the bench binary end-to-end in seconds.
fn smoke() -> bool {
    std::env::var_os("NLIDB_BENCH_SMOKE").is_some()
}

/// Timed batches per benchmark.
fn batches() -> usize {
    if smoke() {
        5
    } else {
        15
    }
}

/// Warm-up and batch-size calibration: the number of calls to `f` that
/// takes at least ~1 ms (200 µs in smoke mode), so timer overhead stays
/// negligible without a fixed iteration count.
fn calibrate<F: FnMut()>(f: &mut F) -> u64 {
    let min_batch_ns = if smoke() { 200e3 } else { 1000e3 };
    let mut batch: u64 = 1;
    while batch < 1 << 20 && time_batch(f, batch) * (batch as f64) < min_batch_ns {
        batch *= 2;
    }
    batch
}

/// Per-call nanoseconds of one batch of `batch` calls to `f`.
fn time_batch<F: FnMut()>(f: &mut F, batch: u64) -> f64 {
    let t = Instant::now();
    for _ in 0..batch {
        f();
    }
    t.elapsed().as_nanos() as f64 / batch as f64
}

/// Prints and records one benchmark from its per-batch samples.
fn record(name: &'static str, records: &mut Vec<Record>, mut samples: Vec<f64>, batch: u64) {
    samples.sort_by(|a, b| a.total_cmp(b));
    let median_ns = samples[samples.len() / 2];
    let min_ns = samples[0];
    let iters = batch * samples.len() as u64;
    println!("{name:<32} {:>12} {:>12} {:>10}", format_ns(median_ns), format_ns(min_ns), iters);
    records.push(Record { name, median_ns, min_ns, iters });
}

/// Times `f`, recording the median and minimum per-iteration nanoseconds
/// over [`batches`] batches.
fn bench<F: FnMut()>(name: &'static str, records: &mut Vec<Record>, mut f: F) {
    let batch = calibrate(&mut f);
    let samples = (0..batches()).map(|_| time_batch(&mut f, batch)).collect();
    record(name, records, samples, batch);
}

/// [`bench`] for two benchmarks whose `min_ns` the gate compares as a
/// ratio (`ratio_to`): their batches alternate, so both sides see the
/// same host load instead of two different moments of it, and there are
/// three times as many, so each minimum is less likely to be a loaded one.
fn bench_pair<A: FnMut(), B: FnMut()>(
    names: [&'static str; 2],
    records: &mut Vec<Record>,
    mut a: A,
    mut b: B,
) {
    let (batch_a, batch_b) = (calibrate(&mut a), calibrate(&mut b));
    let (mut samples_a, mut samples_b) = (Vec::new(), Vec::new());
    for _ in 0..3 * batches() {
        samples_a.push(time_batch(&mut a, batch_a));
        samples_b.push(time_batch(&mut b, batch_b));
    }
    record(names[0], records, samples_a, batch_a);
    record(names[1], records, samples_b, batch_b);
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else {
        format!("{:.2} ms", ns / 1_000_000.0)
    }
}

fn bench_text(records: &mut Vec<Record>) {
    let q = "which film directed by jerzy antczak did piotr adamczyk star in ?";
    bench("text/tokenize", records, || {
        black_box(tokenize(black_box(q)));
    });
    let toks = tokenize(q);
    bench("text/dep_parse", records, || {
        black_box(DepTree::parse(black_box(&toks)));
    });
    let space = EmbeddingSpace::with_builtin_lexicon(24, 7);
    bench("text/embed_phrase", records, || {
        black_box(space.phrase_vector(black_box(&toks)));
    });
}

fn bench_sql(records: &mut Vec<Record>) {
    let ds = generate(&WikiSqlConfig::tiny(7));
    let e = &ds.train[0];
    let names = e.table.column_names();
    let sql = e.query.to_sql(&names);
    bench("sql/parse", records, || {
        black_box(parse_sql(black_box(&sql), &names).ok());
    });
    bench("sql/canonicalize", records, || {
        black_box(canonicalize(black_box(&e.query)));
    });
    bench("sql/query_match", records, || {
        black_box(query_match(black_box(&e.query), black_box(&e.query)));
    });
    bench("sql/execute", records, || {
        black_box(execute(black_box(&e.table), black_box(&e.query)).ok());
    });
}

/// The per-table context a cache miss builds, on a corpus-shaped
/// 1,500-row table (the middle of the serving benchmark's large tables):
/// the column statistics and the content index. Each is timed in
/// alternating batches beside the loop it replaced, which visits every
/// cell, and the gate holds it to a ratio of that loop. The fixed
/// [`calibration`] loop does not do here: on a shared 2-vCPU host,
/// allocation-heavy code ran up to 1.8x slower in some processes than
/// in others while that loop held its speed, so the index's ratio to it
/// overlapped between the two algorithms.
fn bench_table_context(records: &mut Vec<Record>) {
    let table = gen_table("bench_1500", &mut Rng::seed_from_u64(0x1500), (1500, 1500)).table;
    let space = EmbeddingSpace::with_builtin_lexicon(24, 7);
    bench_pair(
        ["storage/table_stats_1500", "storage/table_stats_1500_per_cell"],
        records,
        || {
            black_box(TableStats::compute(black_box(&table), &space));
        },
        || {
            black_box(per_cell_table_stats(black_box(&table), &space));
        },
    );
    bench_pair(
        ["mention/value_index_1500", "mention/value_index_1500_every_cell"],
        records,
        || {
            black_box(ValueIndex::build(black_box(&table)));
        },
        || {
            black_box(every_cell_value_index(black_box(&table)));
        },
    );
}

/// The column statistics as computed before distinct cells were
/// memoized: every non-null cell tokenized, embedded and canonicalized
/// on its own (centroid sums and distinct canonical texts per column).
fn per_cell_table_stats(table: &Table, space: &EmbeddingSpace) -> Vec<(Vec<f32>, usize)> {
    (0..table.num_cols())
        .map(|c| {
            let mut centroid = vec![0.0f32; space.dim()];
            let mut distinct = std::collections::HashSet::new();
            for cell in table.column_values(c) {
                if matches!(cell, Value::Null) {
                    continue;
                }
                let tokens = tokenize(&cell.to_string());
                for (a, b) in centroid.iter_mut().zip(space.phrase_vector(&tokens)) {
                    *a += b;
                }
                black_box(cell.as_number());
                distinct.insert(cell.canonical_text());
            }
            (centroid, distinct.len())
        })
        .collect()
}

/// The content index's buckets as built before repeated cells were
/// skipped: every cell canonicalized, squeezed and looked up.
fn every_cell_value_index(table: &Table) -> BTreeMap<String, BTreeMap<usize, String>> {
    let mut buckets: BTreeMap<String, BTreeMap<usize, String>> = BTreeMap::new();
    for c in 0..table.num_cols() {
        for v in table.column_values(c) {
            let canon = v.canonical_text();
            buckets.entry(canon.replace(' ', "")).or_default().entry(c).or_insert(canon);
        }
    }
    buckets
}

/// The sharded corpus plane: generating one 64-question shard from a
/// compiled plan (the per-worker unit of the `write_corpus` fan-out), and
/// streaming the same shard back from disk through the `CorpusReader`
/// (JSONL parse + table-pool dedup — the out-of-core training read path).
fn bench_data(records: &mut Vec<Record>) {
    let mut cfg = ShardedCorpusConfig::tiny(7);
    cfg.base.train_tables = 16;
    cfg.base.questions_per_table = 8;
    cfg.tables_per_shard = 8;
    let plan = CorpusPlan::compile(cfg);
    bench("data/gen_shard_64q", records, || {
        black_box(plan.gen_shard(black_box(0)));
    });
    let dir = std::env::temp_dir().join(format!("nlidb-bench-corpus-{}", std::process::id()));
    write_corpus(&plan, &dir).expect("write bench corpus");
    let mut reader = CorpusReader::open(&dir).expect("open bench corpus");
    bench_pair(
        ["data/stream_read_64q", "calibration/stream_read_64q"],
        records,
        || {
            black_box(reader.read_shard(black_box(0)).expect("read bench shard").len());
        },
        || calibration(1 << 21),
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A fixed loop that no library change touches: FNV-1a over `len` bytes of
/// a freshly allocated buffer. A row whose code this repository does not
/// make faster or slower on its own is gated as a ratio to it, timed in
/// alternating batches, so host load moves both sides of the ratio alike.
fn calibration(len: usize) {
    let bytes: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(31)).collect();
    let hash = black_box(&bytes)
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3));
    black_box(hash);
}

fn bench_models(records: &mut Vec<Record>) {
    let cfg = ModelConfig::tiny();
    let ds = generate(&WikiSqlConfig::tiny(7));
    let vocab = build_input_vocab(&ds, &cfg);
    let space = EmbeddingSpace::with_builtin_lexicon(cfg.word_dim, 7);
    let mut clf = MentionClassifier::new(&cfg, vocab, &space);
    let pairs = training_pairs(&ds.train[..8]);
    clf.train(&pairs, 1);
    let q = tokenize("which film directed by jerzy antczak did piotr adamczyk star in ?");
    let col = tokenize("director");
    // The second row of each pair is what the first cost before frozen
    // tapes: the same forward and sigmoid on a training tape, which copies
    // every binding; and the forward, BCE and a backward into every
    // parameter on a training tape. The gate holds each first row to a
    // ratio of its partner.
    bench_pair(
        ["mention/classifier_predict", "mention/classifier_forward_training_tape"],
        records,
        || {
            black_box(clf.predict(black_box(&q), black_box(&col)));
        },
        || {
            let mut g = Graph::new();
            let out = clf.forward(&mut g, black_box(&q), black_box(&col));
            let p = g.sigmoid(out.logit);
            black_box(g.value(p).scalar());
        },
    );
    bench_pair(
        ["mention/adversarial_influence", "mention/influence_training_tape"],
        records,
        || {
            black_box(influence(black_box(&clf), &q, &col));
        },
        || {
            let mut g = Graph::new();
            let out = clf.forward(&mut g, black_box(&q), &col);
            let loss = g.bce_with_logits(out.logit, Tensor::row_vector(&[1.0]));
            g.backward(loss);
            black_box(g.grad(out.word_nodes).map(Tensor::norm));
        },
    );
}

/// The matmul kernels: a 256×256 product through the blocked kernel
/// against the same product under the scalar reference kernel, and a
/// one-row `A·Bᵀ` against transpose-then-multiply, each pair timed in
/// alternating batches (the gate holds the first of a pair to a ratio of
/// the second); and the decode-time vocab projection shape, a single-row
/// product, which always runs the scalar row kernel.
fn bench_matmul(records: &mut Vec<Record>) {
    let mut rng = Rng::seed_from_u64(0xBE7C4);
    let mut mat = |rows: usize, cols: usize| {
        let data = (0..rows * cols).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        Tensor::from_vec(rows, cols, data)
    };
    let a = mat(256, 256);
    let b = mat(256, 256);
    let product = |kernel: MatmulKernel| {
        set_matmul_kernel(kernel);
        black_box(black_box(&a).matmul(black_box(&b)));
    };
    bench_pair(
        ["tensor/matmul_256", "tensor/matmul_256_reference"],
        records,
        || product(MatmulKernel::Auto),
        || product(MatmulKernel::Reference),
    );
    set_matmul_kernel(MatmulKernel::Auto);

    // A one-row `g · Wᵀ`, the shape of an LSTM gate's input gradient in
    // every localization backward, against the product it replaced:
    // transpose, then multiply.
    let (g, w) = (mat(1, 256), mat(64, 256));
    let mut out = Tensor::zeros(1, 64);
    bench_pair(
        ["tensor/matmul_bt_1row", "tensor/matmul_bt_1row_transpose"],
        records,
        || {
            black_box(&g).matmul_bt_into(black_box(&w), &mut out);
            black_box(&out);
        },
        || {
            black_box(black_box(&g).matmul(&black_box(&w).transpose()));
        },
    );

    let data = (0..512).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let v = Tensor::from_vec(1, 512, data);
    let data = (0..512 * 1024).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let proj = Tensor::from_vec(512, 1024, data);
    bench("tensor/matmul_1row_serial", records, || {
        black_box(black_box(&v).matmul(black_box(&proj)));
    });
}

/// The in-tree `tanh` over one answered question's worth of elements
/// (42,546) against `f32::tanh` (the host libm) over the same values,
/// timed in alternating batches.
fn bench_tanh(records: &mut Vec<Record>) {
    let mut rng = Rng::seed_from_u64(0x7a4e);
    let xs: Vec<f32> = (0..42_546).map(|_| rng.normal(0.0, 2.0)).collect();
    let mut out = vec![0.0f32; xs.len()];
    let mut libm_out = vec![0.0f32; xs.len()];
    bench_pair(
        ["tensor/tanh_42k", "tensor/tanh_42k_libm"],
        records,
        || {
            out.copy_from_slice(black_box(&xs));
            math::tanh_slice(&mut out);
            black_box(&out);
        },
        || {
            for (o, &x) in libm_out.iter_mut().zip(black_box(&xs)) {
                *o = x.tanh();
            }
            black_box(&libm_out);
        },
    );
}

/// Serial-vs-parallel entries for the pool's training fan-out: one full
/// minibatch train step of the mention classifier (batch of 8 examples),
/// whose examples run across the pool. The "parallel" variant pins the
/// pool to at least two threads so the fan-out path is always exercised;
/// on a multi-core host it uses every available core.
fn bench_threading(records: &mut Vec<Record>) {
    let mut cfg = ModelConfig::tiny();
    cfg.batch_size = 8;
    let ds = generate(&WikiSqlConfig::tiny(7));
    let vocab = build_input_vocab(&ds, &cfg);
    let space = EmbeddingSpace::with_builtin_lexicon(cfg.word_dim, 7);
    let mut pairs = training_pairs(&ds.train[..8]);
    pairs.truncate(8);
    // One epoch over 8 examples at batch_size 8 = exactly one fan-out +
    // reduction + optimizer step.
    let mut clf = MentionClassifier::new(&cfg, vocab.clone(), &space);
    pool::set_threads(1);
    bench("train/mention_step_serial", records, || {
        black_box(clf.train(black_box(&pairs), 1));
    });
    let mut clf = MentionClassifier::new(&cfg, vocab, &space);
    pool::set_threads(pool::default_threads().max(2));
    bench("train/mention_step_parallel", records, || {
        black_box(clf.train(black_box(&pairs), 1));
    });
    pool::set_threads(pool::default_threads());
}

fn bench_pipeline(records: &mut Vec<Record>) {
    let mut gen_cfg = WikiSqlConfig::tiny(7);
    gen_cfg.questions_per_table = 4;
    let ds = generate(&gen_cfg);
    let opts = NlidbOptions { model: ModelConfig::tiny(), ..NlidbOptions::default() };
    let nlidb = Nlidb::train(&ds, opts);
    let e = &ds.dev[0];
    bench("pipeline/annotate_question", records, || {
        black_box(nlidb.annotate_question(black_box(&e.question), &e.table));
    });
    bench("pipeline/predict_end_to_end", records, || {
        black_box(nlidb.predict(black_box(&e.question), &e.table));
    });
    // The cost of execution guidance: the same end-to-end prediction
    // with guidance on. Its delta over `pipeline/predict_end_to_end`
    // (guidance off) is the guide's verdict work — recovering and
    // executing beam candidates against the table (memoized per sequence
    // within one decode).
    bench("decode/greedy_vs_guided_on", records, || {
        black_box(nlidb.predict_guided(black_box(&e.question), &e.table));
    });
}

/// Batched serving: a repeated-table workload (64 requests cycling over 8
/// questions against a handful of tables). `batch_1_cold` is the
/// per-example baseline through a cache-less engine; `batch_64_cold`
/// shows the per-table context amortization and within-batch dedup;
/// `batch_64_warm` serves the whole batch out of a warmed cache. Here we
/// just record the numbers; `tests/end_to_end.rs` pins that a warmed
/// cache answers a repeated batch entirely from hits. The pairs after
/// them are gated: two misses on two tables in one fan-out against one
/// after the other, and misses on a large table with its statistics
/// resident against the same misses through fresh engines.
fn bench_serve(records: &mut Vec<Record>) {
    let mut gen_cfg = WikiSqlConfig::tiny(7);
    gen_cfg.questions_per_table = 4;
    let ds = generate(&gen_cfg);
    let opts = NlidbOptions { model: ModelConfig::tiny(), ..NlidbOptions::default() };
    let nlidb = Nlidb::train(&ds, opts);
    let pool_size = ds.dev.len().min(8);
    let reqs: Vec<ServeRequest<'_>> = (0..64)
        .map(|i| {
            let e = &ds.dev[i % pool_size];
            ServeRequest { question: &e.question, table: &e.table, guided: false }
        })
        .collect();
    bench("serve/batch_1_cold", records, || {
        let mut engine = ServeEngine::with_cache(&nlidb, PredictionCache::new(0));
        black_box(engine.serve(black_box(&reqs[..1])));
    });
    bench("serve/batch_64_cold", records, || {
        let mut engine = ServeEngine::with_cache(&nlidb, PredictionCache::new(0));
        black_box(engine.serve(black_box(&reqs)));
    });
    let mut warm = ServeEngine::with_cache(&nlidb, PredictionCache::new(1024));
    black_box(warm.serve(&reqs));
    bench_pair(
        ["serve/batch_64_warm", "calibration/batch_64_warm"],
        records,
        || {
            black_box(warm.serve(black_box(&reqs)));
        },
        || calibration(1 << 17),
    );

    // One uncached question on each of two tables: at pool width 2 both
    // misses run in one fan-out, at width 1 one after the other.
    let first = &ds.dev[0];
    let second = ds
        .dev
        .iter()
        .find(|e| e.table.fingerprint() != first.table.fingerprint())
        .expect("two dev tables");
    let two_tables = [first, second]
        .map(|e| ServeRequest { question: &e.question, table: &e.table, guided: false });
    let serve_at = |threads: usize| {
        pool::set_threads(threads);
        let mut engine = ServeEngine::with_cache(&nlidb, PredictionCache::new(0));
        black_box(engine.serve(black_box(&two_tables)));
    };
    let parallel = pool::default_threads().max(2);
    bench_pair(
        ["serve/miss_2_tables", "serve/miss_2_tables_serial"],
        records,
        || serve_at(parallel),
        || serve_at(1),
    );
    pool::set_threads(pool::default_threads());

    // Two distinct questions on the 1,500-row table of the table-context
    // rows, each served alone: through one engine whose cache already
    // holds the table's statistics, and through a fresh engine per
    // question, which computes them. A cache of one prediction makes
    // every serve on both sides a miss.
    let large = gen_table("bench_1500", &mut Rng::seed_from_u64(0x1500), (1500, 1500));
    let names = large.table.column_names();
    let mut rng = Rng::seed_from_u64(0x1501);
    let mut questions: Vec<Vec<String>> = Vec::new();
    while questions.len() < 2 {
        let query = gen_query(&large, 0.15, &mut rng);
        let noise = NoiseConfig::default();
        let (question, _) = realize_question(&large.archetypes, &names, &query, &noise, &mut rng);
        if !questions.contains(&question) {
            questions.push(question);
        }
    }
    let asks: Vec<[ServeRequest<'_>; 1]> = questions
        .iter()
        .map(|q| [ServeRequest { question: q, table: &large.table, guided: false }])
        .collect();
    let mut resident = ServeEngine::with_cache(&nlidb, PredictionCache::new(1));
    resident.serve(&asks[1]);
    bench_pair(
        ["serve/miss_1500_resident_stats", "serve/miss_1500_fresh_engine"],
        records,
        || {
            for ask in &asks {
                black_box(resident.serve(black_box(ask)));
            }
        },
        || {
            for ask in &asks {
                let mut fresh = ServeEngine::with_cache(&nlidb, PredictionCache::new(1));
                black_box(fresh.serve(black_box(ask)));
            }
        },
    );
}

/// The TCP serving layer end to end: one `ask` round trip over loopback
/// against a warm cache (protocol encode + socket + micro-batch + cache
/// hit + response decode), and a 16-deep pipelined burst amortizing the
/// per-round-trip latency.
fn bench_server(records: &mut Vec<Record>) {
    use std::io::{BufRead, BufReader, Write};

    let mut gen_cfg = WikiSqlConfig::tiny(7);
    gen_cfg.questions_per_table = 4;
    let ds = generate(&gen_cfg);
    let opts = NlidbOptions { model: ModelConfig::tiny(), ..NlidbOptions::default() };
    let nlidb = Nlidb::train(&ds, opts);
    let server = nlidb_serve::Server::start(nlidb, nlidb_serve::ServerConfig::default())
        .expect("start bench server");

    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect bench server");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut roundtrip = |frames: &str, n: usize| {
        stream.write_all(frames.as_bytes()).and_then(|()| stream.flush()).expect("write");
        let mut line = String::new();
        for _ in 0..n {
            line.clear();
            assert!(reader.read_line(&mut line).expect("read") > 0, "server closed");
        }
        black_box(line.len())
    };

    let e = &ds.dev[0];
    let table = (*e.table).clone();
    let fp = table.fingerprint();
    let reg = nlidb_serve::Request::new(0, "bench", nlidb_serve::Op::RegisterTable { table });
    roundtrip(&nlidb_json::encode_frame(&nlidb_json::ToJson::to_json(&reg)), 1);
    let ask = nlidb_serve::Request::new(
        1,
        "bench",
        nlidb_serve::Op::Ask(nlidb_serve::AskItem {
            fingerprint: fp,
            question: e.question.clone(),
            guided: false,
        }),
    );
    let ask_frame = nlidb_json::encode_frame(&nlidb_json::ToJson::to_json(&ask));
    let burst: String = std::iter::repeat(ask_frame.as_str()).take(16).collect();

    bench("server/ask_roundtrip_warm", records, || {
        roundtrip(&ask_frame, 1);
    });
    bench("server/ask_pipelined_16", records, || {
        roundtrip(&burst, 16);
    });
    server.shutdown();
}

fn main() {
    println!("{:<32} {:>12} {:>12} {:>10}", "benchmark", "median", "min", "iters");
    println!("{}", "-".repeat(69));
    let mut records = Vec::new();
    bench_text(&mut records);
    bench_sql(&mut records);
    bench_table_context(&mut records);
    bench_data(&mut records);
    bench_models(&mut records);
    bench_matmul(&mut records);
    bench_tanh(&mut records);
    bench_threading(&mut records);
    bench_pipeline(&mut records);
    bench_serve(&mut records);
    bench_server(&mut records);
    let rows: Vec<nlidb_json::Json> = records
        .iter()
        .map(|r| {
            json!({"name": r.name, "median_ns": r.median_ns, "min_ns": r.min_ns, "iters": r.iters})
        })
        .collect();
    nlidb_bench::write_result("bench_components", &json!({"rows": rows}));
    nlidb_trace::write_if_enabled("bench_components");
}
