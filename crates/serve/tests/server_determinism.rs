//! The wire-determinism replay harness (`docs/PROTOCOL.md` §5): a fixed
//! request log is replayed against fresh servers under different
//! inference thread counts, connection counts, and micro-batch timings,
//! and every response line must be **byte-identical** across all
//! configurations. Also pins hot-swap semantics: a swap never drops
//! in-flight requests, a failed swap keeps the old model serving, and a
//! swap back to the same checkpoint reproduces the same answer bytes.

mod common;

use std::time::Duration;

use common::{pool_lock, system, RawClient};
use nlidb_core::Nlidb;
use nlidb_json::{encode_frame, ToJson};
use nlidb_serve::{AdmissionConfig, AskItem, Op, Reply, Request, Response, Server, ServerConfig};
use nlidb_tensor::pool;

/// The replay log. Requests carry their log index as `id`, so every
/// response body self-identifies and the comparison is order-proof.
/// Returns `(setup_len, log)`: the first `setup_len` entries are
/// registrations and must complete before the rest is replayed.
fn build_log() -> (usize, Vec<Request>) {
    let sys = system();
    let fps: Vec<u64> = sys.tables.iter().map(|t| t.fingerprint()).collect();
    let ask = |ti: usize, q: &[String]| {
        Op::Ask(AskItem { fingerprint: fps[ti], question: q.to_vec(), guided: false })
    };
    let ask_guided = |ti: usize, q: &[String]| {
        Op::Ask(AskItem { fingerprint: fps[ti], question: q.to_vec(), guided: true })
    };

    let mut log = vec![
        Request::new(0, "acme", Op::RegisterTable { table: sys.tables[0].clone() }),
        Request::new(1, "acme", Op::RegisterTable { table: sys.tables[1].clone() }),
    ];
    let setup_len = log.len();
    // Every question once…
    for (ti, q) in &sys.questions {
        log.push(Request::new(log.len() as i64, "acme", ask(*ti, q)));
    }
    // A hot swap to the same checkpoint mid-log: answers must not change,
    // whichever side of the swap an ask lands on.
    log.push(Request::new(
        log.len() as i64,
        "ops",
        Op::SwapCheckpoint { path: sys.ckpt.display().to_string() },
    ));
    // …then every other question again (cache-hit paths must yield the
    // same bytes as the original computation).
    for (ti, q) in sys.questions.iter().step_by(2) {
        log.push(Request::new(log.len() as i64, "acme", ask(*ti, q)));
    }
    // Mixed guided/unguided traffic: every third question again with
    // execution-guided decoding on — including questions already cached
    // unguided, so guided and unguided entries for the same
    // `(table, question)` must coexist and stay byte-stable.
    for (ti, q) in sys.questions.iter().step_by(3) {
        log.push(Request::new(log.len() as i64, "acme", ask_guided(*ti, q)));
    }
    // And a guided repeat (the guided cache-hit path).
    log.push(Request::new(
        log.len() as i64,
        "acme",
        ask_guided(sys.questions[0].0, &sys.questions[0].1),
    ));
    // A mixed batch spanning both tables plus a bogus fingerprint (the
    // per-item error path), with guided and unguided items side by side.
    log.push(Request::new(
        log.len() as i64,
        "acme",
        Op::Batch {
            items: vec![
                AskItem { fingerprint: fps[0], question: sys.questions[0].1.clone(), guided: false },
                AskItem { fingerprint: fps[0], question: sys.questions[0].1.clone(), guided: true },
                AskItem { fingerprint: fps[1], question: sys.questions[1].1.clone(), guided: true },
                AskItem { fingerprint: 0xdead_beef, question: vec!["nothing".into()], guided: false },
            ],
        },
    ));
    // A batch larger than the per-tenant admission cap: always shed, with
    // response bytes that depend on the id and tenant only.
    let flood = AskItem { fingerprint: fps[0], question: sys.questions[0].1.clone(), guided: false };
    let over_cap = AdmissionConfig::default().per_tenant + 1;
    log.push(Request::new(
        log.len() as i64,
        "flood",
        Op::Batch { items: vec![flood; over_cap] },
    ));
    // Tenancy: a stranger asking acme's table is `unknown_table`.
    log.push(Request::new(log.len() as i64, "intruder", ask(0, &sys.questions[0].1)));
    (setup_len, log)
}

/// Replays the log against a fresh server: registrations first on one
/// connection, then the rest round-robined over `conns` concurrent
/// connections. Returns the raw response lines, indexed like the log.
fn run_replay(cfg: ServerConfig, conns: usize) -> Vec<String> {
    let sys = system();
    let nlidb = Nlidb::load(&sys.ckpt).expect("load test checkpoint");
    let server = Server::start(nlidb, cfg).expect("start test server");
    let addr = server.addr();
    let (setup_len, log) = build_log();

    let mut out: Vec<String> = vec![String::new(); log.len()];
    {
        let mut setup = RawClient::connect(addr);
        for (i, req) in log[..setup_len].iter().enumerate() {
            out[i] = setup.roundtrip(req);
        }
    }

    let framed: Vec<(usize, String)> = log[setup_len..]
        .iter()
        .enumerate()
        .map(|(k, r)| (setup_len + k, encode_frame(&r.to_json())))
        .collect();
    let results: Vec<(usize, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let mine: Vec<(usize, String)> =
                    framed.iter().skip(c).step_by(conns).cloned().collect();
                s.spawn(move || {
                    let mut client = RawClient::connect(addr);
                    mine.into_iter()
                        .map(|(i, frame)| {
                            client.send_bytes(frame.as_bytes());
                            (i, client.recv_line())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("replay connection thread")).collect()
    });
    for (i, line) in results {
        out[i] = line;
    }
    server.shutdown();
    out
}

#[test]
fn replay_is_byte_identical_across_threads_connections_and_batching() {
    let _guard = pool_lock();
    let eager = ServerConfig {
        max_batch_questions: 1,
        linger: Duration::ZERO,
        ..ServerConfig::default()
    };
    let lingering = ServerConfig {
        max_batch_questions: 32,
        linger: Duration::from_millis(10),
        ..ServerConfig::default()
    };
    let mid = ServerConfig {
        max_batch_questions: 4,
        linger: Duration::from_millis(1),
        ..ServerConfig::default()
    };
    let runs: Vec<(&str, usize, usize, ServerConfig)> = vec![
        ("1 thread, 1 conn, batch=1", 1, 1, eager.clone()),
        ("N threads, 1 conn, batch=1", pool::default_threads(), 1, eager),
        ("1 thread, 4 conns, batch=32+linger", 1, 4, lingering),
        ("N threads, 3 conns, batch=4", pool::default_threads(), 3, mid),
    ];

    // Replayed with tracing on, so the server's instruments are pinned too.
    nlidb_trace::reset();
    nlidb_trace::set_enabled(true);
    let mut outputs: Vec<(&str, Vec<String>)> = Vec::new();
    for (label, threads, conns, cfg) in runs {
        pool::set_threads(threads);
        outputs.push((label, run_replay(cfg, conns)));
    }
    pool::set_threads(pool::default_threads());
    let snap = nlidb_trace::snapshot("replay");
    nlidb_trace::set_enabled(false);
    nlidb_trace::reset();

    let (ref_label, reference) = &outputs[0];
    // The log must be meaningful: real answers, a cache-hit region, the
    // hot swap, the per-item batch error, the shed over-cap batch, and the
    // tenancy rejection all present.
    let answers = reference.iter().filter(|l| l.contains("\"type\":\"answer\"")).count();
    assert!(answers >= 8, "reference produced too few answers ({answers}) to mean much");
    assert!(
        reference.iter().any(|l| l.contains("\"type\":\"swapped\"")),
        "the mid-log hot swap must succeed"
    );
    assert!(
        reference.iter().any(|l| l.contains("\"type\":\"batch\"")
            && l.contains("\"error\":{\"code\":\"unknown_table\"")),
        "batch example must carry its per-item error"
    );
    assert!(
        reference.iter().any(|l| l.contains("\"code\":\"overloaded\"")),
        "the over-cap batch must be shed"
    );
    assert!(
        reference.last().expect("nonempty log").contains("\"code\":\"unknown_table\""),
        "tenancy rejection missing from the log tail"
    );

    for (label, lines) in &outputs[1..] {
        assert_eq!(lines.len(), reference.len());
        for (i, (got, want)) in lines.iter().zip(reference).enumerate() {
            assert_eq!(
                got, want,
                "response {i} diverged between `{ref_label}` and `{label}`"
            );
        }
    }

    for name in ["server.batch", "server.request", "server.register", "server.swap"] {
        assert!(snap.get("spans").and_then(|s| s.get(name)).is_some(), "missing span {name}");
    }
    for name in [
        "server.connections",
        "server.requests",
        "server.questions",
        "server.batches",
        "server.shed",
        "server.errors",
        "server.registered",
        "server.swaps",
    ] {
        assert!(snap.get("counters").and_then(|c| c.get(name)).is_some(), "missing counter {name}");
    }
}

#[test]
fn hot_swap_is_seamless_and_failed_swap_keeps_the_old_model() {
    let _guard = pool_lock();
    pool::set_threads(1);
    let sys = system();
    let nlidb = Nlidb::load(&sys.ckpt).expect("load test checkpoint");
    let server = Server::start(nlidb, ServerConfig::default()).expect("start test server");
    let mut c = RawClient::connect(server.addr());

    let reg = c.roundtrip(&Request::new(0, "acme", Op::RegisterTable {
        table: sys.tables[0].clone(),
    }));
    assert!(reg.contains("\"type\":\"registered\""), "{reg}");

    let ask = Request::new(
        1,
        "acme",
        Op::Ask(AskItem {
            fingerprint: sys.tables[0].fingerprint(),
            question: sys.questions[0].1.clone(),
            guided: false,
        }),
    );
    let before = c.roundtrip(&ask);
    assert!(before.contains("\"type\":\"answer\""), "{before}");

    // Swapping to the same checkpoint: same model, so the same request
    // must produce the same bytes (and the cache reset is invisible).
    let swapped = c.roundtrip(&Request::new(2, "ops", Op::SwapCheckpoint {
        path: sys.ckpt.display().to_string(),
    }));
    assert!(swapped.contains("\"type\":\"swapped\""), "{swapped}");
    assert_eq!(c.roundtrip(&ask), before, "answer changed across an identity swap");

    // A failed swap reports `checkpoint_failed` and changes nothing.
    let failed = c.roundtrip(&Request::new(3, "ops", Op::SwapCheckpoint {
        path: "/nonexistent/nlidb-checkpoint".into(),
    }));
    assert!(failed.contains("\"code\":\"checkpoint_failed\""), "{failed}");
    assert_eq!(c.roundtrip(&ask), before, "answer changed after a failed swap");

    // So does a swap to a checkpoint whose model config cannot serve:
    // the load rejects it before building a model that would panic the
    // engine thread (a zero beam width) or the load itself (no char-CNN
    // widths).
    let manifest = std::fs::read_to_string(sys.ckpt.join("manifest.json")).expect("manifest");
    let edits = [
        ("\"beam_width\":5", "\"beam_width\":0"),
        ("\"char_widths\":[3]", "\"char_widths\":[]"),
    ];
    for (i, (from, to)) in edits.into_iter().enumerate() {
        assert!(manifest.contains(from), "{manifest}");
        let dir = std::env::temp_dir()
            .join(format!("nlidb-serve-test-bad-ckpt-{}-{i}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create checkpoint copy");
        for entry in std::fs::read_dir(&sys.ckpt).expect("read checkpoint") {
            let path = entry.expect("checkpoint entry").path();
            std::fs::copy(&path, dir.join(path.file_name().expect("file name"))).expect("copy");
        }
        std::fs::write(dir.join("manifest.json"), manifest.replace(from, to)).expect("edit");
        let failed = c.roundtrip(&Request::new(10 + i as i64, "ops", Op::SwapCheckpoint {
            path: dir.display().to_string(),
        }));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(failed.contains("\"code\":\"checkpoint_failed\""), "{to}: {failed}");
        assert_eq!(c.roundtrip(&ask), before, "answer changed after a swap to {to}");
    }

    let stats = c.roundtrip(&Request::new(4, "ops", Op::Stats));
    assert!(stats.contains("\"swaps\":1"), "exactly one successful swap: {stats}");

    let bye = c.roundtrip(&Request::new(5, "ops", Op::Shutdown));
    assert!(bye.contains("\"type\":\"bye\""), "{bye}");
    server.shutdown();
    pool::set_threads(pool::default_threads());
}

#[test]
fn swap_under_concurrent_load_drops_no_requests() {
    let _guard = pool_lock();
    let sys = system();
    let nlidb = Nlidb::load(&sys.ckpt).expect("load test checkpoint");
    let cfg = ServerConfig {
        max_batch_questions: 8,
        linger: Duration::from_millis(1),
        ..ServerConfig::default()
    };
    let server = Server::start(nlidb, cfg).expect("start test server");
    let addr = server.addr();

    let mut setup = RawClient::connect(addr);
    let reg = setup.roundtrip(&Request::new(0, "acme", Op::RegisterTable {
        table: sys.tables[0].clone(),
    }));
    assert!(reg.contains("\"type\":\"registered\""), "{reg}");
    let fp = sys.tables[0].fingerprint();

    // One connection floods asks while another swaps mid-stream; every
    // single ask must be answered (old model or new — both valid), and
    // the swap must succeed.
    std::thread::scope(|s| {
        let asker = s.spawn(move || {
            let mut c = RawClient::connect(addr);
            let mut answered = 0usize;
            for i in 0..30 {
                let req = Request::new(
                    100 + i,
                    "acme",
                    Op::Ask(AskItem {
                        fingerprint: fp,
                        question: sys.questions[i as usize % sys.questions.len()].1.clone(),
                        guided: false,
                    }),
                );
                let line = c.roundtrip(&req);
                assert!(
                    line.contains("\"type\":\"answer\""),
                    "ask {i} was not answered during the swap window: {line}"
                );
                answered += 1;
            }
            answered
        });
        let swapped = setup.roundtrip(&Request::new(1, "ops", Op::SwapCheckpoint {
            path: sys.ckpt.display().to_string(),
        }));
        assert!(swapped.contains("\"type\":\"swapped\""), "{swapped}");
        assert_eq!(asker.join().expect("asker thread"), 30);
    });
    server.shutdown();
}

#[test]
fn stats_attribute_cache_and_admission_per_tenant() {
    let _guard = pool_lock();
    let sys = system();
    let nlidb = Nlidb::load(&sys.ckpt).expect("load test checkpoint");
    let server = Server::start(nlidb, ServerConfig::default()).expect("start test server");
    let mut c = RawClient::connect(server.addr());

    // Two tenants, one table each; alpha asks the same question twice
    // (miss then hit).
    for (id, tenant, table) in
        [(0, "alpha", &sys.tables[0]), (1, "beta", &sys.tables[1])]
    {
        let reg = c.roundtrip(&Request::new(id, tenant, Op::RegisterTable {
            table: table.clone(),
        }));
        assert!(reg.contains("\"type\":\"registered\""), "{reg}");
    }
    let fp0 = sys.tables[0].fingerprint();
    let ask = Request::new(
        2,
        "alpha",
        Op::Ask(AskItem { fingerprint: fp0, question: sys.questions[0].1.clone(), guided: false }),
    );
    let first = c.roundtrip(&ask);
    assert_eq!(c.roundtrip(&ask), first, "cache hit changed the answer bytes");

    // Tenancy boundary: beta cannot see alpha's table.
    let intrusion = c.roundtrip(&Request::new(
        3,
        "beta",
        Op::Ask(AskItem { fingerprint: fp0, question: sys.questions[0].1.clone(), guided: false }),
    ));
    assert!(intrusion.contains("\"code\":\"unknown_table\""), "{intrusion}");

    let line = c.roundtrip(&Request::new(4, "ops", Op::Stats));
    let parsed = nlidb_json::Json::parse(&line).expect("stats response parses");
    let resp = <Response as nlidb_json::FromJson>::from_json(&parsed).expect("stats decodes");
    let stats = match resp.result {
        Ok(Reply::Stats(s)) => s,
        other => panic!("expected stats reply, got {other:?}"),
    };
    assert_eq!(stats.tables.len(), 2, "both tables in the catalog");
    let t0 = stats
        .tables
        .iter()
        .find(|t| t.fingerprint == fp0)
        .expect("alpha's table in stats");
    assert_eq!(t0.tenants, vec!["alpha".to_string()]);
    assert_eq!(t0.cache.misses, 1, "first ask missed");
    assert_eq!(t0.cache.hits, 1, "second ask hit");
    assert_eq!(t0.cache.insertions, 1);
    let alpha = stats
        .tenants
        .iter()
        .find(|t| t.tenant == "alpha")
        .expect("alpha admission row");
    assert_eq!(alpha.admitted, 2);
    assert_eq!(alpha.in_flight, 0, "permits released after responses");
    assert_eq!(stats.questions, 2, "intrusion never reached the engine pipeline");
    server.shutdown();
}
