//! Set-up, the closed-loop load phase, the correctness gate, and the
//! end-to-end metrics of an untraced run.

use std::path::Path;
use std::time::{Duration, Instant};

use nlidb_core::Nlidb;
use nlidb_json::{json, Json};
use nlidb_serve::{
    Answer, BatchItem, ErrorCode, Op as WireOp, Reply, Request, Response, Server, ServerConfig,
    ServerHandle, ServerStats,
};
use nlidb_storage::{execution_match, Table};
use nlidb_tensor::pool;

use crate::client::{wire_request, Conn, TENANT};
use crate::stats::{median, summarize, supports, Sample};
use crate::workload::{Op, Plan};
use crate::{Metric, Model, Report};

/// Answers the correctness gate recomputes in-process after the load
/// phase: the first answers of the window.
pub const GATE_QUESTIONS: usize = 200;

/// Start of the problem a window with too few latency samples reports.
pub const FEW_SAMPLES: &str = "too few latency samples";

/// A running server and the load generator's connections to it.
pub struct Served {
    /// The server under test.
    pub server: ServerHandle,
    /// One connection per client thread.
    pub conns: Vec<Conn>,
}

impl Served {
    /// Closes the connections, then stops the server and joins its threads.
    pub fn stop(self) {
        drop(self.conns);
        self.server.shutdown();
    }
}

/// Seconds spent in each step of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `Nlidb::load` of the checkpoint, `Server::start`, and connecting.
    pub load_s: f64,
    /// Registering the plan's set-up tables.
    pub register_s: f64,
    /// Sending the warm-up requests (on `ask_hot`, filling the cache).
    pub warmup_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total_s(&self) -> f64 {
        self.load_s + self.register_s + self.warmup_s
    }
}

/// Why a request did not succeed.
pub struct Failure {
    /// Load shed by admission control (`overloaded`).
    pub shed: bool,
    /// A one-line description.
    pub reason: String,
}

/// Checks a response against the request that produced it; returns the
/// answers of a question-carrying request.
pub fn check_reply(plan: &Plan, op: &Op, resp: Response) -> Result<Vec<Answer>, Failure> {
    let fail = |reason: String| Failure {
        shed: false,
        reason,
    };
    let reply = resp.result.map_err(|e| Failure {
        shed: e.code == ErrorCode::Overloaded,
        reason: format!("{}: {}", e.code.as_str(), e.message),
    })?;
    match (op, reply) {
        (Op::Register(t), Reply::Registered { fingerprint }) => match plan.fingerprints.get(*t) {
            Some(&fp) if fp == fingerprint => Ok(Vec::new()),
            _ => Err(fail(format!(
                "table {t} registered under the wrong fingerprint"
            ))),
        },
        (Op::Ask(_), Reply::Answer(a)) => Ok(vec![a]),
        (Op::Batch(qs), Reply::Batch { results }) if results.len() == qs.len() => results
            .into_iter()
            .map(|item| match item {
                BatchItem::Answer(a) => Ok(a),
                BatchItem::Failed(e) => Err(Failure {
                    shed: e.code == ErrorCode::Overloaded,
                    reason: format!("batch item {}: {}", e.code.as_str(), e.message),
                }),
            })
            .collect(),
        (_, other) => Err(fail(format!("unexpected `{}` reply", other.type_name()))),
    }
}

/// Sends one op and checks its reply, failing set-up on any error.
fn send_checked(plan: &Plan, conn: &mut Conn, id: i64, op: &Op) -> Result<(), String> {
    let resp = conn.exchange(&wire_request(plan, id, op)?)?;
    check_reply(plan, op, resp)
        .map(drop)
        .map_err(|f| format!("set-up request {id}: {}", f.reason))
}

/// Starts a server from the checkpoint, connects the clients, registers
/// the set-up tables and sends the warm-up.
pub fn set_up(plan: &Plan, ckpt: &Path) -> Result<(Served, SetupTimes), String> {
    let t0 = Instant::now();
    let model = Nlidb::load(ckpt).map_err(|e| format!("load checkpoint: {e}"))?;
    let server =
        Server::start(model, ServerConfig::default()).map_err(|e| format!("start server: {e}"))?;
    let addr = server.addr();
    let conns = (0..plan.workload.connections())
        .map(|_| Conn::connect_to(addr))
        .collect::<Result<Vec<_>, _>>();
    let mut served = Served {
        server,
        conns: conns?,
    };
    let load_s = t0.elapsed().as_secs_f64();
    let Some(conn) = served.conns.first_mut() else {
        return Err("no connections".into());
    };

    let t1 = Instant::now();
    for (i, &t) in plan.setup_tables.iter().enumerate() {
        send_checked(plan, conn, i as i64, &Op::Register(t))?;
    }
    let register_s = t1.elapsed().as_secs_f64();

    let t2 = Instant::now();
    for (i, op) in plan.warmup.iter().enumerate() {
        send_checked(plan, conn, (plan.setup_tables.len() + i) as i64, op)?;
    }
    let warmup_s = t2.elapsed().as_secs_f64();
    Ok((
        served,
        SetupTimes {
            load_s,
            register_s,
            warmup_s,
        },
    ))
}

/// Runs [`set_up`] `reps` times (at least once) and keeps the last
/// server; earlier ones are stopped before the next starts.
pub fn set_up_repeated(
    plan: &Plan,
    ckpt: &Path,
    reps: usize,
) -> Result<(Served, Vec<SetupTimes>), String> {
    let mut times = Vec::with_capacity(reps);
    loop {
        let (served, t) = set_up(plan, ckpt)?;
        times.push(t);
        if times.len() >= reps.max(1) {
            return Ok((served, times));
        }
        served.stop();
    }
}

/// Median of one set-up step over the repetitions.
pub fn median_step(times: &[SetupTimes], step: impl Fn(&SetupTimes) -> f64) -> f64 {
    median(&times.iter().map(step).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Asks the server for its counters.
pub fn server_stats(conn: &mut Conn) -> Result<ServerStats, String> {
    match conn
        .exchange(&Request::new(-1, TENANT, WireOp::Stats))?
        .result
    {
        Ok(Reply::Stats(s)) => Ok(s),
        Ok(other) => Err(format!("stats answered `{}`", other.type_name())),
        Err(e) => Err(format!("stats failed: {}", e.message)),
    }
}

/// What one client connection saw.
#[derive(Default)]
pub struct ConnLog {
    /// Every successful request sent inside the window.
    pub samples: Vec<Sample>,
    /// Requests sent, registrations included.
    pub attempted: u64,
    /// Requests that failed for any reason.
    pub failed: u64,
    /// Of those, requests shed as `overloaded`.
    pub shed: u64,
    /// The first few failure reasons.
    pub errors: Vec<String>,
    /// `(question, answer)` pairs kept, in send order.
    pub answers: Vec<(usize, Answer)>,
    /// Whether the stream ran out before the window ended.
    pub exhausted: bool,
}

impl ConnLog {
    /// Sends one op and books the outcome. `None` on failure; the
    /// connection is unusable when `dead` is set.
    fn send_op(
        &mut self,
        plan: &Plan,
        conn: &mut Conn,
        id: usize,
        op: &Op,
        dead: &mut bool,
    ) -> Option<Vec<Answer>> {
        self.attempted += 1;
        let result = wire_request(plan, id as i64, op)
            .and_then(|req| conn.exchange(&req))
            .map_err(|reason| {
                (
                    true,
                    Failure {
                        shed: false,
                        reason,
                    },
                )
            })
            .and_then(|resp| check_reply(plan, op, resp).map_err(|f| (false, f)));
        match result {
            Ok(answers) => Some(answers),
            Err((transport, f)) => {
                self.failed += 1;
                self.shed += u64::from(f.shed);
                if self.errors.len() < 5 {
                    self.errors.push(f.reason);
                }
                *dead = transport;
                None
            }
        }
    }
}

/// Drives one connection closed-loop over its stream until `deadline`,
/// keeping the first `keep` answers for the correctness gate. A stream
/// is never restarted: its second pass would be answered from the
/// server's cache and no longer measure the workload.
fn drive_window(
    plan: &Plan,
    stream: &[Op],
    conn: &mut Conn,
    start: Instant,
    deadline: Instant,
    keep: usize,
) -> ConnLog {
    let mut log = ConnLog::default();
    let mut dead = false;
    let mut ops = stream.iter().enumerate();
    loop {
        let t0 = Instant::now();
        if t0 >= deadline || dead {
            break;
        }
        let Some((sent, op)) = ops.next() else {
            log.exhausted = true;
            break;
        };
        let Some(answers) = log.send_op(plan, conn, sent, op, &mut dead) else {
            continue;
        };
        if !answers.is_empty() {
            log.samples.push(Sample {
                start_ns: t0.duration_since(start).as_nanos() as u64,
                latency_ns: t0.elapsed().as_nanos() as u64,
                questions: answers.len(),
            });
        }
        let room = keep.saturating_sub(log.answers.len());
        log.answers
            .extend(op.questions().iter().copied().zip(answers).take(room));
    }
    log
}

/// Sends each op once, keeping every answer.
fn drive_once(plan: &Plan, ops: &[Op], conn: &mut Conn) -> ConnLog {
    let mut log = ConnLog::default();
    let mut dead = false;
    for (sent, op) in ops.iter().enumerate() {
        if dead {
            break;
        }
        if let Some(answers) = log.send_op(plan, conn, sent, op, &mut dead) {
            log.answers
                .extend(op.questions().iter().copied().zip(answers));
        }
    }
    log
}

/// Runs `f` on one client thread per connection.
fn per_connection(
    conns: &mut [Conn],
    f: impl Fn(usize, &mut Conn) -> ConnLog + Sync,
) -> Vec<ConnLog> {
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            // lint:allow(raw-spawn): each closed-loop client must be its own OS thread blocked on
            // its own socket; the pool would serialize them and tie client concurrency to
            // NLIDB_THREADS, which sizes the server's inference fan-out instead.
            .map(|(c, conn)| s.spawn(move || f(c, conn)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| ConnLog {
                    attempted: 1,
                    failed: 1,
                    errors: vec!["client thread panicked".into()],
                    ..ConnLog::default()
                })
            })
            .collect()
    })
}

/// The first `GATE_QUESTIONS` answers of the window, interleaved across
/// connections.
fn gate_items(logs: &[ConnLog]) -> Vec<(usize, &Answer)> {
    let longest = logs.iter().map(|l| l.answers.len()).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| logs.iter().filter_map(move |l| l.answers.get(i)))
        .take(GATE_QUESTIONS)
        .map(|(q, a)| (*q, a))
        .collect()
}

/// The SQL the in-process reference renders for one question — exactly
/// what the server's engine would put on the wire.
pub fn reference_sql(
    reference: &Nlidb,
    table: &Table,
    tokens: &[String],
    guided: bool,
) -> Option<String> {
    let pred = match guided {
        true => reference.predict_guided(tokens, table),
        false => reference.predict(tokens, table),
    };
    pred.map(|q| q.to_sql(&table.column_names()))
}

/// Recomputes the gate answers in-process (fanned over the pool) and
/// counts those whose `sql` differs from the server's by a single byte.
pub fn gate_mismatches(plan: &Plan, reference: &Nlidb, items: &[(usize, &Answer)]) -> usize {
    let mut expected: Vec<Option<Option<String>>> = vec![None; items.len()];
    pool::parallel_for_chunks(&mut expected, 1, |i, slot| {
        let computed = items.get(i).and_then(|&(q, _)| {
            let question = plan.questions.get(q)?;
            let table = plan.table_of(q)?;
            Some(reference_sql(
                reference,
                table,
                &question.tokens,
                question.guided,
            ))
        });
        if let Some(out) = slot.first_mut() {
            *out = computed;
        }
    });
    items
        .iter()
        .zip(&expected)
        .filter(|((_, answer), want)| want.as_ref() != Some(&answer.sql))
        .count()
}

/// Execution accuracy of the evaluation answers against the corpus gold.
fn accuracy(plan: &Plan, logs: &[ConnLog]) -> f64 {
    let (mut right, mut total) = (0usize, 0usize);
    for (q, answer) in logs.iter().flat_map(|l| &l.answers) {
        let (Some(question), Some(table)) = (plan.questions.get(*q), plan.table_of(*q)) else {
            continue;
        };
        total += 1;
        right += usize::from(
            answer
                .query
                .as_ref()
                .is_some_and(|p| execution_match(table, p, &question.gold)),
        );
    }
    if total == 0 {
        0.0
    } else {
        right as f64 / total as f64
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// An untraced run: set-up, one closed-loop load phase of `window`, the
/// evaluation set, `reps - 1` further set-ups that are only timed, the
/// correctness gate, and the end-to-end metrics.
pub fn measure(
    plan: &Plan,
    model: &Model,
    window: Duration,
    reps: usize,
) -> Result<Report, String> {
    let (mut served, first_setup) = set_up(plan, &model.ckpt)?;
    let before = served.conns.first_mut().map(server_stats).transpose()?;
    let keep = GATE_QUESTIONS.div_ceil(served.conns.len().max(1));
    let start = Instant::now();
    let deadline = start + window;
    let logs = per_connection(&mut served.conns, |c, conn| match plan.streams.get(c) {
        Some(stream) => drive_window(plan, stream, conn, start, deadline, keep),
        None => ConnLog::default(),
    });
    let after = served.conns.first_mut().map(server_stats).transpose()?;

    // The evaluation set, untimed: its tables first, then every
    // connection's requests once.
    let mut evals = vec![ConnLog::default()];
    if let (Some(conn), Some(log)) = (served.conns.first_mut(), evals.first_mut()) {
        let mut dead = false;
        for (i, &t) in plan.eval_tables.iter().enumerate() {
            log.send_op(plan, conn, i, &Op::Register(t), &mut dead);
        }
    }
    evals.extend(per_connection(&mut served.conns, |c, conn| {
        match plan.eval.get(c) {
            Some(ops) => drive_once(plan, ops, conn),
            None => ConnLog::default(),
        }
    }));
    // Read before the timing-only set-ups: a caller's process starts one
    // server, and every further start leaves memory the allocator keeps.
    let peak_rss = peak_rss_mb()?;
    served.stop();
    let mut setups = vec![first_setup];
    if reps > 1 {
        let (extra, times) = set_up_repeated(plan, &model.ckpt, reps - 1)?;
        extra.stop();
        setups.extend(times);
    }

    let items = gate_items(&logs);
    let mismatches = gate_mismatches(plan, &model.reference, &items);
    let all = || logs.iter().chain(&evals);
    let attempted: u64 = all().map(|l| l.attempted).sum();
    let failed = all().map(|l| l.failed).sum::<u64>() + mismatches as u64;

    let samples: Vec<Sample> = logs
        .iter()
        .flat_map(|l| l.samples.iter().copied())
        .collect();
    let summary = summarize(&samples);
    let questions: usize = samples.iter().map(|s| s.questions).sum();
    let scored: usize = evals.iter().map(|l| l.answers.len()).sum();
    let eval_questions: usize = plan
        .eval
        .iter()
        .flatten()
        .map(|op| op.questions().len())
        .sum();

    let mut problems: Vec<String> = all().flat_map(|l| l.errors.iter().cloned()).collect();
    for (c, log) in logs.iter().enumerate() {
        if log.exhausted {
            problems.push(format!(
                "connection {c} ran out of its stream after {} requests, before the \
                 window ended; the streams are sized for {:.0} questions/s",
                log.attempted,
                plan.workload.stream_rate()
            ));
        }
    }
    if mismatches > 0 {
        problems.push(format!(
            "{mismatches} of {} gate answers differ from the in-process reference",
            items.len()
        ));
    }
    if !supports(samples.len(), 0.9) {
        problems.push(format!(
            "{FEW_SAMPLES}: {}, and p90 needs at least 100",
            samples.len()
        ));
    }
    if scored < eval_questions {
        problems.push(format!(
            "only {scored} of {eval_questions} evaluation questions answered"
        ));
    }
    let metrics = vec![
        Metric::new("setup_s", median_step(&setups, SetupTimes::total_s), "s"),
        Metric::new("qps", summary.qps, "1/s"),
        Metric::new("p50_ms", summary.p50_ms, "ms"),
        Metric::new("p90_ms", summary.p90_ms, "ms"),
        Metric::new("acc_ex", accuracy(plan, &evals), "fraction"),
        Metric::new("peak_rss_mb", peak_rss, "MB"),
    ];
    let (batches, batched) = match (&before, &after) {
        (Some(b), Some(a)) => (
            a.batches.saturating_sub(b.batches),
            a.questions.saturating_sub(b.questions),
        ),
        _ => (0, 0),
    };
    let mut info = vec![
        Metric::new(
            "error_rate",
            if attempted == 0 {
                0.0
            } else {
                failed as f64 / attempted as f64
            },
            "fraction",
        ),
        Metric::new("samples", samples.len() as f64, "count"),
        Metric::new("questions", questions as f64, "count"),
        Metric::new("scored", scored as f64, "count"),
        Metric::new("gate_checked", items.len() as f64, "count"),
        Metric::new("shed", all().map(|l| l.shed as f64).sum(), "count"),
        Metric::new(
            "load.batch_size",
            if batches == 0 {
                0.0
            } else {
                batched as f64 / batches as f64
            },
            "questions/batch",
        ),
        Metric::new("setup.load_s", median_step(&setups, |t| t.load_s), "s"),
        Metric::new(
            "setup.register_s",
            median_step(&setups, |t| t.register_s),
            "s",
        ),
        Metric::new("setup.warmup_s", median_step(&setups, |t| t.warmup_s), "s"),
    ];
    if let Some(t) = model.train_s {
        info.push(Metric::new("setup.train_s", t, "s"));
    }
    let record = json!({
        "window_s": window.as_secs_f64(),
        "model_reused": model.train_s.is_none(),
        "setup_reps_s": Json::Arr(setups.iter().map(|t| Json::Float(t.total_s())).collect()),
    });
    Ok(Report {
        attempted,
        failed,
        problems,
        metrics,
        info,
        record,
    })
}
