//! The inference engine thread: single owner of the model, catalog,
//! and prediction cache, fed jobs over an mpsc channel.
//!
//! ## Why a single thread
//!
//! Connection handling is concurrent, but *all* state that could
//! influence response bytes — the model, the catalog, the cache — is
//! owned by exactly one thread and mutated only between batches. Every
//! request is therefore answered against one well-defined
//! (model, catalog) snapshot: the one current when the job was
//! dequeued. That is the heart of the wire-determinism argument
//! (`docs/PROTOCOL.md` §5): interleaving can change *which order* jobs
//! dequeue in, but each job's response bytes are a pure function of
//! (request, registered table, active model), all of which are
//! order-independent for a fixed request log with fixed registrations.
//!
//! ## Micro-batching
//!
//! The loop collects `ask`/`batch` jobs until either `max_batch_questions`
//! questions are pending or the linger deadline passes, then dispatches
//! them as one [`ServeEngine::serve`] call. `ServeEngine` guarantees
//! batched output is byte-identical to serving each request alone, so
//! the *timing* knobs (`linger`, and the wall-clock reads backing them)
//! affect latency and throughput only — never bytes. Control jobs
//! (register / swap / stats / shutdown) act as batch barriers: one
//! arriving mid-collection ends the batch, which dispatches before the
//! control job runs, preserving queue order.
//!
//! ## Hot swap
//!
//! `swap_checkpoint` runs between batches like any control job: jobs
//! dequeued before it are answered by the old model, jobs after by the
//! new one, and nothing in flight is dropped. A successful swap resets
//! the prediction cache (entries are functions of the model), and with
//! it the resident table statistics, which live in the old model's
//! embedding space. A failed load leaves model *and* cache untouched and
//! reports `checkpoint_failed`.

use std::mem;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nlidb_core::{CacheTableStats, Nlidb, PredictionCache, ServeEngine, ServeRequest};
use nlidb_storage::Table;

use crate::admission::{Admission, Permit};
use crate::catalog::Catalog;
use crate::protocol::{
    fingerprint_to_hex, Answer, AskItem, BatchItem, CacheCounts, ErrorCode, Reply, ServerStats,
    TableStats, TenantStats, WireError,
};

/// Reply channel for one job. The engine always sends exactly one
/// value; a closed receiver (client disconnected while queued) is not
/// an error — the result is dropped and counted.
pub(crate) type ReplyTx = Sender<Result<Reply, WireError>>;

/// An admitted `ask` or `batch`, queued for the next micro-batch.
pub(crate) struct ServeJob {
    /// Requesting tenant (catalog authorization).
    pub tenant: String,
    /// The questions; a plain `ask` is a one-item job.
    pub items: Vec<AskItem>,
    /// `true` → reply with [`Reply::Batch`]; `false` → the single
    /// item's answer/error becomes the whole response.
    pub wrap_batch: bool,
    /// Where to send the result.
    pub reply: ReplyTx,
    /// Admission capacity held until this job is fully answered.
    /// Dropped with the job, on every path.
    #[allow(dead_code)] // held for its Drop impl
    pub permit: Permit,
}

/// One unit of engine work, in strict queue order.
pub(crate) enum Job {
    /// Answer questions (batchable).
    Serve(ServeJob),
    /// Register a table.
    Register { tenant: String, table: Table, reply: ReplyTx },
    /// Hot-swap the model from a checkpoint directory.
    Swap { path: String, reply: ReplyTx },
    /// Report server statistics.
    Stats { reply: ReplyTx },
    /// Stop the engine (and with it, the server).
    Shutdown { reply: ReplyTx },
}

/// Engine configuration (micro-batch triggers).
#[derive(Debug, Clone, Copy)]
pub(crate) struct EngineConfig {
    pub max_batch_questions: usize,
    pub linger: Duration,
    pub cache_capacity: usize,
}

/// The engine state machine. Constructed on the server thread, moved
/// into the engine thread, runs until shutdown or until every sender
/// disappears.
pub(crate) struct Engine {
    nlidb: Nlidb,
    cache: PredictionCache,
    catalog: Catalog,
    admission: Arc<Admission>,
    /// Responses written, all ops and errors included; bumped by
    /// connection threads, read here for `stats`.
    requests: Arc<AtomicU64>,
    cfg: EngineConfig,
    questions: u64,
    batches: u64,
    swaps: u64,
}

impl Engine {
    pub(crate) fn new(
        nlidb: Nlidb,
        admission: Arc<Admission>,
        requests: Arc<AtomicU64>,
        cfg: EngineConfig,
    ) -> Engine {
        Engine {
            nlidb,
            cache: PredictionCache::new(cfg.cache_capacity),
            catalog: Catalog::new(),
            admission,
            requests,
            cfg,
            questions: 0,
            batches: 0,
            swaps: 0,
        }
    }

    /// The job loop. `on_shutdown` runs once when a `shutdown` job is
    /// processed (the server uses it to stop the acceptor). Returns when
    /// shut down or when all job senders are gone.
    pub(crate) fn run(mut self, rx: Receiver<Job>, on_shutdown: impl Fn()) {
        loop {
            let job = match rx.recv() {
                Ok(j) => j,
                Err(_) => break, // server handle and all connections gone
            };
            match job {
                Job::Serve(first) => {
                    let (batch, deferred) = self.collect_batch(first, &rx);
                    self.dispatch(batch);
                    if let Some(control) = deferred {
                        if self.handle_control(control) {
                            on_shutdown();
                            break;
                        }
                    }
                }
                control => {
                    if self.handle_control(control) {
                        on_shutdown();
                        break;
                    }
                }
            }
        }
        // Jobs still queued are dropped here with `rx`; their reply
        // channels close, and each connection answers `shutting_down`.
    }

    /// Gathers serve jobs until the size or linger trigger fires. A
    /// control job arriving mid-collection is returned for the caller
    /// to run *after* the batch — queue order is preserved.
    fn collect_batch(&self, first: ServeJob, rx: &Receiver<Job>) -> (Vec<ServeJob>, Option<Job>) {
        let mut pending = vec![first];
        let mut queued: usize = pending.iter().map(|j| j.items.len()).sum();
        // Wall-clock here bounds *latency* only; batch boundaries never
        // influence response bytes (see module docs).
        let deadline = Instant::now() + self.cfg.linger;
        while queued < self.cfg.max_batch_questions {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break;
            }
            match rx.recv_timeout(remaining) {
                Ok(Job::Serve(j)) => {
                    queued += j.items.len();
                    pending.push(j);
                }
                Ok(control) => return (pending, Some(control)),
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        (pending, None)
    }

    /// Answers one micro-batch with a single `ServeEngine::serve` call.
    fn dispatch(&mut self, jobs: Vec<ServeJob>) {
        let _sp = nlidb_trace::span("server.batch");
        self.batches += 1;
        nlidb_trace::count("server.batches", 1);

        // Resolve every item against the catalog (tenant-scoped).
        let slots: Vec<Vec<Result<Arc<Table>, WireError>>> = jobs
            .iter()
            .map(|job| {
                job.items
                    .iter()
                    .map(|item| match self.catalog.get_for(&job.tenant, item.fingerprint) {
                        Some(e) => Ok(Arc::clone(&e.table)),
                        None => Err(WireError::new(
                            ErrorCode::UnknownTable,
                            format!(
                                "no table {} registered for tenant '{}'",
                                fingerprint_to_hex(item.fingerprint),
                                job.tenant
                            ),
                        )),
                    })
                    .collect()
            })
            .collect();

        // Flatten resolvable items into one engine batch, job by job and
        // item by item.
        let preds = {
            let reqs: Vec<ServeRequest<'_>> = jobs
                .iter()
                .zip(&slots)
                .flat_map(|(job, tables)| job.items.iter().zip(tables))
                .filter_map(|(item, table)| {
                    let table = table.as_ref().ok()?;
                    Some(ServeRequest { question: &item.question, table, guided: item.guided })
                })
                .collect();
            self.questions += reqs.len() as u64;
            nlidb_trace::count("server.questions", reqs.len() as u64);
            if reqs.is_empty() {
                Vec::new()
            } else {
                let mut eng = ServeEngine::with_cache(&self.nlidb, mem::take(&mut self.cache));
                let out = eng.serve(&reqs);
                self.cache = eng.into_cache();
                out
            }
        };

        // Hand the predictions back in the same job and item order, render
        // SQL, reply. `serve` returns one prediction per request; if that
        // invariant ever breaks, a resolved item left without one answers
        // `internal` instead of panicking the engine thread.
        let internal = |what: &str| {
            WireError::new(ErrorCode::Internal, format!("engine invariant violated: {what}"))
        };
        let mut preds = preds.into_iter();
        for (job, tables) in jobs.into_iter().zip(slots) {
            let results: Vec<BatchItem> = tables
                .into_iter()
                .map(|slot| match slot {
                    Err(e) => BatchItem::Failed(e),
                    Ok(table) => match preds.next() {
                        Some(pred) => {
                            let cols = table.column_names();
                            BatchItem::Answer(Answer {
                                sql: pred.as_ref().map(|q| q.to_sql(&cols)),
                                query: pred,
                            })
                        }
                        None => BatchItem::Failed(internal("resolved item received no prediction")),
                    },
                })
                .collect();
            let reply = if job.wrap_batch {
                Ok(Reply::Batch { results })
            } else {
                match results.into_iter().next() {
                    Some(BatchItem::Answer(a)) => Ok(Reply::Answer(a)),
                    Some(BatchItem::Failed(e)) => Err(e),
                    None => Err(internal("ask job carried no items")),
                }
            };
            if job.reply.send(reply).is_err() {
                nlidb_trace::count("server.dropped_replies", 1);
            }
            // `job.permit` drops here: capacity released only after the
            // answer is handed to the connection.
        }
    }

    /// Handles a control job. Returns `true` on shutdown.
    fn handle_control(&mut self, job: Job) -> bool {
        match job {
            // `run` routes serve jobs through `collect_batch`, so one
            // arriving here is a routing bug — answer it as a batch of
            // one rather than panicking the engine thread.
            Job::Serve(job) => {
                self.dispatch(vec![job]);
                false
            }
            Job::Register { tenant, table, reply } => {
                let _sp = nlidb_trace::span("server.register");
                let fingerprint = self.catalog.register(&tenant, table);
                nlidb_trace::count("server.registered", 1);
                let _ = reply.send(Ok(Reply::Registered { fingerprint }));
                false
            }
            Job::Swap { path, reply } => {
                let _sp = nlidb_trace::span("server.swap");
                let result = match Nlidb::load(&path) {
                    Ok(model) => {
                        self.nlidb = model;
                        // Cached predictions and resident statistics are
                        // functions of the old model; a stale hit would
                        // break determinism.
                        self.cache = PredictionCache::new(self.cfg.cache_capacity);
                        self.swaps += 1;
                        nlidb_trace::count("server.swaps", 1);
                        Ok(Reply::Swapped { checkpoint: path })
                    }
                    Err(e) => Err(WireError::new(
                        ErrorCode::CheckpointFailed,
                        format!("cannot load checkpoint '{path}': {e}"),
                    )),
                };
                let _ = reply.send(result);
                false
            }
            Job::Stats { reply } => {
                let _ = reply.send(Ok(Reply::Stats(self.stats())));
                false
            }
            Job::Shutdown { reply } => {
                let _ = reply.send(Ok(Reply::Bye));
                true
            }
        }
    }

    fn stats(&self) -> ServerStats {
        let counts = |s: CacheTableStats| CacheCounts {
            hits: s.hits,
            misses: s.misses,
            insertions: s.insertions,
            evictions: s.evictions,
        };
        ServerStats {
            // lint:allow(atomic-ordering): monotonic stats counter read; no other memory is published under it, and stats tolerate a stale value.
            requests: self.requests.load(Ordering::Relaxed),
            questions: self.questions,
            batches: self.batches,
            swaps: self.swaps,
            tenants: self
                .admission
                .snapshot()
                .into_iter()
                .map(|(tenant, c)| TenantStats {
                    tenant,
                    admitted: c.admitted,
                    shed: c.shed,
                    in_flight: c.in_flight,
                })
                .collect(),
            tables: self
                .catalog
                .iter()
                .map(|(fp, e)| TableStats {
                    fingerprint: fp,
                    name: e.table.name.clone(),
                    tenants: e.tenants.clone(),
                    rows: e.table.num_rows() as u64,
                    cache: counts(self.cache.table_stats(fp)),
                })
                .collect(),
            cache: CacheCounts {
                hits: self.cache.hits(),
                misses: self.cache.misses(),
                insertions: self.cache.insertions(),
                evictions: self.cache.evictions(),
            },
            cache_len: self.cache.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    use nlidb_core::{ModelConfig, NlidbOptions};
    use nlidb_data::wikisql::{generate, WikiSqlConfig};
    use nlidb_data::Dataset;
    use nlidb_sqlir::Query;

    use crate::admission::AdmissionConfig;

    fn trained(seed: u64, word_dim: usize) -> (Nlidb, Dataset) {
        let mut gen_cfg = WikiSqlConfig::tiny(seed);
        gen_cfg.train_tables = 4;
        gen_cfg.questions_per_table = 4;
        let ds = generate(&gen_cfg);
        let model = ModelConfig { word_dim, ..ModelConfig::tiny() };
        (Nlidb::train(&ds, NlidbOptions { model, ..NlidbOptions::default() }), ds)
    }

    /// Runs one job through the engine's control path and returns its reply.
    fn run(engine: &mut Engine, job: impl FnOnce(ReplyTx) -> Job) -> Result<Reply, WireError> {
        let (tx, rx) = mpsc::channel();
        engine.handle_control(job(tx));
        rx.recv().unwrap_or_else(|_| Err(WireError::new(ErrorCode::Internal, "no reply")))
    }

    fn ask(engine: &mut Engine, fingerprint: u64, question: &[String]) -> Option<Query> {
        let permit = engine.admission.try_admit("t", 1).expect("admitted");
        let item = AskItem { fingerprint, question: question.to_vec(), guided: false };
        let job = |reply| {
            Job::Serve(ServeJob {
                tenant: "t".into(),
                items: vec![item],
                wrap_batch: false,
                reply,
                permit,
            })
        };
        match run(engine, job) {
            Ok(Reply::Answer(answer)) => answer.query,
            other => panic!("ask failed: {other:?}"),
        }
    }

    #[test]
    fn a_swap_drops_resident_table_stats_and_a_failed_swap_keeps_them() {
        let tiny_dim = ModelConfig::tiny().word_dim;
        let (old, ds) = trained(9101, tiny_dim);
        let (new, _) = trained(9102, tiny_dim + 4);
        let dir = std::env::temp_dir().join(format!("nlidb-engine-swap-{}", std::process::id()));
        new.save(&dir).expect("save the swap target");
        let e = &ds.dev[0];
        let table = (*e.table).clone();

        let cfg =
            EngineConfig { max_batch_questions: 8, linger: Duration::ZERO, cache_capacity: 64 };
        let admission = Arc::new(Admission::new(AdmissionConfig::default()));
        let mut engine = Engine::new(old, admission, Arc::new(AtomicU64::new(0)), cfg);
        let register = |reply| Job::Register { tenant: "t".into(), table: table.clone(), reply };
        let fp = match run(&mut engine, register) {
            Ok(Reply::Registered { fingerprint }) => fingerprint,
            other => panic!("register failed: {other:?}"),
        };
        ask(&mut engine, fp, &e.question);
        let kept = engine.cache.resident_stats(fp).cloned().expect("the miss kept its stats");

        let missing = dir.join("missing").display().to_string();
        let failed = run(&mut engine, |reply| Job::Swap { path: missing, reply });
        assert!(matches!(failed, Err(WireError { code: ErrorCode::CheckpointFailed, .. })));
        assert_eq!(engine.cache.resident_stats(fp), Some(&kept), "a failed swap keeps them");

        let path = dir.display().to_string();
        let swapped = run(&mut engine, |reply| Job::Swap { path, reply });
        assert!(matches!(swapped, Ok(Reply::Swapped { .. })), "{swapped:?}");
        assert_eq!(engine.cache.resident_stats(fp), None, "a swap drops them");

        let reloaded = Nlidb::load(&dir).expect("reload the swap target");
        assert_eq!(ask(&mut engine, fp, &e.question), reloaded.predict(&e.question, &table));
        let recomputed = nlidb_storage::TableStats::compute(&table, reloaded.detector.space());
        assert_eq!(engine.cache.resident_stats(fp), Some(&recomputed));
        let dims = |s: &nlidb_storage::TableStats| s.columns.first().map(|c| c.centroid.len());
        assert_ne!(dims(&kept), dims(&recomputed), "the two models embed in different spaces");
        std::fs::remove_dir_all(&dir).ok();
    }
}
