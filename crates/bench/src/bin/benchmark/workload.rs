//! Seeded workloads: the served tables, their questions with gold SQL,
//! and one closed-loop request stream per connection.
//!
//! Everything here is a pure function of `(workload, seed, sizes)`. The
//! served corpus comes from the WikiSQL-shaped generator under a seed
//! derived from `--seed` (never the training seed itself), so its tables
//! are new to the model: every run is a transfer run.

use std::collections::BTreeSet;
use std::sync::Arc;

use nlidb_data::wikisql::{generate, WikiSqlConfig};
use nlidb_sqlir::Query;
use nlidb_storage::Table;
use nlidb_tensor::rng::derive_stream;
use nlidb_tensor::Rng;

/// The four traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One connection sending `batch` frames of 16 distinct questions.
    BulkUnique,
    /// Two connections sending single distinct `ask`s on small tables.
    AskUnique,
    /// Two connections re-asking a skewed 256-question pool.
    AskHot,
    /// Two connections asking about 1,000–2,000-row tables they register.
    AskLarge,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::BulkUnique,
        Workload::AskUnique,
        Workload::AskHot,
        Workload::AskLarge,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkUnique => "bulk_unique",
            Workload::AskUnique => "ask_unique",
            Workload::AskHot => "ask_hot",
            Workload::AskLarge => "ask_large",
        }
    }

    /// Parses a `--workload` name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Client connections (and client threads) the load phase opens.
    pub fn connections(self) -> usize {
        match self {
            Workload::BulkUnique => 1,
            _ => 2,
        }
    }

    /// Questions per second the benchmark's streams are sized for:
    /// [`HEADROOM`] times the highest rate measured on the commit that
    /// defined the benchmark (README, "Measurements").
    pub fn stream_rate(self) -> f64 {
        let measured = match self {
            Workload::BulkUnique => 300.0,
            Workload::AskUnique => 140.0,
            Workload::AskHot => 800.0,
            Workload::AskLarge => 65.0,
        };
        HEADROOM * measured
    }

    /// The sizes the benchmark runs at for a load window of `seconds`:
    /// streams of [`Workload::stream_rate`] questions per second of the
    /// window. A commit more than [`HEADROOM`] times faster runs a stream
    /// out, and the run fails instead of re-asking cached questions.
    pub fn full_sizes(self, seconds: u64) -> Sizes {
        let (rows, hot) = ((4, 9), (0, 0));
        let shape = match self {
            Workload::BulkUnique => Sizes {
                tables: 0,
                questions: 16,
                rows,
                hot,
                eval: (12, 12),
            },
            Workload::AskUnique => Sizes {
                tables: 0,
                questions: 12,
                rows,
                hot,
                eval: (48, 96),
            },
            Workload::AskHot => Sizes {
                tables: 0,
                questions: 10,
                rows,
                hot: (16, 16),
                eval: (8, 96),
            },
            Workload::AskLarge => Sizes {
                tables: 0,
                questions: ASKS_PER_LARGE_TABLE,
                rows: (1000, 2000),
                hot,
                eval: (8, 96),
            },
        };
        shape.holding(self, (self.stream_rate() * seconds as f64).ceil() as usize)
    }

    /// Small sizes for tests: the same shapes on fewer and smaller
    /// tables, with streams of `questions` questions in all.
    #[cfg(test)]
    pub fn tiny_sizes(self, questions: usize) -> Sizes {
        let (rows, hot) = ((4, 9), (0, 0));
        let shape = match self {
            Workload::BulkUnique => Sizes {
                tables: 0,
                questions: 8,
                rows,
                hot,
                eval: (4, 2),
            },
            Workload::AskUnique => Sizes {
                tables: 0,
                questions: 4,
                rows,
                hot,
                eval: (4, 4),
            },
            Workload::AskHot => Sizes {
                tables: 0,
                questions: 4,
                rows,
                hot: (4, 4),
                eval: (4, 6),
            },
            Workload::AskLarge => Sizes {
                tables: 0,
                questions: 6,
                rows: (60, 120),
                hot,
                eval: (2, 4),
            },
        };
        shape.holding(self, questions)
    }
}

/// Corpus and stream sizes of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Stream tables (the cold tables on `ask_hot`).
    pub tables: usize,
    /// Distinct questions per stream table.
    pub questions: usize,
    /// Row-count range of every served table.
    pub rows: (usize, usize),
    /// `ask_hot` only: `(tables, questions per table)` of the hot pool.
    pub hot: (usize, usize),
    /// The evaluation set: `(stream tables, question-carrying requests
    /// per connection)` of a plan generated the same way from
    /// [`EVAL_SEED`].
    pub eval: (usize, usize),
}

impl Sizes {
    /// These sizes with enough stream tables for streams of at least
    /// `questions` questions in all.
    fn holding(self, workload: Workload, questions: usize) -> Sizes {
        let per_table = match workload {
            // Each cold question comes with HOT_COLD_EVERY - 1 hot ones.
            Workload::AskHot => self.questions * HOT_COLD_EVERY,
            Workload::AskLarge => self.questions.min(ASKS_PER_LARGE_TABLE),
            _ => self.questions,
        };
        let tables = questions.div_ceil(per_table.max(1));
        let tables = match workload {
            Workload::BulkUnique => tables.next_multiple_of(BATCH_TABLES),
            _ => tables,
        };
        Sizes { tables, ..self }
    }
}

/// One served question.
#[derive(Debug, Clone, PartialEq)]
pub struct Question {
    /// Index into [`Plan::tables`].
    pub table: usize,
    /// The tokenized question.
    pub tokens: Vec<String>,
    /// The corpus's gold SQL.
    pub gold: Query,
    /// Whether it is sent with execution-guided decoding.
    pub guided: bool,
}

/// One request of a stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `register_table` of [`Plan::tables`]`[i]`.
    Register(usize),
    /// `ask` of [`Plan::questions`]`[i]`.
    Ask(usize),
    /// `batch` of several [`Plan::questions`].
    Batch(Vec<usize>),
}

impl Op {
    /// The questions this request carries.
    pub fn questions(&self) -> &[usize] {
        match self {
            Op::Register(_) => &[],
            Op::Ask(q) => std::slice::from_ref(q),
            Op::Batch(qs) => qs,
        }
    }
}

/// A generated workload: inputs only, nothing about the system.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Every served table.
    pub tables: Vec<Arc<Table>>,
    /// `Table::fingerprint` of every served table, computed once here so
    /// the client never hashes a table per request.
    pub fingerprints: Vec<u64>,
    /// Every served question.
    pub questions: Vec<Question>,
    /// Tables registered during set-up.
    pub setup_tables: Vec<usize>,
    /// Requests sent once during set-up, before anything is timed.
    pub warmup: Vec<Op>,
    /// One closed-loop request stream per connection.
    pub streams: Vec<Vec<Op>>,
    /// Tables of the evaluation set, registered after the load phase.
    pub eval_tables: Vec<usize>,
    /// The evaluation set, one request list per connection: sent once
    /// after the load phase and scored for `acc_ex`. It comes from
    /// [`EVAL_SEED`], not `--seed`, so every run scores the same
    /// questions and `acc_ex` compares exactly across seeds and commits.
    pub eval: Vec<Vec<Op>>,
}

/// Seed of the evaluation set.
pub const EVAL_SEED: u64 = 0xE7A1;

/// How many times faster than the commit that defined the benchmark a
/// commit may answer before it runs a stream out.
const HEADROOM: f64 = 4.0;

/// Questions in one `bulk_unique` batch: 4 tables × 4 questions.
const BATCH_TABLES: usize = 4;

/// `ask_hot`: one request in this many is a fresh question on a cold
/// table, so the miss path (and every model layer) stays in the trace
/// while the hit ratio stays near 98%.
const HOT_COLD_EVERY: usize = 64;

/// `ask_large`: asks each connection sends per table it registers.
const ASKS_PER_LARGE_TABLE: usize = 24;

/// The generated corpus of one split: `(table, distinct questions)`.
type Corpus = Vec<(Arc<Table>, Vec<(Vec<String>, Query)>)>;

/// `tables` generated tables, each with `questions` distinct questions.
/// Over-generates and keeps the first tables that reach the count, so
/// duplicates the generator happens to produce never reach a stream.
fn corpus(
    seed: u64,
    stream: u64,
    tables: usize,
    questions: usize,
    rows: (usize, usize),
) -> Result<Corpus, String> {
    let per_table = questions + questions / 2 + 2;
    let ds = generate(&WikiSqlConfig {
        seed: derive_stream(seed, stream),
        train_tables: 0,
        dev_tables: tables + tables / 8 + 1,
        test_tables: 0,
        questions_per_table: per_table,
        rows,
        ..WikiSqlConfig::default()
    });
    let mut out = Vec::with_capacity(tables);
    for chunk in ds.dev.chunks(per_table) {
        let Some(first) = chunk.first() else { continue };
        let mut seen = BTreeSet::new();
        let distinct: Vec<(Vec<String>, Query)> = chunk
            .iter()
            .filter(|e| seen.insert(e.question.clone()))
            .map(|e| (e.question.clone(), e.query.clone()))
            .take(questions)
            .collect();
        if distinct.len() == questions {
            out.push((Arc::clone(&first.table), distinct));
        }
        if out.len() == tables {
            return Ok(out);
        }
    }
    Err(format!(
        "only {} of {tables} generated tables have {questions} distinct questions",
        out.len()
    ))
}

/// [`corpus`] with table sizes on a fixed schedule across `rows` instead
/// of drawn from the seed: the head of every seed's stream then carries
/// the same mix of table sizes, and only the contents differ.
fn sized_corpus(
    seed: u64,
    stream: u64,
    tables: usize,
    questions: usize,
    rows: (usize, usize),
) -> Result<Corpus, String> {
    let mut out = Vec::with_capacity(tables);
    for t in 0..tables {
        let n = rows.0 + (t * 37 % 64) * (rows.1 - rows.0) / 63;
        out.extend(corpus(
            seed,
            stream + 1000 * (t as u64 + 1),
            1,
            questions,
            (n, n),
        )?);
    }
    Ok(out)
}

/// Appends a corpus to the plan; returns per table the indices of its
/// questions. `guided(table, question)` picks the decode mode.
fn add_corpus(
    plan: &mut Plan,
    corpus: Corpus,
    guided: impl Fn(usize, usize) -> bool,
) -> Vec<Vec<usize>> {
    let mut ids = Vec::with_capacity(corpus.len());
    for (t, (table, qs)) in corpus.into_iter().enumerate() {
        let ti = plan.tables.len();
        plan.tables.push(table);
        let mut mine = Vec::with_capacity(qs.len());
        for (j, (tokens, gold)) in qs.into_iter().enumerate() {
            mine.push(plan.questions.len());
            plan.questions.push(Question {
                table: ti,
                tokens,
                gold,
                guided: guided(t, j),
            });
        }
        ids.push(mine);
    }
    ids
}

impl Plan {
    /// Generates the workload's inputs from `seed`, plus its fixed
    /// evaluation set.
    pub fn from_seed(workload: Workload, seed: u64, sizes: &Sizes) -> Result<Plan, String> {
        let mut plan = Plan::seeded(workload, seed, 0, sizes)?;
        let (tables, per_conn) = sizes.eval;
        let eval = Plan::seeded(workload, EVAL_SEED, 50, &Sizes { tables, ..*sizes })?;
        let (t0, q0) = (plan.tables.len(), plan.questions.len());
        let shift = |op: &Op| match op {
            Op::Register(t) => Op::Register(t + t0),
            Op::Ask(q) => Op::Ask(q + q0),
            Op::Batch(qs) => Op::Batch(qs.iter().map(|q| q + q0).collect()),
        };
        plan.eval_tables = eval.setup_tables.iter().map(|t| t + t0).collect();
        plan.eval = eval
            .streams
            .iter()
            .map(|stream| {
                let mut asked = 0;
                stream
                    .iter()
                    .take_while(|op| {
                        asked += usize::from(!op.questions().is_empty());
                        asked <= per_conn
                    })
                    .map(shift)
                    .collect()
            })
            .collect();
        plan.tables.extend(eval.tables);
        plan.questions
            .extend(eval.questions.into_iter().map(|q| Question {
                table: q.table + t0,
                ..q
            }));
        plan.fingerprints = plan.tables.iter().map(|t| t.fingerprint()).collect();
        Ok(plan)
    }

    /// One plan from `seed`; `salt` separates the evaluation corpus from
    /// the streams' even when the two seeds coincide.
    fn seeded(workload: Workload, seed: u64, salt: u64, sizes: &Sizes) -> Result<Plan, String> {
        let mut plan = Plan {
            workload,
            tables: Vec::new(),
            fingerprints: Vec::new(),
            questions: Vec::new(),
            setup_tables: Vec::new(),
            warmup: Vec::new(),
            streams: vec![Vec::new(); workload.connections()],
            eval_tables: Vec::new(),
            eval: Vec::new(),
        };
        let stream_base = 100 * (workload as u64 + 1) + salt;
        let stream_corpus = |extra: usize| {
            corpus(
                seed,
                stream_base,
                sizes.tables + extra,
                sizes.questions,
                sizes.rows,
            )
        };
        match workload {
            Workload::BulkUnique => {
                // The last batch's worth of tables only warms up.
                let ids = add_corpus(&mut plan, stream_corpus(BATCH_TABLES)?, |_, j| j % 4 == 3);
                let (stream, warm) = ids.split_at(ids.len().saturating_sub(BATCH_TABLES));
                plan.setup_tables = (0..plan.tables.len()).collect();
                plan.warmup = vec![Op::Batch(
                    warm.iter()
                        .flat_map(|q| q.iter().take(4))
                        .copied()
                        .collect(),
                )];
                for round in 0..sizes.questions / 4 {
                    for group in stream.chunks_exact(BATCH_TABLES) {
                        let batch = group
                            .iter()
                            .flat_map(|q| &q[4 * round..4 * round + 4])
                            .copied()
                            .collect();
                        plan.streams[0].push(Op::Batch(batch));
                    }
                }
            }
            Workload::AskUnique => {
                let ids = add_corpus(&mut plan, stream_corpus(2)?, |t, j| (t + j) % 4 == 3);
                let (stream, warm) = ids.split_at(ids.len().saturating_sub(2));
                plan.setup_tables = (0..plan.tables.len()).collect();
                plan.warmup = warm.iter().map(|q| Op::Batch(q.clone())).collect();
                // Consecutive asks of a connection target different tables.
                for j in 0..sizes.questions {
                    for (t, q) in stream.iter().enumerate() {
                        plan.streams[t % 2].push(Op::Ask(q[j]));
                    }
                }
            }
            Workload::AskHot => {
                let (hot_tables, hot_questions) = sizes.hot;
                let hot = corpus(seed, stream_base + 1, hot_tables, hot_questions, sizes.rows)?;
                let hot = add_corpus(&mut plan, hot, |_, j| j % 4 == 3);
                let cold = add_corpus(&mut plan, stream_corpus(0)?, |t, j| (t + j) % 4 == 3);
                plan.setup_tables = (0..plan.tables.len()).collect();
                // Pool index p walks tables first, so the skewed head of
                // the pool spreads over every hot table.
                let pool: Vec<usize> = (0..hot_questions)
                    .flat_map(|j| hot.iter().map(move |q| q[j]))
                    .collect();
                // One warm-up batch per table: the engine fans a table's
                // questions out over the pool.
                plan.warmup = hot.iter().map(|q| Op::Batch(q.clone())).collect();
                let cold: Vec<usize> = (0..sizes.questions)
                    .flat_map(|j| cold.iter().map(move |q| q[j]))
                    .collect();
                let per_conn = cold.len() / 2 * HOT_COLD_EVERY;
                for (c, stream) in plan.streams.iter_mut().enumerate() {
                    let mut rng = Rng::for_stream(derive_stream(seed, stream_base + 2), c as u64);
                    for i in 0..per_conn {
                        stream.push(if i % HOT_COLD_EVERY == HOT_COLD_EVERY - 1 {
                            Op::Ask(cold[(i / HOT_COLD_EVERY) * 2 + c])
                        } else {
                            Op::Ask(pool[skewed_draw(&mut rng, pool.len())])
                        });
                    }
                }
            }
            Workload::AskLarge => {
                let large = sized_corpus(
                    seed,
                    stream_base,
                    sizes.tables + 1,
                    sizes.questions,
                    sizes.rows,
                )?;
                let ids = add_corpus(&mut plan, large, |_, j| j % 2 == 1);
                let (stream, warm) = ids.split_at(ids.len().saturating_sub(1));
                plan.setup_tables = (stream.len()..plan.tables.len()).collect();
                plan.warmup = warm
                    .iter()
                    .map(|q| Op::Batch(q[..q.len().min(8)].to_vec()))
                    .collect();
                for (t, q) in stream.iter().enumerate() {
                    let conn = &mut plan.streams[t % 2];
                    conn.push(Op::Register(t));
                    conn.extend(q.iter().take(ASKS_PER_LARGE_TABLE).map(|&i| Op::Ask(i)));
                }
            }
        }
        if plan.streams.iter().any(Vec::is_empty) || plan.warmup.is_empty() {
            return Err(format!(
                "{}: corpus too small for the requested sizes {sizes:?}",
                workload.name()
            ));
        }
        Ok(plan)
    }

    /// The table a question is asked against.
    pub fn table_of(&self, question: usize) -> Option<&Arc<Table>> {
        self.questions
            .get(question)
            .and_then(|q| self.tables.get(q.table))
    }
}

/// The minimum of three uniform draws over `0..n`: index `i` is drawn
/// with probability falling off quadratically, so the first quarter of
/// the pool takes about 58% of the draws.
fn skewed_draw(rng: &mut Rng, n: usize) -> usize {
    let a = rng.gen_range(0..n);
    let b = rng.gen_range(0..n);
    let c = rng.gen_range(0..n);
    a.min(b).min(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stream questions of the small plans these tests generate.
    const QUESTIONS: usize = 64;

    fn all_plans(seed: u64) -> Vec<Plan> {
        Workload::ALL
            .iter()
            .map(|&w| Plan::from_seed(w, seed, &w.tiny_sizes(QUESTIONS)).expect("tiny plan"))
            .collect()
    }

    /// One request as a comparable value.
    fn describe(plan: &Plan, op: &Op) -> String {
        match op {
            Op::Register(t) => format!("register {}", plan.fingerprints[*t]),
            _ => op
                .questions()
                .iter()
                .map(|&q| {
                    let q = &plan.questions[q];
                    format!(
                        "{}:{}:{}",
                        plan.fingerprints[q.table],
                        q.tokens.join(" "),
                        q.guided
                    )
                })
                .collect::<Vec<_>>()
                .join("|"),
        }
    }

    /// The frames a plan would send.
    fn frames(plan: &Plan) -> Vec<String> {
        let all = plan
            .streams
            .iter()
            .chain([&plan.warmup])
            .chain(&plan.eval)
            .flatten();
        all.map(|op| describe(plan, op)).collect()
    }

    #[test]
    fn workload_generation_is_a_pure_function_of_the_seed() {
        let (a, b, c) = (all_plans(11), all_plans(11), all_plans(12));
        for ((x, y), z) in a.iter().zip(&b).zip(&c) {
            let name = x.workload.name();
            assert_eq!(frames(x), frames(y), "{name}: same seed, different frames");
            assert_ne!(
                frames(x),
                frames(z),
                "{name}: a different seed gave the same frames"
            );
        }
    }

    #[test]
    fn the_evaluation_set_does_not_depend_on_the_seed() {
        for w in Workload::ALL {
            let sizes = w.tiny_sizes(QUESTIONS);
            let eval = |seed: u64| {
                let plan = Plan::from_seed(w, seed, &sizes).expect("tiny plan");
                let ops: Vec<String> = plan
                    .eval
                    .iter()
                    .flatten()
                    .map(|op| describe(&plan, op))
                    .collect();
                let asks = plan
                    .eval
                    .iter()
                    .flatten()
                    .filter(|op| !op.questions().is_empty())
                    .count();
                (ops, asks)
            };
            let (a, asks) = eval(1);
            assert_eq!(
                a,
                eval(2).0,
                "{}: the evaluation set moved with the seed",
                w.name()
            );
            assert_eq!(
                asks,
                sizes.eval.1 * w.connections(),
                "{}: evaluation size",
                w.name()
            );
        }
    }

    #[test]
    fn unique_streams_never_repeat_a_question() {
        for plan in all_plans(5) {
            if plan.workload == Workload::AskHot {
                continue;
            }
            let mut seen = BTreeSet::new();
            for op in plan
                .streams
                .iter()
                .chain([&plan.warmup])
                .chain(&plan.eval)
                .flatten()
            {
                for &q in op.questions() {
                    let q = &plan.questions[q];
                    let key = (plan.tables[q.table].fingerprint(), q.tokens.clone());
                    assert!(
                        seen.insert(key),
                        "{}: question repeats",
                        plan.workload.name()
                    );
                }
            }
        }
    }

    #[test]
    fn full_size_streams_are_distinct_and_shaped_as_documented() {
        let sizes = Workload::AskUnique.full_sizes(10);
        let plan = Plan::from_seed(Workload::AskUnique, 3, &sizes).expect("full ask_unique plan");
        let mut seen = BTreeSet::new();
        for op in plan.streams.iter().flatten() {
            let q = &plan.questions[op.questions()[0]];
            assert!(
                seen.insert((q.table, q.tokens.clone())),
                "ask_unique repeats a question"
            );
        }
        assert_eq!(seen.len(), sizes.tables * sizes.questions);
        assert!(
            seen.len() as f64 >= Workload::AskUnique.stream_rate() * 10.0,
            "the streams hold the questions of a 10 s window"
        );
        let guided = plan.questions.iter().filter(|q| q.guided).count();
        assert_eq!(
            guided * 4,
            plan.questions.len(),
            "a quarter of the asks are guided"
        );

        let bulk = Plan::from_seed(
            Workload::BulkUnique,
            3,
            &Workload::BulkUnique.full_sizes(10),
        )
        .expect("full bulk plan");
        for op in &bulk.streams[0] {
            let Op::Batch(items) = op else {
                panic!("bulk sends only batches")
            };
            let tables: BTreeSet<usize> = items.iter().map(|&q| bulk.questions[q].table).collect();
            assert_eq!((items.len(), tables.len()), (16, 4));
            assert_eq!(
                items.iter().filter(|&&q| bulk.questions[q].guided).count(),
                4
            );
        }
    }

    #[test]
    fn ask_hot_skew_puts_most_draws_on_the_top_quarter() {
        let plan = Plan::from_seed(Workload::AskHot, 9, &Workload::AskHot.full_sizes(10))
            .expect("full ask_hot plan");
        // The warm-up holds one batch per hot table; the pool walks
        // tables first.
        let per_table: Vec<&[usize]> = plan.warmup.iter().map(Op::questions).collect();
        let pool: Vec<usize> = (0..16)
            .flat_map(|j| per_table.iter().map(move |b| b[j]))
            .collect();
        assert_eq!((per_table.len(), pool.len()), (16, 256));
        let top: BTreeSet<usize> = pool[..64].iter().copied().collect();
        let (mut draws, mut on_top, mut cold) = (0usize, 0usize, 0usize);
        for op in plan.streams.iter().flatten() {
            let q = op.questions()[0];
            if pool.contains(&q) {
                draws += 1;
                on_top += usize::from(top.contains(&q));
            } else {
                cold += 1;
            }
        }
        assert!(
            on_top * 2 > draws,
            "top 64 took only {on_top} of {draws} draws"
        );
        assert_eq!(
            cold * HOT_COLD_EVERY,
            draws + cold,
            "one request in 64 is cold"
        );
    }

    #[test]
    fn ask_large_registers_before_every_run_of_asks() {
        let plan = Plan::from_seed(
            Workload::AskLarge,
            4,
            &Workload::AskLarge.tiny_sizes(QUESTIONS),
        )
        .expect("tiny ask_large plan");
        for stream in &plan.streams {
            let Some(Op::Register(first)) = stream.first() else {
                panic!("stream must register first")
            };
            let mut current = *first;
            for op in stream {
                match op {
                    Op::Register(t) => current = *t,
                    Op::Ask(q) => assert_eq!(plan.questions[*q].table, current),
                    Op::Batch(_) => panic!("ask_large sends no batches"),
                }
            }
        }
        let rows = plan.tables.iter().map(|t| t.num_rows()).min().unwrap_or(0);
        assert!(rows >= 60, "tiny large tables keep their row floor");
    }
}
