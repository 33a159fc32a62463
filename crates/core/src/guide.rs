//! Execution-guided decoding (ROADMAP item 3): judge beam candidates by
//! actually running them.
//!
//! The pipeline owns the executor (`nlidb-storage`), so decode time can
//! use a signal no learned reranker provides for free: *does this
//! candidate run, and does it return anything?* The guided path decodes
//! the ranked beam exactly as the unguided one does, then the repair
//! walk of [`ExecutionGuide`] goes through it in the model's rank order.
//! Each candidate the walk reaches is decoded to annotated SQL,
//! recovered against the question's [`AnnotationMap`], and executed
//! against the target table; candidates the walk never reaches are never
//! run. The verdict ([`GuideVerdict`]) is memoized per token sequence. It
//! picks which ranked candidate
//! [`Nlidb::predict_guided`](crate::pipeline::Nlidb::predict_guided)
//! commits and never reorders the beam itself. An executing top
//! candidate therefore costs one execution, and no question costs more
//! than one per beam candidate plus the fallback query's.
//!
//! ## Pruning rules
//!
//! - [`GuideVerdict::Unrecoverable`] — `s^a` references a slot the
//!   detector did not produce; there is no query to run.
//! - [`GuideVerdict::Error`] — recovery succeeds but execution raises
//!   [`ExecError`](nlidb_storage::ExecError) (bad column, non-numeric aggregate, NaN input).
//! - [`GuideVerdict::Vacuous`] — execution succeeds but the result is
//!   *provably empty* ([`ResultSet::is_vacuous`](nlidb_storage::ResultSet::is_vacuous)): zero rows, or all
//!   NULLs (the numeric-aggregate-over-empty marker). `COUNT` answers
//!   are integers, so a zero count is [`GuideVerdict::Pass`], never
//!   pruned.
//! - [`GuideVerdict::Pass`] — executes to a non-vacuous result.
//!
//! ## Observability
//!
//! Every judgement runs under the `decode.guide.check` span and bumps
//! the `decode.guide.*` counters (`checks`, `memo_hits`, `pass`,
//! `vacuous`, `exec_errors`, `unrecoverable`), and the walk counts the
//! step that committed (`decode.guide.repair.*`). Because judging *is*
//! executing, guide activity also shows up in the existing `storage.*`
//! executor counters (`storage.queries`, `storage.rows_scanned`, …) —
//! the cost of guidance is visible end to end in one trace.

use std::collections::BTreeMap;

use nlidb_sqlir::{recover, AnnotationMap, Query};
use nlidb_storage::{execute, Table};

use crate::vocab::OutVocab;

/// The guide's classification of one completed beam candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuideVerdict {
    /// Recovers and executes to a non-vacuous result — committable.
    Pass,
    /// Recovers and executes, but the result is provably empty (see
    /// [`ResultSet::is_vacuous`](nlidb_storage::ResultSet::is_vacuous)). Preferable to an error, worse than
    /// any [`GuideVerdict::Pass`].
    Vacuous,
    /// Recovers into a [`Query`] whose execution raises [`ExecError`](nlidb_storage::ExecError).
    Error,
    /// The decoded annotated SQL does not recover into a query at all.
    Unrecoverable,
}

/// Judges candidates by recovering and executing them against the
/// target table, memoizing one verdict per token sequence (the repair
/// walk passes over the beam twice, once for [`GuideVerdict::Pass`] and
/// once for [`GuideVerdict::Vacuous`]).
pub struct ExecutionGuide<'a> {
    out_vocab: &'a OutVocab,
    map: &'a AnnotationMap,
    table: &'a Table,
    memo: BTreeMap<Vec<usize>, GuideVerdict>,
}

impl<'a> ExecutionGuide<'a> {
    /// Builds a guide for one question (its annotation map) against one
    /// target table.
    pub fn new(out_vocab: &'a OutVocab, map: &'a AnnotationMap, table: &'a Table) -> Self {
        ExecutionGuide { out_vocab, map, table, memo: BTreeMap::new() }
    }

    /// Judges a candidate token sequence, memoized. The verdict is a
    /// pure function of `(sequence, annotation map, table)`, so the
    /// memo can only change *when* work happens, never the verdict.
    pub fn verdict(&mut self, seq: &[usize]) -> GuideVerdict {
        if let Some(&v) = self.memo.get(seq) {
            nlidb_trace::count("decode.guide.memo_hits", 1);
            return v;
        }
        let v = {
            let _t = nlidb_trace::span("decode.guide.check");
            self.judge(seq)
        };
        if nlidb_trace::enabled() {
            nlidb_trace::count("decode.guide.checks", 1);
            let family = match v {
                GuideVerdict::Pass => "decode.guide.pass",
                GuideVerdict::Vacuous => "decode.guide.vacuous",
                GuideVerdict::Error => "decode.guide.exec_errors",
                GuideVerdict::Unrecoverable => "decode.guide.unrecoverable",
            };
            nlidb_trace::count(family, 1);
        }
        self.memo.insert(seq.to_vec(), v);
        v
    }

    /// The recovered query for a candidate (`None` exactly when its
    /// verdict is [`GuideVerdict::Unrecoverable`]).
    pub fn recovered(&self, seq: &[usize]) -> Option<Query> {
        recover(&self.out_vocab.decode(seq), self.map).ok()
    }

    /// Steps 1–5 of the repair walk documented on
    /// [`Nlidb::predict_guided`](crate::pipeline::Nlidb::predict_guided),
    /// over the ranked candidates, judging only those the walk reaches.
    /// `fallback` is the slot-built query for the same annotation map.
    /// `None` means no step committed, and the caller answers with the
    /// unguided prediction (step 6).
    pub(crate) fn repair(
        &mut self,
        ranked: &[Vec<usize>],
        mut fallback: Option<Query>,
    ) -> Option<Query> {
        let top = ranked.first();
        let top_verdict = top.map(|t| self.verdict(t));
        // An executing top candidate — vacuous or not — is committed
        // as-is; repair engages only when the unguided answer fails.
        if matches!(top_verdict, Some(GuideVerdict::Pass | GuideVerdict::Vacuous)) {
            nlidb_trace::count("decode.guide.repair.top", 1);
            return top.and_then(|t| self.recovered(t));
        }
        let table = self.table;
        let runs = |q: &Query| execute(table, q).is_ok();
        // An unrecoverable decode means the unguided answer *is* the
        // slot-built fallback; when that executes there is nothing to
        // repair, and the detector's evidence outranks lower-ranked
        // candidates from the same broken search. Taking the query leaves
        // step 5 nothing to re-run: it would fail the same way again.
        if top_verdict != Some(GuideVerdict::Error) {
            if let Some(q) = fallback.take().filter(runs) {
                nlidb_trace::count("decode.guide.repair.fallback", 1);
                return Some(q);
            }
        }
        for (want, step) in [
            (GuideVerdict::Pass, "decode.guide.repair.beam"),
            (GuideVerdict::Vacuous, "decode.guide.repair.vacuous"),
        ] {
            for seq in ranked.iter().skip(1) {
                if self.verdict(seq) == want {
                    nlidb_trace::count(step, 1);
                    return self.recovered(seq);
                }
            }
        }
        let q = fallback.filter(runs)?;
        nlidb_trace::count("decode.guide.repair.fallback", 1);
        Some(q)
    }

    fn judge(&self, seq: &[usize]) -> GuideVerdict {
        let sa = self.out_vocab.decode(seq);
        match recover(&sa, self.map) {
            Err(_) => GuideVerdict::Unrecoverable,
            Ok(q) => match execute(self.table, &q) {
                Err(_) => GuideVerdict::Error,
                Ok(rs) if rs.is_vacuous() => GuideVerdict::Vacuous,
                Ok(_) => GuideVerdict::Pass,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use nlidb_sqlir::{AnnTok, AnnotatedSql, CmpOp, Slot};
    use nlidb_storage::{Column, DataType, Schema, Value};

    fn table() -> Table {
        let schema = Schema::new(vec![
            Column::new("Name", DataType::Text),
            Column::new("Score", DataType::Int),
        ]);
        let mut t = Table::new("t", schema);
        t.push_row(vec![Value::Text("a".into()), Value::Int(1)]);
        t.push_row(vec![Value::Text("b".into()), Value::Int(3)]);
        t
    }

    fn map() -> AnnotationMap {
        AnnotationMap {
            slots: vec![
                Slot { column: Some(1), value: None },
                Slot { column: Some(0), value: Some("a".into()) },
            ],
            headers: vec![0, 1],
        }
    }

    /// Encodes an annotated SQL into out-vocab ids (no EOS — decode
    /// candidates carry none).
    fn ids(ov: &OutVocab, sa: &AnnotatedSql) -> Vec<usize> {
        let mut v = ov.encode(sa);
        v.pop(); // strip EOS
        v
    }

    /// One candidate per verdict against [`table`] and [`map`], in the
    /// order pass, vacuous, error, unrecoverable.
    fn candidates(ov: &OutVocab) -> [Vec<usize>; 4] {
        use AnnTok::{Op, Select, Where, C, G, V};
        [
            // SELECT c0 WHERE c1 = v1 → the "a" row's score.
            ids(ov, &AnnotatedSql(vec![Select, C(0), Where, C(1), Op(CmpOp::Eq), V(1)])),
            // Condition value "a" never matches the Score column.
            ids(ov, &AnnotatedSql(vec![Select, C(0), Where, C(0), Op(CmpOp::Eq), V(1)])),
            // SUM over the text Name column: recovers, then ExecError.
            ids(ov, &AnnotatedSql(vec![Select, AnnTok::Agg(nlidb_sqlir::Agg::Sum), G(0)])),
            // References slot c5, which the map does not carry.
            ids(ov, &AnnotatedSql(vec![Select, C(5)])),
        ]
    }

    #[test]
    fn verdicts_cover_all_four_outcomes() {
        let ov = OutVocab::new(&ModelConfig::tiny());
        let (t, m) = (table(), map());
        let mut guide = ExecutionGuide::new(&ov, &m, &t);
        let [pass, vac, err, unrec] = candidates(&ov);
        assert_eq!(guide.verdict(&pass), GuideVerdict::Pass);
        assert!(guide.recovered(&pass).is_some());
        assert_eq!(guide.verdict(&vac), GuideVerdict::Vacuous);
        assert_eq!(guide.verdict(&err), GuideVerdict::Error);
        assert_eq!(guide.verdict(&unrec), GuideVerdict::Unrecoverable);
        assert!(guide.recovered(&unrec).is_none());
    }

    #[test]
    fn verdicts_are_memoized_and_stable() {
        let ov = OutVocab::new(&ModelConfig::tiny());
        let (t, m) = (table(), map());
        let mut guide = ExecutionGuide::new(&ov, &m, &t);
        let seq = ids(&ov, &AnnotatedSql(vec![AnnTok::Select, AnnTok::C(0)]));
        let first = guide.verdict(&seq);
        for _ in 0..3 {
            assert_eq!(guide.verdict(&seq), first);
        }
        assert_eq!(guide.memo.len(), 1, "one memo entry per distinct sequence");
    }

    #[test]
    fn repair_walks_the_documented_steps_judging_only_what_it_reaches() {
        let ov = OutVocab::new(&ModelConfig::tiny());
        let (t, m) = (table(), map());
        let [pass, vac, err, unrec] = candidates(&ov);
        let fallback = Some(Query::select(1));
        let recovered = |seq: &[usize]| ExecutionGuide::new(&ov, &m, &t).recovered(seq);
        // The committed query, and how many candidates were judged.
        let walk = |ranked: &[&[usize]], fallback: Option<Query>| {
            let mut guide = ExecutionGuide::new(&ov, &m, &t);
            let ranked: Vec<Vec<usize>> = ranked.iter().map(|s| s.to_vec()).collect();
            let q = guide.repair(&ranked, fallback);
            (q, guide.memo.len())
        };
        // 1. An executing top candidate, even a vacuous one, after one check.
        assert_eq!(walk(&[&vac, &pass], fallback.clone()), (recovered(&vac), 1));
        // 2. An unrecoverable (or missing) top defers to a running fallback.
        assert_eq!(walk(&[&unrec, &pass], fallback.clone()), (fallback.clone(), 1));
        assert_eq!(walk(&[], fallback.clone()), (fallback.clone(), 0));
        // 3. After a failing top, the best remaining Pass ...
        assert_eq!(walk(&[&err, &vac, &pass], fallback.clone()), (recovered(&pass), 3));
        // 4. ... else the best remaining Vacuous ...
        assert_eq!(walk(&[&err, &vac], fallback.clone()), (recovered(&vac), 2));
        // 5. ... else the fallback, if it runs ...
        assert_eq!(walk(&[&err, &unrec], fallback.clone()), (fallback, 2));
        // 6. ... else nothing: the caller commits the unguided answer.
        assert_eq!(walk(&[&err], None), (None, 1));
    }
}
