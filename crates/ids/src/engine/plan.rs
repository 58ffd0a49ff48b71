//! Phase 3 of statement execution — plan: the read path (a frozen space
//! snapshot or LO locks) and the access path (an index or the heap),
//! both chosen over the statement's [`TableBinding`] — the catalog is
//! not consulted again.

use super::resolve::TableBinding;
use super::{Connection, Stmt};
use crate::heap;
use crate::planner::{self, Candidate, Plan};
use crate::prepare::{CompiledStatement, PlanChoice, PlanMemo};
use crate::sql::Expr;
use crate::value::DataType;
use crate::Result;
use grt_sbspace::{IsolationLevel, LockMode, SpaceSnapshot};
use std::sync::Arc;

impl Connection {
    /// Decides whether the statement about to read the bound table can
    /// run on a frozen space snapshot instead of the LO-locked path,
    /// and takes (or reuses) that snapshot. `None` means the locked
    /// path: the explicit transaction has written (its own writes must
    /// be visible), an index on the table does not support snapshot
    /// traversal, a REPEATABLE READ pinned snapshot does not cover this
    /// table, or the snapshot could not be taken (e.g. an LO created in
    /// a still-open transaction has no published state to freeze).
    pub(super) fn statement_snapshot(
        &self,
        st: &mut Stmt,
        binding: &TableBinding,
    ) -> Option<Arc<SpaceSnapshot>> {
        if st.explicit.as_ref().is_some_and(|reads| reads.wrote) {
            return None;
        }
        // The statement's view: the heap plus every index fragment. All
        // indexes must opt in — one locked index would deadlock the
        // statement against itself on a mixed plan.
        let mut los = vec![binding.table.lo];
        for ix in &binding.indexes {
            if !ix.am.handler.am_supports_snapshot() {
                return None;
            }
            los.push(ix.fragment?);
        }
        let space = &self.db.inner.space;
        match &mut st.explicit {
            Some(reads) if *self.iso.lock() == IsolationLevel::RepeatableRead => {
                // One consistent view for the whole transaction: reuse
                // the pinned snapshot when it covers this statement's
                // objects, and never mix epochs — a table outside the
                // pinned view reads through the locked path instead.
                if let Some(s) = &reads.pinned {
                    return los.iter().all(|&lo| s.contains(lo)).then(|| Arc::clone(s));
                }
                reads.pinned = Some(Arc::new(space.snapshot_for(&los).ok()?));
                reads.pinned.clone()
            }
            _ => space.snapshot_for(&los).ok().map(Arc::new),
        }
    }

    /// The access path for a WHERE clause over the bound table. The
    /// compiled statement memoizes the *choice*; a hit rebuilds the
    /// concrete plan for that choice against the binding and the bound
    /// values, skipping the candidate search and the `am_scancost`
    /// round trips. DDL invalidation clears the memo, and a memo that
    /// no longer matches the binding (the index vanished between
    /// invalidation and replanning) falls back to fresh planning.
    pub(super) fn plan(
        &self,
        st: &Stmt,
        compiled: &CompiledStatement,
        binding: &TableBinding,
        where_clause: Option<&Expr>,
    ) -> Result<Plan> {
        let cache = &self.db.inner.plan_cache;
        let table = &binding.table.name;
        let memo = compiled.plan.lock().clone();
        if let Some(memo) = memo {
            // Index-vs-seq is a function of the bound values (a narrow
            // probe favors the index, a full-range one the heap sweep):
            // reuse the memo only for the bindings it was costed for,
            // until enough re-costs agree that the choice is generic.
            if memo.serves(where_clause) {
                if let Some(plan) = self.rebuild_plan(st, &memo.choice, binding, where_clause) {
                    cache.hits.inc();
                    self.count_plan(&plan);
                    st.explain(|| format!("{table}: plan: cached"));
                    return Ok(plan);
                }
            }
        }
        cache.misses.inc();
        let plan = self.plan_fresh(st, binding, where_clause)?;
        self.count_plan(&plan);
        st.explain(|| format!("{table}: plan: fresh"));
        let choice = match &plan {
            Plan::SeqScan { .. } => PlanChoice::Seq,
            Plan::IndexScan { index, .. } => PlanChoice::Index(index.clone()),
        };
        let mut slot = compiled.plan.lock();
        let streak = match &*slot {
            Some(prev) if prev.choice == choice => prev.streak + 1,
            _ => 0,
        };
        *slot = Some(PlanMemo {
            binding: where_clause.cloned(),
            choice,
            streak,
        });
        Ok(plan)
    }

    fn count_plan(&self, plan: &Plan) {
        let counters = &self.db.inner.counters;
        match plan {
            Plan::IndexScan { .. } => counters.plans_index.inc(),
            Plan::SeqScan { .. } => counters.plans_seq.inc(),
        }
    }

    /// Rebuilds a concrete plan from a memoized choice. `None` when the
    /// choice no longer applies to the bound table.
    fn rebuild_plan(
        &self,
        st: &Stmt,
        choice: &PlanChoice,
        binding: &TableBinding,
        where_clause: Option<&Expr>,
    ) -> Option<Plan> {
        let PlanChoice::Index(name) = choice else {
            return Some(Plan::SeqScan {
                filter: where_clause.cloned(),
            });
        };
        let fold = |e: &Expr, ty: Option<&DataType>| self.fold_expr(e, ty, &st.am).ok();
        let ix = binding.index(name)?;
        let opclasses = self.db.inner.opclasses.lock();
        planner::candidate_for(&opclasses, &binding.table, &ix.meta, where_clause?, &fold).map(
            |c| Plan::IndexScan {
                index: c.index,
                qual: c.qual,
                residual: c.residual,
            },
        )
    }

    /// Plans a WHERE clause from scratch: enumerate index candidates,
    /// cost them through `am_scancost`, choose.
    fn plan_fresh(
        &self,
        st: &Stmt,
        binding: &TableBinding,
        where_clause: Option<&Expr>,
    ) -> Result<Plan> {
        let table = &binding.table;
        let fold = |e: &Expr, ty: Option<&DataType>| self.fold_expr(e, ty, &st.am).ok();
        let cands: Vec<Candidate> = where_clause.map_or_else(Vec::new, |expr| {
            let opclasses = self.db.inner.opclasses.lock();
            let metas = binding.indexes.iter().map(|ix| &ix.meta);
            metas
                .filter_map(|ix| planner::candidate_for(&opclasses, table, ix, expr, &fold))
                .collect()
        });
        if cands.is_empty() {
            st.explain(|| format!("{}: sequential scan (no index candidates)", table.name));
            return Ok(Plan::SeqScan {
                filter: where_clause.cloned(),
            });
        }
        // The sequential baseline costs one pass over the heap. A
        // snapshot statement must size the heap from its frozen view —
        // opening the heap here would take the very S lock the snapshot
        // path exists to avoid.
        let seq_cost = match st.am.snapshot.as_deref() {
            Some(s) => heap::page_count(&s.reader(table.lo)?) as f64 + 1.0,
            None => {
                let h = self.open_heap(st, table, LockMode::Shared)?;
                heap::page_count(&h) as f64 + 1.0
            }
        };
        let cost_of = |c: &Candidate| -> f64 {
            let ix = binding
                .index(&c.index)
                .expect("a candidate names a bound index");
            let cost = self
                .am_call(st, ix, "am_scancost", |am, td, ctx| {
                    am.am_scancost(td, &c.qual, ctx)
                })
                .unwrap_or(f64::MAX);
            // `am_scancost` runs outside an `am_open` … `am_close`
            // bracket: whatever the blade parked on the descriptor to
            // answer it goes now, so the `am_open` that follows starts
            // from a clean descriptor, as it does everywhere else.
            *ix.desc.user_data.lock() = None;
            st.explain(|| format!("{}: index {} cost {cost:.1}", table.name, c.index));
            cost
        };
        let plan = planner::choose(cands, cost_of, seq_cost, where_clause);
        st.explain(|| match &plan {
            Plan::IndexScan { index, .. } => format!(
                "{}: chose index scan via {index} (seq cost {seq_cost:.1})",
                table.name
            ),
            Plan::SeqScan { .. } => {
                format!("{}: chose sequential scan (cost {seq_cost:.1})", table.name)
            }
        });
        Ok(plan)
    }
}
