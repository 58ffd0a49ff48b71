//! `rstar_am`: a baseline access method over `GRT_TimeExtent_t` backed
//! by a plain R\*-tree — the stand-in for "Informix's own predefined
//! R-tree access method" and the comparison point of the GR-tree
//! evaluation.
//!
//! `UC`/`NOW` are grounded with a [`NowStrategy`] at insertion; index
//! probes test bounding rectangles only, so every candidate must be
//! **refined**: the base row is fetched and the exact bitemporal
//! predicate evaluated. The extra base-table fetches per false positive
//! are precisely the overhead the GR-tree eliminates. Everything else
//! is the shared purpose-function bodies of `tree_am` and `purpose`.

use crate::curtime::CurrentTimePolicy;
use crate::extent_type::{extent_from_ref, extent_of_row, TYPE_NAME};
use crate::purpose::purpose_functions;
use crate::qual::{Probe, Qual};
use crate::tree_am::{Event, TreeAm};
use grt_ids::heap;
use grt_ids::{AmContext, IdsError, IndexDescriptor, QualDescriptor, RowId, Value, ValueRef};
use grt_rstar::bitemporal::NowStrategy;
use grt_rstar::{RStarOptions, Rect2, RectKey, SpatialPredicate};
use grt_sbspace::{LoId, LockMode, PageSource};
use grt_temporal::{Day, Predicate};
use grt_treekit::{Meta, Tree, TreeError};

/// The baseline access method.
pub struct RStarBitemporalAm {
    /// How `UC`/`NOW` are grounded.
    pub strategy: NowStrategy,
    /// R\*-tree construction parameters.
    pub tree_opts: RStarOptions,
    /// Current-time policy (shared with the GR-tree blade).
    pub curtime: CurrentTimePolicy,
}

impl RStarBitemporalAm {
    /// A max-timestamp baseline with the given fan-out.
    pub fn max_timestamp(tree_opts: RStarOptions) -> RStarBitemporalAm {
        RStarBitemporalAm {
            strategy: NowStrategy::MaxTimestamp,
            tree_opts,
            curtime: CurrentTimePolicy::PerStatement,
        }
    }
}

/// What a refining scan carries beside the cursor.
pub(crate) struct Refinement {
    /// The base table for refinement fetches: an S-locked handle on the
    /// locked path, a frozen page-table view on the snapshot path.
    heap: Box<dyn PageSource + Send>,
    column_pos: usize,
    /// Candidates examined (refinement fetches) — the inefficiency
    /// metric the benchmarks report.
    candidates: u64,
    matches: u64,
}

impl TreeAm for RStarBitemporalAm {
    type Key = RectKey;
    type Qual = Qual;
    type Probe = Probe;
    type Scan = Refinement;
    /// Refinement reads the row itself, so the rowid identifies a hit.
    type Seen = u64;

    const NAME: &'static str = "rstar_am";
    const COLUMN_TYPE: &'static str = TYPE_NAME;
    const PREFIX: &'static str = "rstar";

    fn curtime(&self) -> CurrentTimePolicy {
        self.curtime
    }

    fn header(&self) -> Meta<RectKey> {
        self.tree_opts.header()
    }

    fn ctx(_: Day) {}

    fn key_of(&self, row: &[Value], ct: Day) -> Result<Rect2, IdsError> {
        Ok(self.strategy.to_rect(&extent_of_row(row)?, ct))
    }

    fn compile(&self, qual: &QualDescriptor) -> Result<Qual, IdsError> {
        Qual::compile(qual)
    }

    fn probes(&self, qual: &Qual) -> Result<Vec<Probe>, IdsError> {
        qual.probes()
    }

    /// The rectangle-level probe for a bitemporal probe. Only Contains
    /// (uncommuted) can use a stronger rectangle test; everything else
    /// must fall back to overlap to avoid false negatives.
    fn query(&self, probe: &Probe, ct: Day) -> (SpatialPredicate, Rect2) {
        let pred = match probe.pred {
            Predicate::Contains => SpatialPredicate::Contains,
            _ => SpatialPredicate::Overlap,
        };
        (pred, self.strategy.query_rect(&probe.query, ct))
    }

    fn begin(&self, idx: &IndexDescriptor, ctx: &AmContext) -> Result<Refinement, IdsError> {
        let param = |name: &str| idx.params.get(name).and_then(|s| s.parse::<u32>().ok());
        let table_lo = LoId(
            param("table_lo")
                .ok_or_else(|| IdsError::AccessMethod("missing table_lo parameter".into()))?,
        );
        // The refinement heap: frozen view on the snapshot path (no
        // LO-level S lock), locked handle otherwise.
        let heap: Box<dyn PageSource + Send> = match ctx.snapshot.as_deref() {
            Some(snap) => Box::new(snap.reader(table_lo)?),
            None => Box::new(ctx.space.open_lo(ctx.txn, table_lo, LockMode::Shared)?),
        };
        Ok(Refinement {
            heap,
            column_pos: param("column_pos").unwrap_or(0) as usize,
            candidates: 0,
            matches: 0,
        })
    }

    fn end(&self, scan: Refinement, ctx: &AmContext) {
        ctx.trace.emit_with("RSTAR", 2, || {
            format!(
                "scan finished: {} candidates, {} matches",
                scan.candidates, scan.matches
            )
        });
    }

    fn seen(_rect: &Rect2, rowid: u64) -> u64 {
        rowid
    }

    /// Refinement: read the base row's extent where it lies on the
    /// pinned heap page and apply the exact bitemporal predicate.
    fn recheck(
        &self,
        scan: &mut Refinement,
        qual: &Qual,
        _rect: &Rect2,
        rowid: u64,
        ct: Day,
    ) -> Result<bool, IdsError> {
        scan.candidates += 1;
        let heap_src: &(dyn PageSource + Send) = scan.heap.as_ref();
        let column = scan.column_pos;
        let stored = heap::fetch_with(&heap_src, RowId(rowid), |row| {
            extent_from_ref(ValueRef::column(row, column)?)
        })?;
        let matched = stored.is_some_and(|e| qual.eval(&e, ct));
        scan.matches += matched as u64;
        Ok(matched)
    }

    fn area(&self, bound: &Rect2, _ct: Day) -> i128 {
        bound.area()
    }

    fn overlap(&self, bound: &Rect2, probe: &Probe, ct: Day) -> i128 {
        bound.overlap_area(&self.strategy.query_rect(&probe.query, ct))
    }

    fn quality(&self, tree: &Tree<RectKey>, _ct: Day) -> Result<String, TreeError> {
        let q = tree.quality((), |_| ())?;
        Ok(format!(
            ", dead space {}, overlap {}",
            q.total_dead_space(),
            q.total_overlap()
        ))
    }

    fn trace(&self, ctx: &AmContext, event: Event<'_>) {
        // Once per build, so the line is formatted whether or not the
        // class is on.
        if let Event::Built(count) = event {
            let line = format!("bulk build: {count} entries packed");
            ctx.trace.emit("RSTAR", 2, line);
        }
    }
}

purpose_functions!(RStarBitemporalAm);
