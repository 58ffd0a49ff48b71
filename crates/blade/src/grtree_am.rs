//! `grtree_am`: the GR-tree behind the `grt_*` purpose functions.
//!
//! The bodies are the shared ones in `tree_am` and `purpose`; this access
//! method contributes the `GRT_TimeExtent_t` ↔ leaf-key conversion, the
//! qualification decomposition of [`crate::qual`], hits that are exact
//! (the index stores the extents themselves, so no refinement), and
//! the step list of every purpose function in trace class `"GRT"`
//! (level 2), which is how the Table 5 reproduction prints the
//! observed steps of a live index.

use crate::curtime::CurrentTimePolicy;
use crate::extent_type::{extent_of_row, TYPE_NAME};
use crate::purpose::purpose_functions;
use crate::qual::{Probe, Qual};
use crate::tree_am::{DeletePolicy, Event, TreeAm};
use grt_grtree::entry::extent_of;
use grt_grtree::{GrKey, GrQuality, GrQuery, GrTreeOptions};
use grt_ids::{AmContext, IdsError, IndexDescriptor, QualDescriptor, Value};
use grt_temporal::{Day, RegionSpec};
use grt_treekit::{Meta, Tree, TreeError};

/// Blade configuration.
#[derive(Debug, Clone, Copy)]
pub struct GrTreeAmOptions {
    /// GR-tree construction parameters.
    pub tree: GrTreeOptions,
    /// Current-time caching policy (Section 5.4).
    pub curtime: CurrentTimePolicy,
    /// Scan-restart policy (Section 5.5).
    pub delete_policy: DeletePolicy,
}

impl Default for GrTreeAmOptions {
    fn default() -> Self {
        GrTreeAmOptions {
            tree: GrTreeOptions::default(),
            curtime: CurrentTimePolicy::PerStatement,
            delete_policy: DeletePolicy::RestartOnCondense,
        }
    }
}

/// The GR-tree secondary access method.
#[derive(Default)]
pub struct GrTreeAm {
    opts: GrTreeAmOptions,
}

impl GrTreeAm {
    /// Creates the access method with the given options.
    pub fn new(opts: GrTreeAmOptions) -> GrTreeAm {
        GrTreeAm { opts }
    }
}

impl TreeAm for GrTreeAm {
    type Key = GrKey;
    type Qual = Qual;
    type Probe = Probe;
    type Scan = ();
    type Seen = (u64, [u8; 16]);

    const NAME: &'static str = "grtree_am";
    const COLUMN_TYPE: &'static str = TYPE_NAME;
    const PREFIX: &'static str = "grtree";

    fn curtime(&self) -> CurrentTimePolicy {
        self.opts.curtime
    }

    fn delete_policy(&self) -> DeletePolicy {
        self.opts.delete_policy
    }

    fn header(&self) -> Meta<GrKey> {
        self.opts.tree.header()
    }

    fn ctx(ct: Day) -> Day {
        ct
    }

    fn key_of(&self, row: &[Value], _ct: Day) -> Result<RegionSpec, IdsError> {
        Ok(extent_of_row(row)?.spec())
    }

    fn compile(&self, qual: &QualDescriptor) -> Result<Qual, IdsError> {
        Qual::compile(qual)
    }

    fn probes(&self, qual: &Qual) -> Result<Vec<Probe>, IdsError> {
        qual.probes()
    }

    fn query(&self, probe: &Probe, ct: Day) -> GrQuery {
        GrQuery::new(probe.pred, &probe.query, ct)
    }

    fn begin(&self, _idx: &IndexDescriptor, _ctx: &AmContext) -> Result<(), IdsError> {
        Ok(())
    }

    fn seen(leaf: &RegionSpec, rowid: u64) -> Self::Seen {
        (rowid, extent_of(leaf).encode_array())
    }

    fn recheck(
        &self,
        _scan: &mut (),
        qual: &Qual,
        leaf: &RegionSpec,
        _rowid: u64,
        ct: Day,
    ) -> Result<bool, IdsError> {
        Ok(qual.eval(&extent_of(leaf), ct))
    }

    fn area(&self, bound: &RegionSpec, ct: Day) -> i128 {
        bound.resolve(ct).area()
    }

    fn overlap(&self, bound: &RegionSpec, probe: &Probe, ct: Day) -> i128 {
        bound.resolve(ct).intersection_area(&probe.query.region(ct))
    }

    fn quality(&self, tree: &Tree<GrKey>, ct: Day) -> Result<String, TreeError> {
        let q = GrQuality::compute(tree, ct)?;
        Ok(format!(
            ", dead space {}, overlap {}, {} stair / {} hidden / {} growing-rect bounds",
            q.total_dead_space(),
            q.total_overlap(),
            q.stair_bounds,
            q.hidden_bounds,
            q.growing_rect_bounds,
        ))
    }

    fn trace(&self, ctx: &AmContext, event: Event<'_>) {
        ctx.trace.emit_with("GRT", 2, || match event {
            Event::Step(func, step) => format!("grt_{func}: {step}"),
            Event::Batch { asked, got } => {
                format!("grt_getnext_batch: (1-2) Advance Cursor up to {asked} rows: {got} row(s)")
            }
            Event::Built(count) => {
                format!("grt_build: (2) Bulk-load {count} entries via STR packing")
            }
        });
    }
}

purpose_functions!(GrTreeAm);
