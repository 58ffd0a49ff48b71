//! The benchmark's own stand-in for the executor's index-scan loop: an
//! access method driven through its purpose functions over an
//! `AmContext` the benchmark builds itself. The traced run uses it to
//! replay statements one layer below `grt_ids`; the recovery check uses
//! it because a reopened space has no catalog to run SQL against.

use crate::setup::{TableLos, RSTAR_STRATEGY};
use grt_blade::{
    extent_to_value, CurrentTimePolicy, GrTreeAm, GrTreeAmOptions, RStarBitemporalAm, TYPE_NAME,
};
use grt_ids::vii::QualNode;
use grt_ids::{
    AccessMethod, AmContext, DataType, Database, IdsError, IndexDescriptor, QualDescriptor, RowId,
    ScanDescriptor, Session, SimpleQual, TraceSink, Value,
};
use grt_rstar::RStarOptions;
use grt_sbspace::{Sbspace, SpaceSnapshot, Txn};
use grt_temporal::{Clock, TimeExtent};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// One index, its access method, and what an `AmContext` needs.
pub struct Rig {
    pub space: Sbspace,
    pub am: Box<dyn AccessMethod>,
    pub desc: IndexDescriptor,
    pub los: TableLos,
    clock: Arc<dyn Clock>,
    session: Arc<Session>,
    fragments: Arc<Mutex<HashMap<String, u32>>>,
    trace: TraceSink,
}

/// `DatabaseOptions::default().scan_batch_rows`: rows per
/// `am_getnext_batch`, as the executor asks for them.
pub fn batch_rows() -> usize {
    grt_ids::DatabaseOptions::default().scan_batch_rows
}

impl Rig {
    /// A rig over `db`'s space for the index whose objects are `los`.
    /// `rstar` picks the R*-tree baseline, else the GR-tree.
    pub fn new(db: &Database, los: TableLos, rstar: bool) -> Rig {
        let (am, name, table, opclass): (Box<dyn AccessMethod>, _, _, _) = if rstar {
            (
                Box::new(RStarBitemporalAm {
                    strategy: RSTAR_STRATEGY,
                    tree_opts: RStarOptions::default(),
                    curtime: CurrentTimePolicy::PerStatement,
                }),
                "rix",
                "r",
                "rstar_opclass",
            )
        } else {
            (
                Box::new(GrTreeAm::new(GrTreeAmOptions::default())),
                "gix",
                "g",
                "grt_opclass",
            )
        };
        let mut desc = IndexDescriptor::new(
            name,
            table,
            vec!["Time_Extent".to_string()],
            vec![DataType::Opaque(TYPE_NAME.to_string())],
            opclass,
        );
        // The parameters CREATE INDEX hands an access method.
        desc.params
            .insert("table_lo".into(), los.heap.0.to_string());
        desc.params.insert("column_pos".into(), "1".into());
        desc.params.insert("scan_workers".into(), "1".into());
        Rig {
            space: db.space(),
            am,
            desc,
            los,
            clock: db.clock(),
            // A session of its own, as a connection would have.
            session: db.connect().session(),
            fragments: Arc::new(Mutex::new(HashMap::from([(name.to_string(), los.index.0)]))),
            trace: TraceSink::new(),
        }
    }

    pub fn ctx<'a>(&self, txn: &'a Txn, snapshot: Option<Arc<SpaceSnapshot>>) -> AmContext<'a> {
        AmContext {
            space: self.space.clone(),
            txn,
            snapshot,
            clock: Arc::clone(&self.clock),
            session: Arc::clone(&self.session),
            fragments: Arc::clone(&self.fragments),
            trace: self.trace.clone(),
        }
    }

    /// The frozen view a read statement runs on: heap plus index.
    pub fn snapshot(&self) -> Result<Arc<SpaceSnapshot>, IdsError> {
        Ok(Arc::new(
            self.space.snapshot_for(&[self.los.heap, self.los.index])?,
        ))
    }
}

/// The qualification `func(Time_Extent, extent)`; `None` scans all.
pub fn qual(func: &str, extent: Option<&TimeExtent>) -> QualDescriptor {
    QualDescriptor {
        root: extent.map(|e| {
            QualNode::Simple(SimpleQual {
                func: func.to_string(),
                column: "Time_Extent".to_string(),
                constant: Some(extent_to_value(e)),
                commuted: false,
            })
        }),
    }
}

/// What the caller of [`index_scan`] does around and between the
/// purpose-function calls.
pub trait ScanHooks {
    /// Runs one group of purpose-function calls (so it can be timed).
    fn am(&mut self, call: &mut dyn FnMut() -> Result<(), IdsError>) -> Result<(), IdsError> {
        call()
    }
    /// Takes one batch of hits, as the executor's fetch loop would.
    fn batch(&mut self, hits: &[(RowId, Vec<Value>)]) -> Result<(), IdsError>;
}

/// The Figure 6(b) call sequence: `am_open`, `am_beginscan`,
/// `am_getnext_batch` until a short batch, `am_endscan`, `am_close`.
pub fn index_scan(
    rig: &Rig,
    ctx: &AmContext,
    qual: QualDescriptor,
    hooks: &mut dyn ScanHooks,
) -> Result<(), IdsError> {
    let (am, desc) = (&rig.am, &rig.desc);
    let mut scan = ScanDescriptor::new(qual);
    hooks.am(&mut || {
        am.am_open(desc, ctx)?;
        am.am_beginscan(desc, &mut scan, ctx)
    })?;
    let batch = batch_rows();
    loop {
        let mut hits = Vec::new();
        hooks.am(&mut || {
            hits = am.am_getnext_batch(desc, &mut scan, batch, ctx)?;
            Ok(())
        })?;
        hooks.batch(&hits)?;
        if hits.len() < batch {
            break;
        }
    }
    hooks.am(&mut || {
        am.am_endscan(desc, &mut scan, ctx)?;
        am.am_close(desc, ctx)
    })
}
