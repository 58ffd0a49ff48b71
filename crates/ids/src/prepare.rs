//! Prepared statements and the per-database plan cache.
//!
//! Statement execution is phased — **parse → verify/resolve → plan →
//! execute** — and the first three phases are cached in a
//! [`CompiledStatement`]. Two kinds of compiled statement exist:
//!
//! * **`PREPARE`d handles**: owned by their connection, addressed by
//!   name with `EXECUTE`, parameterized with explicit `?` slots. The
//!   cache holds only a [`Weak`] reference so DDL invalidation reaches
//!   them without keeping them alive past `DEALLOCATE` / disconnect.
//! * **Transparent entries**: ad-hoc DML is normalized (literals lifted
//!   to parameters, identifiers uppercased) and keyed by the normalized
//!   text, so repeated statements that differ only in their constants
//!   share one compiled form. Capacity is bounded by
//!   `DatabaseOptions { plan_cache_size }` with LRU eviction.
//!
//! The plan phase memoizes only the access-path *choice*
//! ([`PlanChoice`]), tagged with the bound WHERE clause it was costed
//! for: index-vs-seq depends on the actual values (a narrow probe
//! favors the index, a full-range probe the heap sweep), so a memo is
//! reused only when the planning-relevant bindings match — until
//! [`GENERIC_AFTER`] consecutive re-costs under *different* bindings
//! all picked the same choice, at which point the memo goes *generic*
//! and is reused for any binding (the custom-vs-generic plan rule).
//! The concrete `Plan` is rebuilt per execution against the table
//! binding the statement resolved either way. DDL touching a statement's tables clears the
//! memo (and drops transparent entries entirely, so parameter types
//! are re-inferred against the new schema).

use crate::catalog::TableMeta;
use crate::sql::{self, Expr, Statement};
use crate::value::{DataType, Value};
use crate::{IdsError, Result};
use grt_metrics::{Counter, Metrics};
use grt_sbspace::LoId;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, Weak};

/// The memoized access-path decision of a compiled statement.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum PlanChoice {
    /// Sequential heap scan.
    Seq,
    /// Scan of the named index.
    Index(String),
}

/// Consecutive fresh plans that must agree on the choice before the
/// memo is reused for arbitrary bindings.
pub(crate) const GENERIC_AFTER: u32 = 3;

/// A memoized plan choice and the evidence it rests on.
#[derive(Debug, Clone)]
pub(crate) struct PlanMemo {
    /// The bound WHERE clause the choice was last costed for.
    pub binding: Option<Expr>,
    /// The access path chosen.
    pub choice: PlanChoice,
    /// Consecutive fresh plans (over differing bindings) that agreed
    /// on `choice`.
    pub streak: u32,
}

impl PlanMemo {
    /// Whether this memo may serve the given WHERE clause.
    pub fn serves(&self, where_clause: Option<&Expr>) -> bool {
        self.streak >= GENERIC_AFTER || self.binding.as_ref() == where_clause
    }
}

/// A SELECT list resolved against its source: the output headers and,
/// for each, the position of the source column it copies.
pub(crate) struct Projection {
    pub headers: Vec<String>,
    pub positions: Vec<usize>,
}

impl Projection {
    /// The output row for one whole source row.
    pub fn apply(&self, row: &[Value]) -> Vec<Value> {
        self.positions.iter().map(|&i| row[i].clone()).collect()
    }

    /// For a reader that builds only part of each stored row and must
    /// still evaluate `residual` on it: the table positions to decode —
    /// the output columns first, in output order, then the columns only
    /// `residual` names — and those columns as a table of their own,
    /// which is what `residual` resolves its column names against.
    pub fn widened_for(
        &self,
        residual: &Expr,
        table: &TableMeta,
    ) -> Result<(Vec<usize>, TableMeta)> {
        let mut columns = self.positions.clone();
        let mut unknown = Ok(());
        residual.visit(&mut |e| {
            if let Expr::Column(c) = e {
                match table.column_index(c) {
                    Ok(i) if !columns.contains(&i) => columns.push(i),
                    Ok(_) => {}
                    Err(e) => unknown = Err(e),
                }
            }
        });
        unknown?;
        let shape = TableMeta {
            name: table.name.clone(),
            columns: columns.iter().map(|&i| table.columns[i].clone()).collect(),
            lo: table.lo,
        };
        Ok((columns, shape))
    }
}

/// A statement carried through parse and verify/resolve, with its plan
/// choice memoized after the first execution.
pub(crate) struct CompiledStatement {
    /// Normalized-text cache key (`None` for `PREPARE`d handles, which
    /// live on the connection rather than in the keyed map).
    pub key: Option<String>,
    /// The parameterized statement.
    pub stmt: Statement,
    /// Number of positional parameter slots.
    pub n_params: usize,
    /// Inferred slot types; `None` slots accept any value and are
    /// checked only when the executor folds them.
    pub param_types: Vec<Option<DataType>>,
    /// Lower-cased names of the tables the statement touches — the
    /// invalidation scope.
    pub tables: Vec<String>,
    /// The memoized plan choice (see [`PlanMemo`]); cleared by DDL
    /// invalidation.
    pub plan: Mutex<Option<PlanMemo>>,
    /// The heap of the user table the statement resolved against (DML
    /// only; `None` when a SELECT reads a system catalog). Tables are
    /// never altered, so a different heap under the same name means the
    /// table was dropped and re-created, and everything resolved here
    /// is stale.
    pub heap: Option<LoId>,
    /// SELECT only: the resolved SELECT list.
    pub projection: Option<Projection>,
}

impl CompiledStatement {
    fn touches(&self, table: &str) -> bool {
        self.tables.iter().any(|t| t == table)
    }
}

struct CacheInner {
    capacity: usize,
    /// Monotonic use clock for LRU.
    tick: u64,
    /// Normalized key → (last-use tick, compiled statement).
    map: HashMap<String, (u64, Arc<CompiledStatement>)>,
    /// `PREPARE`d handles, weakly referenced for invalidation.
    prepared: Vec<Weak<CompiledStatement>>,
}

/// The per-database plan cache (transparent entries plus the weak
/// registry of `PREPARE`d handles) and its counters.
pub(crate) struct PlanCache {
    inner: Mutex<CacheInner>,
    /// Plan resolutions served from a memoized choice.
    pub hits: Counter,
    /// Plan resolutions that ran the full planner.
    pub misses: Counter,
    /// Transparent entries dropped by LRU capacity.
    pub evictions: Counter,
    /// Compiled statements invalidated by DDL.
    pub invalidations: Counter,
}

impl PlanCache {
    pub fn new(capacity: usize, metrics: &Metrics) -> PlanCache {
        PlanCache {
            inner: Mutex::new(CacheInner {
                capacity,
                tick: 0,
                map: HashMap::new(),
                prepared: Vec::new(),
            }),
            hits: metrics.counter("ids.plan_cache_hits"),
            misses: metrics.counter("ids.plan_cache_misses"),
            evictions: metrics.counter("ids.plan_cache_evictions"),
            invalidations: metrics.counter("ids.plan_cache_invalidations"),
        }
    }

    /// Looks up a compiled statement by normalized key (touches LRU).
    pub fn get(&self, key: &str) -> Option<Arc<CompiledStatement>> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.get_mut(key).map(|slot| {
            slot.0 = tick;
            Arc::clone(&slot.1)
        })
    }

    /// Inserts a compiled statement under its key, evicting the least
    /// recently used entries beyond capacity. Capacity `0` disables the
    /// transparent cache entirely (the compile-every-time ablation);
    /// `PREPARE`d handles are unaffected.
    pub fn insert(&self, compiled: Arc<CompiledStatement>) {
        let Some(key) = compiled.key.clone() else {
            return;
        };
        let mut inner = self.inner.lock();
        if inner.capacity == 0 {
            return;
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(key, (tick, compiled));
        while inner.map.len() > inner.capacity {
            let oldest = inner
                .map
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(k, _)| k.clone());
            match oldest {
                Some(k) => {
                    inner.map.remove(&k);
                    self.evictions.inc();
                }
                None => break,
            }
        }
    }

    /// Registers a `PREPARE`d handle for DDL invalidation.
    pub fn register(&self, compiled: &Arc<CompiledStatement>) {
        let mut inner = self.inner.lock();
        inner.prepared.retain(|w| w.strong_count() > 0);
        inner.prepared.push(Arc::downgrade(compiled));
    }

    /// Live `PREPARE`d handles (the stress harness's leak check).
    pub fn live_prepared(&self) -> usize {
        self.inner
            .lock()
            .prepared
            .iter()
            .filter(|w| w.strong_count() > 0)
            .count()
    }

    /// Transparent entries currently cached (test hook).
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Invalidates every compiled statement touching `table`:
    /// transparent entries are dropped (parameter types re-infer against
    /// the new schema), prepared handles lose their memoized plan.
    pub fn invalidate_table(&self, table: &str) {
        let table = table.to_ascii_lowercase();
        self.invalidate_where(|c| c.touches(&table));
    }

    /// Invalidates everything — routine, opclass, or access-method DDL
    /// can change any plan.
    pub fn invalidate_all(&self) {
        self.invalidate_where(|_| true);
    }

    fn invalidate_where(&self, hit: impl Fn(&CompiledStatement) -> bool) {
        let mut inner = self.inner.lock();
        let doomed: Vec<String> = inner
            .map
            .iter()
            .filter(|(_, (_, c))| hit(c))
            .map(|(k, _)| k.clone())
            .collect();
        for k in doomed {
            inner.map.remove(&k);
            self.invalidations.inc();
        }
        inner.prepared.retain(|w| match w.upgrade() {
            Some(c) => {
                if hit(&c) && c.plan.lock().take().is_some() {
                    self.invalidations.inc();
                }
                true
            }
            None => false,
        });
    }
}

/// Substitutes bound values for the `?` placeholders of a compiled
/// statement, producing an executable statement — the one deep copy of
/// the statement an execution makes.
pub(crate) fn bind(stmt: &Statement, args: &[Value]) -> Result<Statement> {
    let mut bound = stmt.clone();
    let mut missing = None;
    sql::visit_exprs_mut(&mut bound, &mut |e| {
        if let Expr::Param(i) = *e {
            match args.get(i) {
                Some(v) => *e = Expr::Bound(v.clone()),
                None => missing = missing.or(Some(i)),
            }
        }
    });
    match missing {
        Some(i) => Err(IdsError::Type(format!(
            "parameter {} has no bound value",
            i + 1
        ))),
        None => Ok(bound),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql;
    use grt_metrics::Metrics;

    fn compiled(key: &str, table: &str) -> Arc<CompiledStatement> {
        Arc::new(CompiledStatement {
            key: Some(key.to_string()),
            stmt: sql::parse(&format!("SELECT * FROM {table}")).unwrap(),
            n_params: 0,
            param_types: vec![],
            tables: vec![table.to_string()],
            plan: Mutex::new(Some(PlanMemo {
                binding: None,
                choice: PlanChoice::Seq,
                streak: 0,
            })),
            heap: None,
            projection: None,
        })
    }

    #[test]
    fn lru_evicts_oldest() {
        let metrics = Metrics::default();
        let cache = PlanCache::new(2, &metrics);
        cache.insert(compiled("a", "t"));
        cache.insert(compiled("b", "t"));
        assert!(cache.get("a").is_some()); // touch a: b is now oldest
        cache.insert(compiled("c", "t"));
        assert_eq!(cache.evictions.get(), 1);
        assert!(cache.get("b").is_none());
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
    }

    #[test]
    fn invalidation_scopes_to_tables() {
        let metrics = Metrics::default();
        let cache = PlanCache::new(8, &metrics);
        cache.insert(compiled("a", "t"));
        cache.insert(compiled("b", "u"));
        let handle = compiled("", "t");
        cache.register(&handle);
        assert_eq!(cache.live_prepared(), 1);
        cache.invalidate_table("T");
        // The t-entry is dropped, the u-entry survives, the prepared
        // handle stays registered but loses its memoized plan.
        assert!(cache.get("a").is_none());
        assert!(cache.get("b").is_some());
        assert!(handle.plan.lock().is_none());
        assert_eq!(cache.invalidations.get(), 2);
        drop(handle);
        assert_eq!(cache.live_prepared(), 0);
    }

    #[test]
    fn bind_substitutes_params() {
        let stmt = sql::parse("SELECT * FROM t WHERE id = ? AND f(c, ?)").unwrap();
        let bound = bind(&stmt, &[Value::Int(7), Value::Text("q".into())]).unwrap();
        let Statement::Select {
            where_clause: Some(Expr::And(parts)),
            ..
        } = bound
        else {
            panic!()
        };
        assert_eq!(
            parts[0],
            Expr::Cmp {
                op: "=".into(),
                left: Box::new(Expr::Column("id".into())),
                right: Box::new(Expr::Bound(Value::Int(7))),
            }
        );
        // Missing binding is an error, not a panic.
        assert!(bind(&stmt, &[Value::Int(7)]).is_err());
    }
}
