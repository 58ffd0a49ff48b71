//! Resolution against the catalog, in its two lifetimes. *Per
//! compilation*, [`Connection::resolve`] validates a parsed statement —
//! the only place DML is validated, whichever door it came through —
//! into the shareable [`CompiledStatement`]. *Per execution*,
//! [`Connection::bind_table`] takes the catalog lock once and hands back
//! a [`TableBinding`] that snapshot selection, planning, scanning and
//! index maintenance all read. A binding lives for one statement: an
//! [`IndexDescriptor`]'s `user_data` is the blade's per-open state, and
//! compiled statements are shared between connections.

use super::Connection;
use crate::catalog::{self, AmEntry, IndexMeta, TableMeta};
use crate::prepare::{CompiledStatement, Projection};
use crate::sql::{self, Expr, SelectCols, Statement};
use crate::value::{DataType, Value};
use crate::vii::IndexDescriptor;
use crate::{IdsError, Result};
use grt_sbspace::LoId;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// One index as a statement sees it.
pub(super) struct IndexBinding {
    pub meta: IndexMeta,
    pub am: Arc<AmEntry>,
    /// The index descriptor of this statement ("td"): `am_open` opens
    /// it, every later purpose function receives it, `am_close` ends it.
    pub desc: IndexDescriptor,
    /// Positions of the indexed columns in a table row.
    key_cols: Vec<usize>,
    /// The large object SYSFRAGMENTS records for the index.
    pub fragment: Option<LoId>,
}

impl IndexBinding {
    /// Assembles the binding, descriptor included — the one place an
    /// index descriptor is made, for `CREATE INDEX` and every later
    /// statement alike.
    pub fn new(
        meta: IndexMeta,
        table: &TableMeta,
        am: Arc<AmEntry>,
        fragment: Option<LoId>,
    ) -> Result<IndexBinding> {
        let key_cols = meta
            .columns
            .iter()
            .map(|c| table.column_index(c))
            .collect::<Result<Vec<_>>>()?;
        let mut desc = IndexDescriptor::new(
            &meta.name,
            &meta.table,
            meta.columns.clone(),
            key_cols
                .iter()
                .map(|&i| table.columns[i].1.clone())
                .collect(),
            &meta.opclass,
        );
        desc.params = HashMap::from([
            ("table_lo".to_string(), table.lo.0.to_string()),
            ("column_pos".to_string(), key_cols[0].to_string()),
        ]);
        Ok(IndexBinding {
            meta,
            am,
            desc,
            key_cols,
            fragment,
        })
    }

    /// The indexed fields of a table row.
    pub fn keys(&self, row: &[Value]) -> Vec<Value> {
        self.key_cols.iter().map(|&i| row[i].clone()).collect()
    }
}

/// A table and its indexes (in name order), resolved under one catalog
/// lock for the life of one statement.
pub(super) struct TableBinding {
    pub table: TableMeta,
    pub indexes: Vec<IndexBinding>,
}

impl TableBinding {
    /// The binding of the index a plan names.
    pub fn index(&self, name: &str) -> Option<&IndexBinding> {
        self.indexes
            .iter()
            .find(|ix| ix.meta.name.eq_ignore_ascii_case(name))
    }
}

impl Connection {
    pub(super) fn bind_table(&self, name: &str) -> Result<TableBinding> {
        let inner = &self.db.inner;
        let catalog = inner.catalog.lock();
        let table = catalog.table(name)?.clone();
        let fragments = inner.fragments.lock();
        let indexes = catalog
            .indices_of(&table.name)
            .into_iter()
            .map(|ix| {
                let am = Arc::clone(catalog.am(&ix.access_method)?);
                let fragment = fragments.get(&ix.name).map(|&page| LoId(page));
                IndexBinding::new(ix.clone(), &table, am, fragment)
            })
            .collect::<Result<_>>()?;
        Ok(TableBinding { table, indexes })
    }

    /// Binds one index by name, for the statements that address an
    /// index rather than a table (DROP INDEX, CHECK INDEX, UPDATE
    /// STATISTICS).
    pub(super) fn bind_index(&self, name: &str) -> Result<IndexBinding> {
        let inner = &self.db.inner;
        let catalog = inner.catalog.lock();
        let ix = catalog.index(name)?;
        let am = Arc::clone(catalog.am(&ix.access_method)?);
        let fragment = inner.fragments.lock().get(&ix.name).map(|&p| LoId(p));
        let table = catalog.table(&ix.table)?;
        IndexBinding::new(ix.clone(), table, am, fragment)
    }

    /// Phase 2 of statement execution — verify/resolve: check the
    /// statement against the catalog in the order execution would (the
    /// table, the SELECT list or INSERT arity, WHERE, SET) and type its
    /// parameter slots, so a mismatched binding is refused at bind time.
    pub(super) fn resolve(
        &self,
        stmt: Statement,
        key: Option<String>,
    ) -> Result<CompiledStatement> {
        let n_params = sql::param_count(&stmt);
        let mut c = CompiledStatement {
            key,
            stmt,
            n_params,
            param_types: vec![None; n_params],
            tables: Vec::new(),
            plan: Mutex::new(None),
            heap: None,
            projection: None,
        };
        let (tname, where_clause) = match &c.stmt {
            Statement::Insert { table, .. } => (table, &None),
            Statement::Select {
                table,
                where_clause,
                ..
            }
            | Statement::Delete {
                table,
                where_clause,
            }
            | Statement::Update {
                table,
                where_clause,
                ..
            } => (table, where_clause),
            _ => return Ok(c),
        };
        c.tables.push(tname.to_ascii_lowercase());
        // A SELECT may read a system catalog, by exact name; any other
        // target — a user table called `system_events` included — is a
        // user table.
        if let (Statement::Select { columns, .. }, Some(headers)) =
            (&c.stmt, catalog::system_catalog(tname))
        {
            if where_clause.is_some() {
                return Err(IdsError::Semantic(
                    "system catalogs support projection only".into(),
                ));
            }
            let position = |col: &String| {
                headers
                    .iter()
                    .position(|h| h.eq_ignore_ascii_case(col))
                    .ok_or_else(|| IdsError::NotFound(format!("column {col} of {tname}")))
            };
            let positions: Vec<usize> = match columns {
                SelectCols::Star => (0..headers.len()).collect(),
                SelectCols::Named(cols) => cols.iter().map(position).collect::<Result<_>>()?,
            };
            c.projection = Some(Projection {
                headers: positions.iter().map(|&i| headers[i].clone()).collect(),
                positions,
            });
            return Ok(c);
        }
        let table = self.db.inner.catalog.lock().table(tname)?.clone();
        c.heap = Some(table.lo);
        match &c.stmt {
            Statement::Insert { values, .. } => {
                if values.len() != table.columns.len() {
                    return Err(IdsError::Semantic(format!(
                        "table {tname} has {} columns, {} values given",
                        table.columns.len(),
                        values.len()
                    )));
                }
                for (expr, (_, ty)) in values.iter().zip(&table.columns) {
                    self.infer_param_types(expr, Some(ty), &table, &mut c.param_types)?;
                }
            }
            Statement::Select { columns, .. } => {
                c.projection = Some(match columns {
                    SelectCols::Star => Projection {
                        headers: table.columns.iter().map(|(c, _)| c.clone()).collect(),
                        positions: (0..table.columns.len()).collect(),
                    },
                    SelectCols::Named(cols) => Projection {
                        headers: cols.clone(),
                        positions: cols
                            .iter()
                            .map(|c| table.column_index(c))
                            .collect::<Result<_>>()?,
                    },
                });
            }
            _ => {}
        }
        if let Some(w) = where_clause {
            self.validate_expr(w, &table)?;
            self.infer_param_types(w, None, &table, &mut c.param_types)?;
        }
        if let Statement::Update { sets, .. } = &c.stmt {
            for (col, expr) in sets {
                let ty = table.column_type(col)?;
                self.validate_expr(expr, &table)?;
                self.infer_param_types(expr, Some(ty), &table, &mut c.param_types)?;
            }
        }
        Ok(c)
    }

    /// Every function named in the expression must resolve to a
    /// registered UDR, and every column must exist.
    fn validate_expr(&self, expr: &Expr, table: &TableMeta) -> Result<()> {
        let mut checked = Ok(());
        expr.visit(&mut |e| {
            let found = match e {
                Expr::Column(c) => table.column_index(c).map(drop),
                Expr::Call { name, .. } if !self.db.inner.udrs.lock().exists(name) => {
                    Err(IdsError::NotFound(format!("function {name}")))
                }
                _ => Ok(()),
            };
            if checked.is_ok() {
                checked = found;
            }
        });
        checked
    }

    /// Walks an expression assigning a type to every `?` slot that sits
    /// in a position whose type is known: INSERT values and UPDATE SET
    /// take their column's type, comparison operands the type of the
    /// other side, routine arguments the declared type when the routine
    /// resolves unambiguously by name and arity. Slots in opaque
    /// positions stay untyped and are checked at execution.
    fn infer_param_types(
        &self,
        expr: &Expr,
        expected: Option<&DataType>,
        table: &TableMeta,
        out: &mut Vec<Option<DataType>>,
    ) -> Result<()> {
        match expr {
            Expr::Param(i) => {
                if let (Some(ty), Some(slot)) = (expected, out.get_mut(*i)) {
                    if slot.is_none() {
                        *slot = Some(ty.clone());
                    }
                }
                Ok(())
            }
            Expr::Call { name, args } => {
                // Untyped arguments match any overload of the arity.
                let declared: Option<Vec<DataType>> = {
                    let udrs = self.db.inner.udrs.lock();
                    let routine = udrs.resolve(name, &vec![None; args.len()]).ok();
                    routine.map(|r| r.arg_types.clone())
                };
                for (i, a) in args.iter().enumerate() {
                    self.infer_param_types(a, declared.as_ref().map(|s| &s[i]), table, out)?;
                }
                Ok(())
            }
            Expr::Cmp { left, right, .. } => {
                let side_type = |e: &Expr| -> Option<DataType> {
                    match e {
                        Expr::Column(c) => table.column_type(c).ok().cloned(),
                        Expr::Literal(lit) => Self::literal_value(lit).data_type(),
                        _ => None,
                    }
                };
                let lt = side_type(left);
                let rt = side_type(right);
                self.infer_param_types(left, rt.as_ref(), table, out)?;
                self.infer_param_types(right, lt.as_ref(), table, out)
            }
            Expr::And(parts) | Expr::Or(parts) => parts
                .iter()
                .try_for_each(|p| self.infer_param_types(p, None, table, out)),
            Expr::Not(inner) => self.infer_param_types(inner, None, table, out),
            Expr::Literal(_) | Expr::Column(_) | Expr::Bound(_) => Ok(()),
        }
    }
}
