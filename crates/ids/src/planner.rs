//! The query planner: matching WHERE-clause functions against operator
//! classes and choosing an access path.
//!
//! "When the query optimizer meets a function in the WHERE clause of an
//! SQL statement, it determines if a virtual index is applicable ... by
//! checking if a virtual index exists for the column involved in the
//! function, and if this function is declared as a strategy function in
//! the operator class of the corresponding access method" (Section 4).
//! Qualifications pushed to the index obey the single-column shapes of
//! Section 5.1; anything else stays behind as a residual filter.

use crate::catalog::{Catalog, IndexMeta, TableMeta};
use crate::opclass::OpClassRegistry;
use crate::sql::Expr;
use crate::value::{DataType, Value};
use crate::vii::{QualDescriptor, QualNode, SimpleQual};

/// The chosen access path for one table.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Full scan of the heap, filtering with the whole WHERE clause.
    SeqScan {
        /// The filter (the original WHERE clause).
        filter: Option<Expr>,
    },
    /// Scan of a virtual index with a pushed qualification.
    IndexScan {
        /// Index name.
        index: String,
        /// The qualification handed to `am_beginscan`.
        qual: QualDescriptor,
        /// What the index could not evaluate; re-checked on each fetched
        /// row.
        residual: Option<Expr>,
    },
}

/// Constant-folding oracle supplied by the executor: evaluates an
/// expression with no column references to a [`Value`], coercing to the
/// expected type (e.g. a string literal to an opaque value).
pub type FoldFn<'a> = dyn Fn(&Expr, Option<&DataType>) -> Option<Value> + 'a;

/// Tries to convert `expr` into a qualification over `column` using only
/// the strategy functions in `strategies`.
fn to_qualnode(
    expr: &Expr,
    column: &str,
    column_type: &DataType,
    strategies: &[String],
    fold: &FoldFn,
) -> Option<QualNode> {
    let is_strategy = |name: &str| strategies.iter().any(|s| s.eq_ignore_ascii_case(name));
    match expr {
        Expr::And(parts) => {
            let children: Option<Vec<QualNode>> = parts
                .iter()
                .map(|p| to_qualnode(p, column, column_type, strategies, fold))
                .collect();
            Some(QualNode::And(children?))
        }
        Expr::Or(parts) => {
            let children: Option<Vec<QualNode>> = parts
                .iter()
                .map(|p| to_qualnode(p, column, column_type, strategies, fold))
                .collect();
            Some(QualNode::Or(children?))
        }
        Expr::Call { name, args } if is_strategy(name) => {
            // Only the single-column shapes fit a qualification
            // descriptor: f(col, const), f(const, col), f(col).
            match args.as_slice() {
                [Expr::Column(c)] if c.eq_ignore_ascii_case(column) => {
                    Some(QualNode::Simple(SimpleQual {
                        func: name.clone(),
                        column: column.to_string(),
                        constant: None,
                        commuted: false,
                    }))
                }
                [Expr::Column(c), konst] if c.eq_ignore_ascii_case(column) => {
                    let constant = fold(konst, Some(column_type))?;
                    Some(QualNode::Simple(SimpleQual {
                        func: name.clone(),
                        column: column.to_string(),
                        constant: Some(constant),
                        commuted: false,
                    }))
                }
                [konst, Expr::Column(c)] if c.eq_ignore_ascii_case(column) => {
                    let constant = fold(konst, Some(column_type))?;
                    Some(QualNode::Simple(SimpleQual {
                        func: name.clone(),
                        column: column.to_string(),
                        constant: Some(constant),
                        commuted: true,
                    }))
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// A candidate index scan before costing.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Index name.
    pub index: String,
    /// Pushed qualification.
    pub qual: QualDescriptor,
    /// Residual filter.
    pub residual: Option<Expr>,
    /// Number of pushed simple predicates (tie-break heuristic).
    pub pushed_leaves: usize,
}

/// Enumerates the index-scan candidates for a WHERE clause.
pub fn candidates(
    catalog: &Catalog,
    opclasses: &OpClassRegistry,
    table: &TableMeta,
    where_clause: Option<&Expr>,
    fold: &FoldFn,
) -> Vec<Candidate> {
    let Some(expr) = where_clause else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for ix in catalog.indices_of(&table.name) {
        if let Some(c) = candidate_for(opclasses, table, ix, expr, fold) {
            out.push(c);
        }
    }
    out
}

/// Builds the candidate for one specific index, if the clause is
/// convertible. Public within the crate so a cached plan can rebuild
/// its qualification against the current catalog and bound parameters.
pub(crate) fn candidate_for(
    opclasses: &OpClassRegistry,
    table: &TableMeta,
    ix: &IndexMeta,
    expr: &Expr,
    fold: &FoldFn,
) -> Option<Candidate> {
    let column = ix.columns.first()?;
    let column_type = table.column_type(column).ok()?;
    let oc = opclasses.get(&ix.opclass).ok()?;
    // Whole-clause pushdown first.
    if let Some(root) = to_qualnode(expr, column, column_type, &oc.strategies, fold) {
        let pushed_leaves = root.leaves().len();
        return Some(Candidate {
            index: ix.name.clone(),
            qual: QualDescriptor { root: Some(root) },
            residual: None,
            pushed_leaves,
        });
    }
    // Otherwise push the convertible top-level conjuncts.
    if let Expr::And(parts) = expr {
        let mut pushed = Vec::new();
        let mut residual = Vec::new();
        for p in parts {
            match to_qualnode(p, column, column_type, &oc.strategies, fold) {
                Some(node) => pushed.push(node),
                None => residual.push(p.clone()),
            }
        }
        if !pushed.is_empty() {
            let root = if pushed.len() == 1 {
                pushed.pop().unwrap()
            } else {
                QualNode::And(pushed)
            };
            let pushed_leaves = root.leaves().len();
            let residual = match residual.len() {
                0 => None,
                1 => Some(residual.pop().unwrap()),
                _ => Some(Expr::And(residual)),
            };
            return Some(Candidate {
                index: ix.name.clone(),
                qual: QualDescriptor { root: Some(root) },
                residual,
                pushed_leaves,
            });
        }
    }
    None
}

/// Chooses the cheapest path: the best index candidate (by
/// `am_scancost`, ties by pushed predicates) against a sequential scan.
/// `cost_of` is called once per candidate, in order — the executor's
/// is the `am_scancost` call itself.
pub fn choose(
    cands: Vec<Candidate>,
    cost_of: impl Fn(&Candidate) -> f64,
    seq_cost: f64,
    where_clause: Option<&Expr>,
) -> Plan {
    let mut best: Option<(f64, Candidate)> = None;
    for c in cands {
        let cost = cost_of(&c);
        let better = match &best {
            None => true,
            Some((bc, bcand)) => {
                cost < *bc || (cost == *bc && c.pushed_leaves > bcand.pushed_leaves)
            }
        };
        if better {
            best = Some((cost, c));
        }
    }
    match best {
        Some((cost, c)) if cost <= seq_cost => Plan::IndexScan {
            index: c.index,
            qual: c.qual,
            residual: c.residual,
        },
        _ => Plan::SeqScan {
            filter: where_clause.cloned(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TableMeta;
    use crate::opclass::OpClass;
    use crate::sql::{Expr, Lit};
    use grt_sbspace::LoId;

    fn setup() -> (Catalog, OpClassRegistry, TableMeta) {
        let mut catalog = Catalog::default();
        let table = TableMeta {
            name: "employees".into(),
            columns: vec![
                ("name".into(), DataType::Text),
                (
                    "time_extent".into(),
                    DataType::Opaque("GRT_TimeExtent_t".into()),
                ),
            ],
            lo: LoId(1),
        };
        catalog.tables.insert("employees".into(), table.clone());
        catalog.indices.insert(
            "grt_index".into(),
            IndexMeta {
                name: "grt_index".into(),
                table: "employees".into(),
                columns: vec!["time_extent".into()],
                access_method: "grtree_am".into(),
                opclass: "grt_opclass".into(),
                space: "spc".into(),
            },
        );
        let mut opclasses = OpClassRegistry::default();
        opclasses
            .create(OpClass {
                name: "grt_opclass".into(),
                access_method: "grtree_am".into(),
                strategies: vec!["Overlaps".into(), "Contains".into()],
                supports: vec![],
            })
            .unwrap();
        (catalog, opclasses, table)
    }

    fn fold(expr: &Expr, _ty: Option<&DataType>) -> Option<Value> {
        match expr {
            Expr::Literal(Lit::Str(s)) => Some(Value::Text(s.clone())),
            Expr::Literal(Lit::Int(i)) => Some(Value::Int(*i)),
            _ => None,
        }
    }

    fn call(f: &str, col: &str, konst: &str) -> Expr {
        Expr::Call {
            name: f.into(),
            args: vec![
                Expr::Column(col.into()),
                Expr::Literal(Lit::Str(konst.into())),
            ],
        }
    }

    #[test]
    fn strategy_call_becomes_index_candidate() {
        let (catalog, ocs, table) = setup();
        let w = call("Overlaps", "Time_Extent", "q");
        let cands = candidates(&catalog, &ocs, &table, Some(&w), &fold);
        assert_eq!(cands.len(), 1);
        assert!(cands[0].residual.is_none());
        assert_eq!(cands[0].pushed_leaves, 1);
        let qual = cands[0].qual.root.as_ref().unwrap();
        match qual {
            QualNode::Simple(s) => {
                assert_eq!(s.func, "Overlaps");
                assert!(!s.commuted);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn commuted_argument_order_detected() {
        let (catalog, ocs, table) = setup();
        let w = Expr::Call {
            name: "Contains".into(),
            args: vec![
                Expr::Literal(Lit::Str("q".into())),
                Expr::Column("time_extent".into()),
            ],
        };
        let cands = candidates(&catalog, &ocs, &table, Some(&w), &fold);
        match cands[0].qual.root.as_ref().unwrap() {
            QualNode::Simple(s) => assert!(s.commuted),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn non_strategy_function_not_pushed() {
        let (catalog, ocs, table) = setup();
        // Equal is NOT in the operator class: the paper's Section 5.2
        // example — the index is not usable even though Equal implies
        // Overlaps, because the engine has no way to know that.
        let w = call("Equal", "time_extent", "q");
        assert!(candidates(&catalog, &ocs, &table, Some(&w), &fold).is_empty());
    }

    #[test]
    fn and_splits_into_pushed_and_residual() {
        let (catalog, ocs, table) = setup();
        let other = Expr::Cmp {
            op: "=".into(),
            left: Box::new(Expr::Column("name".into())),
            right: Box::new(Expr::Literal(Lit::Str("Julie".into()))),
        };
        let w = Expr::And(vec![call("Overlaps", "time_extent", "q"), other.clone()]);
        let cands = candidates(&catalog, &ocs, &table, Some(&w), &fold);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].pushed_leaves, 1);
        assert_eq!(cands[0].residual, Some(other));
    }

    #[test]
    fn or_pushes_whole_tree_or_nothing() {
        let (catalog, ocs, table) = setup();
        let pushable = Expr::Or(vec![
            call("Overlaps", "time_extent", "a"),
            call("Contains", "time_extent", "b"),
        ]);
        let cands = candidates(&catalog, &ocs, &table, Some(&pushable), &fold);
        assert_eq!(cands[0].pushed_leaves, 2);
        assert!(cands[0].residual.is_none());

        // One OR branch on a different column: the whole OR cannot be
        // pushed, and OR cannot be split, so no candidate.
        let mixed = Expr::Or(vec![
            call("Overlaps", "time_extent", "a"),
            call("Overlaps", "name", "b"),
        ]);
        assert!(candidates(&catalog, &ocs, &table, Some(&mixed), &fold).is_empty());
    }

    #[test]
    fn choose_compares_costs() {
        let (catalog, ocs, table) = setup();
        let w = call("Overlaps", "time_extent", "q");
        let cands = candidates(&catalog, &ocs, &table, Some(&w), &fold);
        // Cheap index: picked.
        let plan = choose(cands.clone(), |_| 3.0, 100.0, Some(&w));
        assert!(matches!(plan, Plan::IndexScan { .. }));
        // Expensive index: sequential scan wins.
        let plan = choose(cands, |_| 1e6, 100.0, Some(&w));
        assert!(matches!(plan, Plan::SeqScan { .. }));
    }
}
