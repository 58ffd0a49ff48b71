//! Values and expressions: coercion through the type support
//! functions, constant folding, per-row evaluation, comparison, and the
//! session's memo of routine resolutions. Everything here takes the
//! statement's [`AmContext`] by reference; nothing here plans or scans.

use super::Connection;
use crate::catalog::TableMeta;
use crate::opaque::OpaqueType;
use crate::sql::{Expr, Lit};
use crate::udr::Routine;
use crate::value::{DataType, Value};
use crate::vii::AmContext;
use crate::{IdsError, Result};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// One memoized routine lookup: the argument types it resolved for (as
/// produced by [`Value::data_type`]) and the winning overload.
struct ResolvedUdr {
    types: Vec<Option<DataType>>,
    routine: Arc<Routine>,
}

/// Session-local memo of routine resolutions, keyed by the name as
/// written in the expression. Expression evaluation calls a routine
/// once per *row*; without the memo every row of a sequential scan
/// locks the shared registry and re-runs overload resolution. Entries
/// are dropped wholesale whenever [`DbInner::udr_generation`] moves
/// (any function DDL).
#[derive(Default)]
pub(super) struct UdrCache {
    generation: u64,
    entries: HashMap<String, Vec<ResolvedUdr>>,
}

/// True when a cached argument-type slot matches the value — exactly
/// `*slot == value.data_type()`, without materializing the type (which
/// clones the type name for opaque values).
fn udr_type_matches(slot: &Option<DataType>, value: &Value) -> bool {
    match (slot, value) {
        (None, Value::Null) => true,
        (Some(DataType::Integer), Value::Int(_)) => true,
        (Some(DataType::Text), Value::Text(_)) => true,
        (Some(DataType::Date), Value::Date(_)) => true,
        (Some(DataType::Boolean), Value::Bool(_)) => true,
        (Some(DataType::Opaque(n)), Value::Opaque { type_name, .. }) => n == type_name,
        _ => false,
    }
}

impl Connection {
    pub(super) fn coerce(&self, v: Value, ty: &DataType) -> Result<Value> {
        match (v, ty) {
            (Value::Null, _) => Ok(Value::Null),
            (Value::Text(s), DataType::Date) => Ok(Value::Date(
                grt_temporal::Day::parse(&s).map_err(|e| IdsError::Type(e.to_string()))?,
            )),
            (Value::Text(s), DataType::Opaque(t)) => {
                let opaques = self.db.inner.opaques.lock();
                let ot = opaques
                    .get(&t.to_ascii_lowercase())
                    .ok_or_else(|| IdsError::NotFound(format!("type {t}")))?;
                ot.value_from_text(&s)
            }
            (v, ty) => {
                if v.data_type().as_ref() == Some(ty) {
                    Ok(v)
                } else {
                    Err(IdsError::Type(format!("cannot coerce {v} to {ty}")))
                }
            }
        }
    }

    pub(super) fn literal_value(lit: &Lit) -> Value {
        match lit {
            Lit::Int(i) => Value::Int(*i),
            Lit::Str(s) => Value::Text(s.clone()),
            Lit::Bool(b) => Value::Bool(*b),
            Lit::Null => Value::Null,
        }
    }

    /// Evaluates a constant expression (no column references), coercing
    /// to the expected type when given.
    pub(super) fn fold_expr(
        &self,
        expr: &Expr,
        expected: Option<&DataType>,
        ctx: &AmContext,
    ) -> Result<Value> {
        let v = self.eval_expr(expr, None, ctx)?;
        match expected {
            Some(ty) => self.coerce(v, ty),
            None => Ok(v),
        }
    }

    /// Resolves a routine call's overload, memoized per session. The
    /// resolution is a pure function of the name, the argument types,
    /// and the registry contents, so the memo holds until function DDL
    /// bumps the registry generation.
    fn resolve_udr(&self, name: &str, args: &[Value]) -> Result<Arc<Routine>> {
        let generation = self.db.inner.udr_generation.load(Ordering::Acquire);
        let mut cache = self.udr_cache.lock();
        if cache.generation != generation {
            cache.entries.clear();
            cache.generation = generation;
        }
        if let Some(resolved) = cache.entries.get(name) {
            for e in resolved {
                if e.types.len() == args.len()
                    && e.types
                        .iter()
                        .zip(args)
                        .all(|(t, v)| udr_type_matches(t, v))
                {
                    return Ok(Arc::clone(&e.routine));
                }
            }
        }
        self.db.inner.counters.udr_resolutions.inc();
        let types: Vec<Option<DataType>> = args.iter().map(|v| v.data_type()).collect();
        let routine = {
            let udrs = self.db.inner.udrs.lock();
            match udrs.resolve(name, &types) {
                Ok(r) => r.clone(),
                Err(first_err) => {
                    // Retry with text arguments treated as wildcards
                    // (they may coerce to opaque/date parameters).
                    let relaxed: Vec<Option<DataType>> = types
                        .iter()
                        .map(|t| match t {
                            Some(DataType::Text) => None,
                            other => other.clone(),
                        })
                        .collect();
                    udrs.resolve(name, &relaxed).map_err(|_| first_err)?.clone()
                }
            }
        };
        let routine = Arc::new(routine);
        cache
            .entries
            .entry(name.to_string())
            .or_default()
            .push(ResolvedUdr {
                types,
                routine: Arc::clone(&routine),
            });
        Ok(routine)
    }

    /// Invokes a UDR, coercing text literals to the declared argument
    /// types when the overload is unambiguous.
    fn call_udr(&self, name: &str, args: Vec<Value>, ctx: &AmContext) -> Result<Value> {
        let routine = self.resolve_udr(name, &args)?;
        if routine.arg_types.len() != args.len() {
            return Err(IdsError::Type(format!(
                "{name} expects {} arguments",
                routine.arg_types.len()
            )));
        }
        let mut coerced = Vec::with_capacity(args.len());
        for (v, ty) in args.into_iter().zip(&routine.arg_types) {
            coerced.push(self.coerce(v, ty)?);
        }
        self.db.inner.counters.udr_calls.inc();
        (routine.imp)(&coerced, ctx)
    }

    /// Evaluates an expression against a row of `table` — or, given no
    /// row, a constant expression: literals, bound values and routine
    /// calls over them.
    pub(super) fn eval_expr(
        &self,
        expr: &Expr,
        row: Option<(&[Value], &TableMeta)>,
        ctx: &AmContext,
    ) -> Result<Value> {
        let truth = |e: &Expr| self.eval_expr(e, row, ctx)?.as_bool();
        match (expr, row) {
            (Expr::Literal(lit), _) => Ok(Self::literal_value(lit)),
            (Expr::Bound(v), _) => Ok(v.clone()),
            (Expr::Param(i), _) => Err(IdsError::Semantic(format!("unbound parameter {}", i + 1))),
            (Expr::Call { name, args }, _) => {
                let vals: Result<Vec<Value>> =
                    args.iter().map(|a| self.eval_expr(a, row, ctx)).collect();
                self.call_udr(name, vals?, ctx)
            }
            (other, None) => Err(IdsError::Semantic(format!(
                "expected a constant expression, got {other:?}"
            ))),
            (Expr::Column(c), Some((values, table))) => Ok(values[table.column_index(c)?].clone()),
            (Expr::Cmp { op, left, right }, _) => {
                let l = self.eval_expr(left, row, ctx)?;
                let r = self.eval_expr(right, row, ctx)?;
                compare(op, &l, &r, self)
            }
            (Expr::And(parts), _) => {
                for p in parts {
                    if !truth(p)? {
                        return Ok(Value::Bool(false));
                    }
                }
                Ok(Value::Bool(true))
            }
            (Expr::Or(parts), _) => {
                for p in parts {
                    if truth(p)? {
                        return Ok(Value::Bool(true));
                    }
                }
                Ok(Value::Bool(false))
            }
            (Expr::Not(inner), _) => Ok(Value::Bool(!truth(inner)?)),
        }
    }

    /// The renderer of result rows whose text only the type support
    /// functions can make ([`QueryResult::rendered`](super::QueryResult::rendered)),
    /// or `None` for a result with no such column: its text is made by
    /// [`QueryResult::text`](super::QueryResult::text) when someone asks
    /// for it. `types[i]` is the declared type of output column `i`; each
    /// opaque column's text-output function is looked up here, once for
    /// the statement.
    pub(super) fn renderer(&self, types: &[&DataType]) -> Option<Renderer> {
        let opaques = self.db.inner.opaques.lock();
        let output_of = |ty: &&DataType| match ty {
            DataType::Opaque(t) => opaques.get(&t.to_ascii_lowercase()).cloned(),
            _ => None,
        };
        let outputs: Vec<Option<OpaqueType>> = types.iter().map(output_of).collect();
        outputs
            .iter()
            .any(Option::is_some)
            .then_some(Renderer(outputs))
    }
}

/// The text-output function of each output column of a result, `None`
/// for a column that is not of an opaque type (see
/// [`Connection::renderer`]).
pub(super) struct Renderer(Vec<Option<OpaqueType>>);

impl Renderer {
    /// One row's text: every cell of an opaque column through the
    /// column's output function, every other cell — NULL included, which
    /// has no bytes to hand an output function — through the same
    /// `Display` that [`QueryResult::text`](super::QueryResult::text) uses.
    pub(super) fn row(&self, row: &[Value]) -> Vec<String> {
        let cell = |(v, output): (&Value, &Option<OpaqueType>)| match (v, output) {
            (Value::Opaque { .. }, Some(ot)) => {
                ot.value_to_text(v).unwrap_or_else(|_| v.to_string())
            }
            _ => v.to_string(),
        };
        row.iter().zip(&self.0).map(cell).collect()
    }
}

fn compare(op: &str, l: &Value, r: &Value, conn: &Connection) -> Result<Value> {
    use std::cmp::Ordering as O;
    // Text compared against a date coerces to a date, mirroring the
    // insert-side coercions.
    let (l, r) = match (l, r) {
        (Value::Date(_), Value::Text(_)) => (l.clone(), conn.coerce(r.clone(), &DataType::Date)?),
        (Value::Text(_), Value::Date(_)) => (conn.coerce(l.clone(), &DataType::Date)?, r.clone()),
        _ => (l.clone(), r.clone()),
    };
    if l.is_null() || r.is_null() {
        return Ok(Value::Bool(false));
    }
    let ord: Option<O> = match (&l, &r) {
        (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
        (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
        (Value::Date(a), Value::Date(b)) => Some(a.cmp(b)),
        (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
        (
            Value::Opaque {
                bytes: a,
                type_name: ta,
            },
            Value::Opaque {
                bytes: b,
                type_name: tb,
            },
        ) if ta == tb && (op == "=" || op == "!=") => Some(a.cmp(b)),
        _ => None,
    };
    let Some(ord) = ord else {
        return Err(IdsError::Type(format!("cannot compare {l} {op} {r}")));
    };
    let b = match op {
        "=" => ord == O::Equal,
        "!=" => ord != O::Equal,
        "<" => ord == O::Less,
        "<=" => ord != O::Greater,
        ">" => ord == O::Greater,
        ">=" => ord != O::Less,
        other => return Err(IdsError::Semantic(format!("unknown operator {other}"))),
    };
    Ok(Value::Bool(b))
}
