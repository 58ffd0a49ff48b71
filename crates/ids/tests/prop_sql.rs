//! Property-based SQL tests: randomly generated WHERE trees evaluated
//! through the engine must agree with a direct Rust oracle, and the
//! parser must be total (no panics) on arbitrary input.

use grt_ids::sql::{parse, Expr, Lit, Statement};
use grt_ids::{Database, DatabaseOptions, Value, ValueRef};
use grt_temporal::Day;
use proptest::prelude::*;

/// A tiny predicate AST we can both render to SQL and evaluate in Rust.
#[derive(Debug, Clone)]
enum Pred {
    Cmp(u8, i64), // column (a|b|c) op-coded vs constant
    And(Box<Pred>, Box<Pred>),
    Or(Box<Pred>, Box<Pred>),
    Not(Box<Pred>),
}

fn arb_pred() -> impl Strategy<Value = Pred> {
    let leaf = (0u8..9, -20i64..40).prop_map(|(code, k)| Pred::Cmp(code, k));
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Pred::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Pred::Or(Box::new(a), Box::new(b))),
            inner.prop_map(|a| Pred::Not(Box::new(a))),
        ]
    })
}

impl Pred {
    fn col(&self, code: u8) -> &'static str {
        ["a", "b", "c"][(code % 3) as usize]
    }

    fn op(&self, code: u8) -> &'static str {
        ["=", "!=", "<"][(code / 3 % 3) as usize]
    }

    fn to_sql(&self) -> String {
        match self {
            Pred::Cmp(code, k) => format!("{} {} {}", self.col(*code), self.op(*code), k),
            Pred::And(a, b) => format!("({} AND {})", a.to_sql(), b.to_sql()),
            Pred::Or(a, b) => format!("({} OR {})", a.to_sql(), b.to_sql()),
            Pred::Not(a) => format!("NOT ({})", a.to_sql()),
        }
    }

    fn eval(&self, row: &[i64; 3]) -> bool {
        match self {
            Pred::Cmp(code, k) => {
                let v = row[(*code % 3) as usize];
                match *code / 3 % 3 {
                    0 => v == *k,
                    1 => v != *k,
                    _ => v < *k,
                }
            }
            Pred::And(a, b) => a.eval(row) && b.eval(row),
            Pred::Or(a, b) => a.eval(row) || b.eval(row),
            Pred::Not(a) => !a.eval(row),
        }
    }
}

/// Any value the heap row codec stores.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        "\\PC{0,12}".prop_map(Value::Text),
        any::<i32>().prop_map(|d| Value::Date(Day(d))),
        any::<bool>().prop_map(Value::Bool),
        ("\\PC{1,10}", proptest::collection::vec(any::<u8>(), 0..20))
            .prop_map(|(type_name, bytes)| Value::Opaque { type_name, bytes }),
    ]
}

fn seeded_db(rows: &[[i64; 3]]) -> Database {
    let db = Database::new(DatabaseOptions::default());
    let conn = db.connect();
    conn.exec("CREATE TABLE t (a integer, b integer, c integer)")
        .unwrap();
    for r in rows {
        conn.exec(&format!(
            "INSERT INTO t VALUES ({}, {}, {})",
            r[0], r[1], r[2]
        ))
        .unwrap();
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// WHERE evaluation through the engine agrees with the Rust oracle.
    #[test]
    fn where_trees_match_oracle(
        rows in proptest::collection::vec([-20i64..40, -20i64..40, -20i64..40], 0..25),
        pred in arb_pred(),
    ) {
        let rows: Vec<[i64; 3]> = rows;
        let db = seeded_db(&rows);
        let conn = db.connect();
        let sql = format!("SELECT a FROM t WHERE {}", pred.to_sql());
        let result = conn.exec(&sql).unwrap();
        let got = result.rows.len();
        let expected = rows.iter().filter(|r| pred.eval(r)).count();
        prop_assert_eq!(got, expected, "{}", sql);
    }

    /// The parser never panics; it returns Ok or a clean error.
    #[test]
    fn parser_is_total(input in "\\PC{0,120}") {
        let _ = parse(&input);
    }

    /// Statements that parse, re-render via debug, and re-parse are
    /// stable for the INSERT fragment (a light roundtrip check).
    #[test]
    fn insert_literals_roundtrip(vals in proptest::collection::vec(-1000i64..1000, 1..8)) {
        let list = vals.iter().map(i64::to_string).collect::<Vec<_>>().join(", ");
        let stmt = parse(&format!("INSERT INTO t VALUES ({list})")).unwrap();
        match stmt {
            Statement::Insert { values, .. } => {
                prop_assert_eq!(values.len(), vals.len());
                for (e, v) in values.iter().zip(&vals) {
                    prop_assert_eq!(e, &Expr::Literal(Lit::Int(*v)));
                }
            }
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }

    /// UPDATE through the engine matches the oracle's rewrite.
    #[test]
    fn update_matches_oracle(
        rows in proptest::collection::vec([-20i64..40, -20i64..40, -20i64..40], 1..20),
        pred in arb_pred(),
        newval in -99i64..99,
    ) {
        let rows: Vec<[i64; 3]> = rows;
        let db = seeded_db(&rows);
        let conn = db.connect();
        conn.exec(&format!("UPDATE t SET b = {newval} WHERE {}", pred.to_sql())).unwrap();
        let result = conn.exec("SELECT a, b, c FROM t").unwrap();
        let mut got: Vec<[i64; 3]> = result
            .rows
            .iter()
            .map(|r| {
                let v = |i: usize| match &r[i] {
                    Value::Int(x) => *x,
                    other => panic!("{other}"),
                };
                [v(0), v(1), v(2)]
            })
            .collect();
        let mut expected: Vec<[i64; 3]> = rows
            .iter()
            .map(|r| if pred.eval(r) { [r[0], newval, r[2]] } else { *r })
            .collect();
        got.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    /// Decoding the columns at positions `P` of a stored row is decoding
    /// the whole row and picking `P` — repeated, reordered or all of
    /// them (`SELECT id, id`, `SELECT Time_Extent, id`, `SELECT *`) —
    /// and so is reading one column in place.
    #[test]
    fn decoded_columns_are_the_picked_columns(
        row in proptest::collection::vec(arb_value(), 1..7),
        picks in proptest::collection::vec(any::<usize>(), 0..9),
    ) {
        let stored = Value::encode_row(&row);
        let whole = Value::decode_row(&stored).unwrap();
        prop_assert_eq!(&whole, &row);
        let star: Vec<usize> = (0..row.len()).collect();
        let picks: Vec<usize> = picks.iter().map(|p| p % row.len()).collect();
        for positions in [&picks, &star] {
            let want: Vec<Value> = positions.iter().map(|&i| whole[i].clone()).collect();
            prop_assert_eq!(Value::decode_columns(&stored, positions).unwrap(), want);
        }
        for (i, v) in row.iter().enumerate() {
            prop_assert_eq!(ValueRef::column(&stored, i).unwrap().to_value(), v.clone());
        }
        // A position past the stored row is an error, wherever it sits.
        let mut past = picks.clone();
        past.push(row.len());
        prop_assert!(Value::decode_columns(&stored, &past).is_err());
        prop_assert!(ValueRef::column(&stored, row.len()).is_err());
    }

    /// A row cut short at any byte never panics the partial decoders:
    /// they answer an error, or — when everything they were asked for
    /// lies before the cut — the right values. Asked for the last column
    /// they need every byte, so every cut is an error.
    #[test]
    fn truncated_rows_error_in_the_partial_decoders(
        row in proptest::collection::vec(arb_value(), 1..6),
        picks in proptest::collection::vec(any::<usize>(), 1..6),
    ) {
        let stored = Value::encode_row(&row);
        let picks: Vec<usize> = picks.iter().map(|p| p % row.len()).collect();
        let want: Vec<Value> = picks.iter().map(|&i| row[i].clone()).collect();
        let last = row.len() - 1;
        for cut in 0..stored.len() {
            let cut_row = &stored[..cut];
            prop_assert!(Value::decode_row(cut_row).is_err());
            if let Ok(got) = Value::decode_columns(cut_row, &picks) {
                prop_assert_eq!(&got, &want, "cut {}", cut);
            }
            prop_assert!(Value::decode_columns(cut_row, &[picks[0], last]).is_err());
            prop_assert!(ValueRef::column(cut_row, last).is_err());
        }
    }
}
