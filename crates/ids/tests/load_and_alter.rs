//! Tests for the `LOAD` command (the text-file import support-function
//! path of Section 6.3) and `ALTER FUNCTION ... NEGATOR/COMMUTATOR`
//! (the Section 5.2 relationship declarations).

use grt_ids::opaque::OpaqueType;
use grt_ids::{AmContext, Database, DatabaseOptions, IdsError, Value};
use std::sync::Arc;

fn db_with_type() -> Database {
    let db = Database::new(DatabaseOptions::default());
    // A toy opaque type whose *import* differs from plain text input:
    // import accepts "a:b", text input accepts "a,b" — so the test can
    // prove LOAD goes through the import path.
    let base = OpaqueType::new(
        "Pair",
        Arc::new(|text: &str| {
            let (a, b) = text
                .split_once(',')
                .ok_or_else(|| IdsError::Type("expected a,b".into()))?;
            let a: i32 = a.trim().parse().map_err(|_| IdsError::Type("a".into()))?;
            let b: i32 = b.trim().parse().map_err(|_| IdsError::Type("b".into()))?;
            let mut out = a.to_le_bytes().to_vec();
            out.extend_from_slice(&b.to_le_bytes());
            Ok(out)
        }),
        Arc::new(|bytes: &[u8]| {
            let a = i32::from_le_bytes(bytes[0..4].try_into().unwrap());
            let b = i32::from_le_bytes(bytes[4..8].try_into().unwrap());
            Ok(format!("{a},{b}"))
        }),
    );
    let text_input = Arc::clone(&base.input);
    let ty = OpaqueType {
        import: Arc::new(move |text: &str| {
            let normalized = text.replace(':', ",");
            text_input(&normalized)
        }),
        ..base
    };
    db.install_opaque_type(ty);
    db
}

#[test]
fn load_goes_through_the_import_function() {
    let db = db_with_type();
    let conn = db.connect();
    conn.exec("CREATE TABLE points (label text, p Pair, n integer)")
        .unwrap();
    let dir = std::env::temp_dir();
    let path = dir.join(format!("ids-load-{}.unl", std::process::id()));
    std::fs::write(&path, "alpha|1:2|10\nbeta|3:4|20\n\ngamma|5:6|30\n").unwrap();
    let r = conn
        .exec(&format!(
            "LOAD FROM '{}' INSERT INTO points",
            path.display()
        ))
        .unwrap();
    assert_eq!(r.message, "3 rows loaded");
    let rows = conn.exec("SELECT label, p, n FROM points").unwrap();
    assert_eq!(rows.rows.len(), 3);
    // The rendered opaque value uses the text-output form.
    assert_eq!(rows.text()[1][1], "3,4");
    assert_eq!(rows.rows[2][2], Value::Int(30));
    std::fs::remove_file(&path).ok();
}

#[test]
fn load_errors_are_clean() {
    let db = db_with_type();
    let conn = db.connect();
    conn.exec("CREATE TABLE points (p Pair)").unwrap();
    // Missing file.
    assert!(matches!(
        conn.exec("LOAD FROM '/no/such/file.unl' INSERT INTO points"),
        Err(IdsError::Semantic(_))
    ));
    // Wrong arity.
    let path = std::env::temp_dir().join(format!("ids-load-bad-{}.unl", std::process::id()));
    std::fs::write(&path, "1:2|extra\n").unwrap();
    let err = conn
        .exec(&format!(
            "LOAD FROM '{}' INSERT INTO points",
            path.display()
        ))
        .unwrap_err();
    assert!(matches!(err, IdsError::Semantic(_)), "{err:?}");
    // The failed LOAD rolled back: nothing was inserted.
    assert!(conn.exec("SELECT * FROM points").unwrap().rows.is_empty());
    std::fs::remove_file(&path).ok();
}

#[test]
fn alter_function_records_negator_and_commutator() {
    let db = Database::new(DatabaseOptions::default());
    for sym in ["eq", "ne"] {
        db.install_symbol(
            &format!("lib.bld({sym})"),
            Arc::new(move |_args: &[Value], _ctx: &AmContext| Ok(Value::Bool(true))),
        );
    }
    let conn = db.connect();
    conn.exec(
        "CREATE FUNCTION PairEq(Pair, Pair) RETURNING boolean \
         EXTERNAL NAME 'lib.bld(eq)' LANGUAGE c",
    )
    .unwrap();
    conn.exec(
        "CREATE FUNCTION PairNe(Pair, Pair) RETURNING boolean \
         EXTERNAL NAME 'lib.bld(ne)' LANGUAGE c",
    )
    .unwrap();
    conn.exec("ALTER FUNCTION PairEq NEGATOR PairNe COMMUTATOR PairEq")
        .unwrap();
    let r = db.resolve_routine("PairEq", &[None, None]).unwrap();
    assert_eq!(r.negator.as_deref(), Some("PairNe"));
    assert_eq!(r.commutator.as_deref(), Some("PairEq"));
    // The link is symmetric, as Informix records it.
    let n = db.resolve_routine("PairNe", &[None, None]).unwrap();
    assert_eq!(n.negator.as_deref(), Some("PairEq"));
    // Unknown functions are rejected.
    assert!(conn.exec("ALTER FUNCTION Missing NEGATOR PairNe").is_err());
    assert!(conn.exec("ALTER FUNCTION PairEq").is_err());
}
