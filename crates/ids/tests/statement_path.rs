//! One statement, one resolution: what the executor binds per statement
//! (the index descriptor), what it validates once for every door
//! (`exec`, `exec_script`, `prepare` + `execute_values`), and which
//! names `resolve` takes for system catalogs.

use grt_ids::vii::QualNode;
use grt_ids::{
    AccessMethod, AmContext, Connection, Database, DatabaseOptions, IdsError, IndexDescriptor,
    QualDescriptor, RowId, ScanDescriptor, Value,
};
use std::sync::{Arc, Mutex};

/// What one purpose-function call saw.
#[derive(Debug, Clone, PartialEq)]
struct Call {
    slot: &'static str,
    /// Address of the index descriptor it was handed.
    td: usize,
    /// Whether the descriptor's `user_data` was still empty.
    fresh: bool,
}

/// An access method that keeps `(key, rowid)` pairs in memory (first
/// indexed column, integers), answers `IntEq(col, k)`, and records every
/// call. `am_open` parks a marker in the descriptor's `user_data` and
/// nothing ever clears it, so a later call seeing `fresh` proves it was
/// handed a different descriptor.
#[derive(Default)]
struct RecordingAm {
    calls: Mutex<Vec<Call>>,
    entries: Mutex<Vec<(i64, u64)>>,
}

impl RecordingAm {
    fn note(&self, slot: &'static str, idx: &IndexDescriptor) {
        self.calls.lock().unwrap().push(Call {
            slot,
            td: idx as *const IndexDescriptor as usize,
            fresh: idx.user_data.lock().is_none(),
        });
    }

    fn take(&self) -> Vec<Call> {
        std::mem::take(&mut self.calls.lock().unwrap())
    }
}

fn key_of(row: &[Value]) -> Result<i64, IdsError> {
    match row.first() {
        Some(Value::Int(k)) => Ok(*k),
        other => Err(IdsError::AccessMethod(format!("bad key {other:?}"))),
    }
}

impl AccessMethod for RecordingAm {
    fn am_open(&self, idx: &IndexDescriptor, _ctx: &AmContext) -> Result<(), IdsError> {
        self.note("am_open", idx);
        idx.user_data.lock().get_or_insert_with(|| Box::new(()));
        Ok(())
    }

    fn am_close(&self, idx: &IndexDescriptor, _ctx: &AmContext) -> Result<(), IdsError> {
        self.note("am_close", idx);
        Ok(())
    }

    fn am_beginscan(
        &self,
        idx: &IndexDescriptor,
        scan: &mut ScanDescriptor,
        _ctx: &AmContext,
    ) -> Result<(), IdsError> {
        self.note("am_beginscan", idx);
        let Some(QualNode::Simple(q)) = &scan.qual.root else {
            return Err(IdsError::AccessMethod("IntEq only".into()));
        };
        let Some(Value::Int(k)) = q.constant else {
            return Err(IdsError::AccessMethod("IntEq needs an int".into()));
        };
        let entries = self.entries.lock().unwrap();
        let hits: Vec<u64> = entries
            .iter()
            .filter(|(key, _)| *key == k)
            .map(|&(_, rid)| rid)
            .collect();
        scan.user_data = Some(Box::new(hits));
        Ok(())
    }

    fn am_getnext(
        &self,
        idx: &IndexDescriptor,
        scan: &mut ScanDescriptor,
        _ctx: &AmContext,
    ) -> Result<Option<(RowId, Vec<Value>)>, IdsError> {
        self.note("am_getnext", idx);
        let hits = scan
            .user_data
            .as_mut()
            .and_then(|b| b.downcast_mut::<Vec<u64>>())
            .ok_or_else(|| IdsError::AccessMethod("scan not begun".into()))?;
        Ok(hits.pop().map(|rid| (RowId(rid), Vec::new())))
    }

    fn am_endscan(
        &self,
        idx: &IndexDescriptor,
        _scan: &mut ScanDescriptor,
        _ctx: &AmContext,
    ) -> Result<(), IdsError> {
        self.note("am_endscan", idx);
        Ok(())
    }

    fn am_insert(
        &self,
        idx: &IndexDescriptor,
        row: &[Value],
        rowid: RowId,
        _ctx: &AmContext,
    ) -> Result<(), IdsError> {
        self.note("am_insert", idx);
        self.entries.lock().unwrap().push((key_of(row)?, rowid.0));
        Ok(())
    }

    fn am_delete(
        &self,
        idx: &IndexDescriptor,
        row: &[Value],
        rowid: RowId,
        _ctx: &AmContext,
    ) -> Result<(), IdsError> {
        self.note("am_delete", idx);
        let key = key_of(row)?;
        self.entries
            .lock()
            .unwrap()
            .retain(|&(k, r)| !(k == key && r == rowid.0));
        Ok(())
    }

    fn am_scancost(
        &self,
        idx: &IndexDescriptor,
        _qual: &QualDescriptor,
        _ctx: &AmContext,
    ) -> Result<f64, IdsError> {
        self.note("am_scancost", idx);
        Ok(0.0)
    }
}

/// A database with the recording blade registered and a table
/// `t (n integer, tag integer)`.
fn setup() -> (Database, Connection, Arc<RecordingAm>) {
    let db = Database::new(DatabaseOptions::default());
    let am = Arc::new(RecordingAm::default());
    db.install_library("rec.bld", am.clone());
    db.install_symbol(
        "usr/rec.bld(rec_getnext)",
        Arc::new(|_args: &[Value], _ctx: &AmContext| {
            Err(IdsError::Routine("internal purpose function".into()))
        }),
    );
    db.install_symbol(
        "usr/rec.bld(int_eq)",
        Arc::new(|args: &[Value], _ctx: &AmContext| match args {
            [Value::Int(a), Value::Int(b)] => Ok(Value::Bool(a == b)),
            _ => Err(IdsError::Type("IntEq(int, int)".into())),
        }),
    );
    let conn = db.connect();
    conn.exec_script(
        "CREATE FUNCTION rec_getnext(pointer) RETURNING int \
           EXTERNAL NAME 'usr/rec.bld(rec_getnext)' LANGUAGE c; \
         CREATE FUNCTION IntEq(integer, integer) RETURNING boolean \
           EXTERNAL NAME 'usr/rec.bld(int_eq)' LANGUAGE c; \
         CREATE SECONDARY ACCESS_METHOD rec_am (am_getnext = rec_getnext, am_sptype = 'S'); \
         CREATE OPCLASS rec_ops FOR rec_am STRATEGIES(IntEq); \
         CREATE TABLE t (n integer, tag integer)",
    )
    .unwrap();
    (db, conn, am)
}

#[test]
fn one_statement_hands_every_purpose_function_the_same_descriptor() {
    let (_db, conn, am) = setup();
    conn.exec("CREATE INDEX tix ON t(n rec_ops) USING rec_am")
        .unwrap();
    for (n, tag) in [(7, 1), (7, 2), (7, 3), (8, 4)] {
        conn.exec(&format!("INSERT INTO t VALUES ({n}, {tag})"))
            .unwrap();
    }
    am.take();

    let r = conn.exec("UPDATE t SET tag = 0 WHERE IntEq(n, 7)").unwrap();
    assert_eq!(r.message, "3 rows updated");
    let update = am.take();
    let slots: Vec<&str> = update.iter().map(|c| c.slot).collect();
    // Costed, scanned through the index, then one maintenance bracket
    // per row (the default am_update is am_delete + am_insert).
    assert_eq!(slots[..3], ["am_scancost", "am_open", "am_beginscan"]);
    assert_eq!(slots.iter().filter(|s| **s == "am_open").count(), 1 + 3);
    assert_eq!(slots.iter().filter(|s| **s == "am_delete").count(), 3);
    let td = update[0].td;
    assert!(
        update.iter().all(|c| c.td == td),
        "every call of the statement gets one descriptor: {update:?}"
    );
    // The marker the first am_open parked is still there for every
    // later call: it is the same descriptor, not an equal copy.
    let first_open = slots.iter().position(|s| *s == "am_open").unwrap();
    assert!(update[..=first_open].iter().all(|c| c.fresh));
    assert!(update[first_open + 1..].iter().all(|c| !c.fresh));

    // The next statement binds anew.
    let r = conn.exec("DELETE FROM t WHERE IntEq(n, 8)").unwrap();
    assert_eq!(r.message, "1 rows deleted");
    let delete = am.take();
    assert!(delete[0].fresh, "a new statement, a new descriptor");
    assert!(delete.iter().all(|c| c.td == delete[0].td));
}

#[test]
fn every_door_reports_a_bad_statement_the_same_way() {
    let (_db, conn, _am) = setup();
    let not_found = |what: &str| IdsError::NotFound(what.into());
    let cases = [
        ("SELECT * FROM nosuch", not_found("table nosuch")),
        (
            "DELETE FROM t WHERE nosuch = 1",
            not_found("column nosuch of table t"),
        ),
        (
            "SELECT * FROM t WHERE Nope(n, 1)",
            not_found("function Nope"),
        ),
        (
            "INSERT INTO t VALUES (1)",
            IdsError::Semantic("table t has 2 columns, 1 values given".into()),
        ),
        (
            "INSERT INTO t VALUES ('abc', 2)",
            IdsError::Type("cannot coerce abc to INTEGER".into()),
        ),
        (
            "UPDATE t SET nosuch = 1",
            not_found("column nosuch of table t"),
        ),
    ];
    for (sql, want) in cases {
        assert_eq!(conn.exec(sql), Err(want.clone()), "exec: {sql}");
        assert_eq!(conn.exec_script(sql), Err(want.clone()), "script: {sql}");
        let prepared = conn
            .prepare("p", sql)
            .and_then(|_| conn.execute_values("p", &[]));
        assert_eq!(prepared, Err(want), "prepare + execute: {sql}");
    }
    // None of it left anything behind.
    assert!(conn.exec("SELECT * FROM t").unwrap().rows.is_empty());
}

#[test]
fn system_catalogs_are_seven_names_not_a_prefix() {
    let (_db, conn, _am) = setup();
    // A user table whose name merely starts with "sys" is a user table
    // for all four statements.
    conn.exec("CREATE TABLE system_events (id integer, note text)")
        .unwrap();
    conn.exec("INSERT INTO system_events VALUES (1, 'boot')")
        .unwrap();
    conn.exec("INSERT INTO system_events VALUES (2, 'halt')")
        .unwrap();
    let all = conn.exec("SELECT * FROM system_events").unwrap();
    assert_eq!(all.columns, ["id", "note"]);
    assert_eq!(all.rows.len(), 2);
    let one = conn
        .exec("SELECT note FROM system_events WHERE id = 2")
        .unwrap();
    assert_eq!(one.rows, [[Value::Text("halt".into())]]);
    conn.exec("UPDATE system_events SET note = 'stop' WHERE id = 2")
        .unwrap();
    conn.exec("DELETE FROM system_events WHERE id = 1").unwrap();
    let left = conn.exec("SELECT note FROM system_events").unwrap();
    assert_eq!(left.rows, [[Value::Text("stop".into())]]);

    // A system catalog can be prepared like any table.
    conn.exec("PREPARE m FROM 'SELECT name FROM sysmetrics'")
        .unwrap();
    let metrics = conn.exec("EXECUTE m").unwrap();
    assert_eq!(metrics.columns, ["name"]);
    assert!(!metrics.rows.is_empty());
    assert_eq!(
        conn.exec("SELECT * FROM sysmetrics WHERE name = 'x'"),
        Err(IdsError::Semantic(
            "system catalogs support projection only".into()
        ))
    );

    // The seven names are taken, and only SELECT reads them.
    for name in [
        "sysams",
        "sysindices",
        "sysfragments",
        "systables",
        "sysmetrics",
        "sysprocedures",
        "SysOpclasses",
    ] {
        conn.exec(&format!("SELECT * FROM {name}")).unwrap();
        assert!(matches!(
            conn.exec(&format!("CREATE TABLE {name} (id integer)")),
            Err(IdsError::Duplicate(_))
        ));
        assert!(matches!(
            conn.exec(&format!("DELETE FROM {name}")),
            Err(IdsError::NotFound(_))
        ));
    }
}

#[test]
fn prepare_resolves_the_select_list() {
    let (_db, conn, _am) = setup();
    assert_eq!(
        conn.exec("PREPARE p FROM 'SELECT nosuch FROM t'"),
        Err(IdsError::NotFound("column nosuch of table t".into())),
        "an unknown projected column is a PREPARE-time error"
    );
    conn.exec("INSERT INTO t VALUES (1, 10)").unwrap();
    conn.exec("PREPARE q FROM 'SELECT TAG, n FROM t WHERE n = ?'")
        .unwrap();
    let r = conn.exec("EXECUTE q USING 1").unwrap();
    assert_eq!(r.columns, ["TAG", "n"], "headers as written");
    assert_eq!(r.rows, [[Value::Int(10), Value::Int(1)]]);

    // What PREPARE resolved is resolved against one table: a handle
    // that outlives it says so rather than project stale positions.
    conn.exec("DROP TABLE t").unwrap();
    conn.exec("CREATE TABLE t (n integer)").unwrap();
    assert!(matches!(
        conn.exec("EXECUTE q USING 1"),
        Err(IdsError::Semantic(m)) if m.contains("prepare it again")
    ));
}
