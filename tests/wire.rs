//! End-to-end tests of the wire layer: a real `grt-server` on a
//! loopback socket, driven through `grt-client`.
//!
//! Covers the tentpole guarantees: remote and embedded drivers are
//! observably identical behind the [`Driver`] trait; results stream
//! through cursors; overload sheds with a clean backpressure error;
//! framing and message-grammar violations fail the *connection* (and
//! reap its session, aborting any open transaction) without ever
//! failing the server; shutdown leaks nothing.

use grtree_datablade::blade::{install_grtree_blade, GrTreeAmOptions};
use grtree_datablade::client::proto::{
    read_frame, write_frame, Batch, ErrorCode, Request, Response, MAX_FRAME, PROTOCOL_VERSION,
};
use grtree_datablade::client::{ClientError, Driver, EmbeddedDriver, RemoteDriver};
use grtree_datablade::ids::{Database, DatabaseOptions, Value};
use grtree_datablade::server::{Server, ServerHandle, ServerOptions};
use grtree_datablade::temporal::Day;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

const EXTENT: &str = "05/18/1997, UC, 05/18/1997, NOW";
const OVERLAP: &str = "01/01/1997, UC, 01/01/1997, NOW";

fn fresh_db() -> Database {
    let db = Database::new(DatabaseOptions::default());
    install_grtree_blade(&db, GrTreeAmOptions::default()).unwrap();
    db
}

fn boot(opts: ServerOptions) -> (Database, ServerHandle) {
    let db = fresh_db();
    let handle = Server::new(db.clone(), opts).start().unwrap();
    (db, handle)
}

fn addr(h: &ServerHandle) -> String {
    h.local_addr().to_string()
}

/// Runs the same script through a driver and returns the SELECT's
/// rows — used to compare embedded and remote behaviour verbatim.
fn script(driver: &dyn Driver) -> Vec<Vec<Value>> {
    driver
        .exec("CREATE TABLE s (id integer, Time_Extent GRT_TimeExtent_t)")
        .unwrap();
    driver
        .exec("CREATE INDEX six ON s(Time_Extent grt_opclass) USING grtree_am")
        .unwrap();
    driver
        .prepare("ins", "INSERT INTO s VALUES (?, ?)")
        .unwrap();
    for id in 0..10i64 {
        driver
            .execute("ins", &[Value::Int(id), Value::Text(EXTENT.into())])
            .unwrap();
    }
    driver.deallocate("ins").unwrap();
    let out = driver
        .exec(&format!(
            "SELECT id FROM s WHERE Overlaps(Time_Extent, '{OVERLAP}')"
        ))
        .unwrap();
    assert!(!out.columns.is_empty());
    let mut rows = out.rows;
    rows.sort_by_key(|r| match r[0] {
        Value::Int(v) => v,
        _ => panic!("non-integer id"),
    });
    rows
}

/// A table of every non-opaque cell kind, NULL and non-ASCII text
/// included, loaded through a prepared INSERT.
fn plain_types(driver: &dyn Driver) {
    driver
        .exec("CREATE TABLE v (id integer, d date, b boolean, t text)")
        .unwrap();
    driver
        .prepare("vins", "INSERT INTO v VALUES (?, ?, ?, ?)")
        .unwrap();
    let rows = [
        [
            Value::Int(1),
            Value::Date(Day(10_000)),
            Value::Bool(true),
            Value::Text("Bliujūtė".into()),
        ],
        [
            Value::Int(-2),
            Value::Null,
            Value::Bool(false),
            Value::Text("日本語 ✓".into()),
        ],
        [Value::Null, Value::Date(Day(-3)), Value::Null, Value::Null],
    ];
    for row in &rows {
        driver.execute("vins", row).unwrap();
    }
    driver.deallocate("vins").unwrap();
}

#[test]
fn remote_driver_matches_embedded_driver() {
    let (_db, mut server) = boot(ServerOptions::default());
    let remote = RemoteDriver::connect(addr(&server)).unwrap();
    let remote_rows = script(&remote);

    let embedded_db = fresh_db();
    let embedded = EmbeddedDriver::connect(&embedded_db);
    let embedded_rows = script(&embedded);

    assert_eq!(remote_rows, embedded_rows);

    // Whole results, text included, are the same on both paths: both
    // carry text only for a result with an opaque column, which only
    // the server's output function can render, and `text()` renders
    // the rest from the values on either side.
    // The indexed shapes: the server copies a row off the heap page
    // unless a residual or an opaque output column has it decode.
    plain_types(&remote);
    plain_types(&embedded);
    let overlaps = format!("Overlaps(Time_Extent, '{OVERLAP}')");
    for (sql, opaque) in [
        ("SELECT id FROM s".into(), false),
        ("SELECT * FROM s".into(), true),
        ("SELECT Time_Extent, id FROM s WHERE id < 3".into(), true),
        (format!("SELECT id, id FROM s WHERE {overlaps}"), false),
        (
            format!("SELECT id, Time_Extent FROM s WHERE {overlaps}"),
            true,
        ),
        (
            format!("SELECT id FROM s WHERE {overlaps} AND id > 4"),
            false,
        ),
        ("SELECT * FROM v".into(), false),
        ("SELECT t, b FROM v WHERE id = 1".into(), false),
        ("SELECT * FROM systables".into(), false),
        (
            "SELECT index_name, access_method FROM sysindices".into(),
            false,
        ),
    ] {
        let sql: &str = &sql;
        let (r, e) = (remote.exec(sql).unwrap(), embedded.exec(sql).unwrap());
        assert_eq!(r.columns, e.columns, "{sql}");
        assert_eq!(r.rows, e.rows, "{sql}");
        assert_eq!(r.rendered, e.rendered, "{sql}");
        let rendered = if opaque { r.rows.len() } else { 0 };
        assert_eq!(r.rendered.len(), rendered, "{sql}");
        assert_eq!(r.text(), e.text(), "{sql}");
        assert_eq!(r.text().len(), r.rows.len(), "{sql}");
        assert!(!r.rows.is_empty(), "{sql}");
    }

    // Engine errors keep their exact shape across the wire.
    let e = remote.exec("SELECT id FROM nope").unwrap_err();
    let embedded_e = embedded.exec("SELECT id FROM nope").unwrap_err();
    match (&e, &embedded_e) {
        (ClientError::Engine(re), ClientError::Engine(ee)) => assert_eq!(re, ee),
        other => panic!("expected engine errors on both paths, got {other:?}"),
    }

    remote.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn results_stream_through_cursors() {
    // A 7-row head forces the 25-row result through multiple fetches.
    let (_db, mut server) = boot(ServerOptions {
        fetch_rows: 7,
        ..Default::default()
    });
    let driver = RemoteDriver::connect(addr(&server)).unwrap();
    driver
        .exec("CREATE TABLE c (id integer, Time_Extent GRT_TimeExtent_t)")
        .unwrap();
    for id in 0..25i64 {
        driver
            .exec(&format!("INSERT INTO c VALUES ({id}, '{EXTENT}')"))
            .unwrap();
    }
    let out = driver.exec("SELECT id FROM c").unwrap();
    assert_eq!(out.rows.len(), 25);
    assert!(out.rendered.is_empty());
    assert_eq!(out.text().len(), 25);
    driver.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn opaque_text_streams_through_cursors() {
    // The same 7-row head, with an opaque column: the server renders
    // its text and every fetch carries the text of its own rows.
    let (db, mut server) = boot(ServerOptions {
        fetch_rows: 7,
        ..Default::default()
    });
    let driver = RemoteDriver::connect(addr(&server)).unwrap();
    driver
        .exec("CREATE TABLE c (id integer, Time_Extent GRT_TimeExtent_t)")
        .unwrap();
    for id in 0..25i64 {
        driver
            .exec(&format!("INSERT INTO c VALUES ({id}, '{EXTENT}')"))
            .unwrap();
    }
    let sql = "SELECT id, Time_Extent FROM c";
    let out = driver.exec(sql).unwrap();
    assert_eq!(out.rows.len(), 25);
    assert_eq!(out.rendered, db.connect().exec(sql).unwrap().rendered);
    for (id, text) in out.rendered.iter().enumerate() {
        assert_eq!(text, &[id.to_string(), EXTENT.to_string()]);
    }
    // On the wire itself, text rides only with the opaque column.
    let mut s = raw_handshake(&addr(&server));
    for (sql, text) in [("SELECT id FROM c", false), (sql, true)] {
        write_frame(&mut s, &Request::Query { sql: sql.into() }.encode()).unwrap();
        match Response::decode(&read_frame(&mut s).unwrap()).unwrap() {
            Response::ResultHead { batch, .. } => {
                assert_eq!(batch.rows.len(), 7, "{sql}");
                assert_eq!(batch.rendered.len(), if text { 7 } else { 0 }, "{sql}");
            }
            other => panic!("expected a result head, got {other:?}"),
        }
    }
    drop(s);
    driver.goodbye().unwrap();
    server.shutdown();
}

/// The `SET EXPLAIN` line a session's last indexed SELECT left about
/// its heap pass.
fn heap_fetch_line<'a>(messages: impl DoubleEndedIterator<Item = &'a String>) -> String {
    messages
        .rev()
        .find(|m| m.contains("heap fetch:"))
        .expect("an indexed SELECT under SET EXPLAIN ON reports its heap pass")
        .clone()
}

#[test]
fn the_served_path_reports_what_the_embedded_one_does() {
    let (db, mut server) = boot(ServerOptions::default());
    let conn = db.connect();
    conn.exec("CREATE TABLE h (id integer, pad text, Time_Extent GRT_TimeExtent_t)")
        .unwrap();
    for id in 0..300 {
        let pad = "x".repeat(40);
        conn.exec(&format!("INSERT INTO h VALUES ({id}, '{pad}', '{EXTENT}')"))
            .unwrap();
    }
    conn.exec("CREATE INDEX hix ON h(Time_Extent grt_opclass) USING grtree_am")
        .unwrap();
    let sql = format!("SELECT id FROM h WHERE Overlaps(Time_Extent, '{OVERLAP}')");
    let heap = |run: &dyn Fn() -> Vec<Vec<Value>>| {
        let before = db.metrics_snapshot();
        let rows = run();
        let d = db.metrics_snapshot().since(&before);
        assert_eq!(d.get("ids.plans_index"), 1, "not an index scan");
        (rows, d.get("scan.heap_rows"), d.get("scan.heap_pages"))
    };

    conn.exec("SET EXPLAIN ON").unwrap();
    let embedded = heap(&|| conn.exec(&sql).unwrap().rows);
    let events = db.trace().events_for(conn.session().id());
    let embedded_line = heap_fetch_line(events.iter().map(|e| &e.message));

    let remote = RemoteDriver::connect(addr(&server)).unwrap();
    remote.exec("SET EXPLAIN ON").unwrap();
    let served = heap(&|| remote.exec(&sql).unwrap().rows);
    let events = remote.trace(64).unwrap();
    let served_line = heap_fetch_line(events.iter().map(|e| &e.message));

    assert_eq!(served, embedded);
    assert_eq!(embedded.0.len(), 300);
    assert!(embedded.2 > 1, "{} heap pages", embedded.2);
    assert_eq!(
        embedded_line,
        format!(
            "h: heap fetch: {} rows from {} pages",
            embedded.1, embedded.2
        )
    );
    assert_eq!(served_line, embedded_line);
    remote.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn a_result_head_that_miscounts_its_rows_is_a_protocol_error() {
    // A fake server that announces 5 rows and sends 2, then announces
    // `u64::MAX` and sends none.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let request = |s: &mut TcpStream| Request::decode(&read_frame(s).unwrap());
        assert!(matches!(request(&mut s), Ok(Request::Hello { .. })));
        let welcome = Response::Welcome {
            version: PROTOCOL_VERSION,
            session: 1,
        };
        write_frame(&mut s, &welcome.encode()).unwrap();
        for (total_rows, sent) in [(5, 2), (u64::MAX, 0)] {
            assert!(matches!(request(&mut s), Ok(Request::Query { .. })));
            let head = Response::ResultHead {
                columns: vec!["id".into()],
                message: String::new(),
                cursor: 0,
                total_rows,
                batch: Batch {
                    rows: (0..sent).map(|id| vec![Value::Int(id)]).collect(),
                    rendered: Vec::new(),
                    done: true,
                },
            };
            write_frame(&mut s, &head.encode()).unwrap();
        }
    });
    let driver = RemoteDriver::connect(addr).unwrap();
    for (total, got) in [("5", 2), ("18446744073709551615", 0)] {
        match driver.exec("SELECT id FROM t") {
            Err(ClientError::Protocol(m)) => {
                assert_eq!(
                    m,
                    format!("result head announced {total} rows, {got} arrived")
                )
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }
    fake.join().unwrap();
}

#[test]
fn eight_concurrent_wire_clients() {
    let (db, mut server) = boot(ServerOptions::default());
    let setup = RemoteDriver::connect(addr(&server)).unwrap();
    setup
        .exec("CREATE TABLE w (id integer, Time_Extent GRT_TimeExtent_t)")
        .unwrap();
    setup
        .exec("CREATE INDEX wix ON w(Time_Extent grt_opclass) USING grtree_am")
        .unwrap();

    let a = addr(&server);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|w| {
                let a = a.clone();
                s.spawn(move || {
                    let driver = RemoteDriver::connect(a).unwrap();
                    driver
                        .prepare("ins", "INSERT INTO w VALUES (?, ?)")
                        .unwrap();
                    for i in 0..16i64 {
                        driver
                            .execute(
                                "ins",
                                &[Value::Int(w * 1000 + i), Value::Text(EXTENT.into())],
                            )
                            .unwrap();
                    }
                    let got = driver
                        .exec(&format!(
                            "SELECT id FROM w WHERE Overlaps(Time_Extent, '{OVERLAP}')"
                        ))
                        .unwrap();
                    assert!(got.rows.len() >= 16);
                    driver.goodbye().unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });

    let total = setup.exec("SELECT id FROM w").unwrap();
    assert_eq!(total.rows.len(), 8 * 16);
    setup.goodbye().unwrap();
    server.shutdown();

    // Every wire session was reaped; nothing leaked.
    assert_eq!(server.engine().pool.live(), 0);
    let m = db.metrics_snapshot();
    assert_eq!(m.get("ids.sessions_opened"), m.get("ids.sessions_closed"));
    assert_eq!(m.get("ids.prepared_opened"), m.get("ids.prepared_closed"));
}

#[test]
fn overload_sheds_with_backpressure_error() {
    let (_db, mut server) = boot(ServerOptions {
        max_sessions: 2,
        ..Default::default()
    });
    let a = addr(&server);
    let first = RemoteDriver::connect(&*a).unwrap();
    let second = RemoteDriver::connect(&*a).unwrap();
    // The pool is full: the third connection is answered, not hung.
    match RemoteDriver::connect(&*a) {
        Err(ClientError::Backpressure) => {}
        Err(other) => panic!("expected backpressure, got {other}"),
        Ok(_) => panic!("expected backpressure, got an admitted session"),
    }
    // Releasing a session re-admits.
    first.goodbye().unwrap();
    // The worker releases its permit asynchronously after the Bye;
    // poll briefly rather than racing it.
    let mut admitted = None;
    for _ in 0..100 {
        match RemoteDriver::connect(&*a) {
            Ok(d) => {
                admitted = Some(d);
                break;
            }
            Err(ClientError::Backpressure) => std::thread::sleep(Duration::from_millis(10)),
            Err(other) => panic!("unexpected error {other}"),
        }
    }
    let third = admitted.expect("slot never released after goodbye");
    third.goodbye().unwrap();
    second.goodbye().unwrap();
    server.shutdown();
}

/// Raw-socket helper: handshake, then return the stream.
fn raw_handshake(addr: &str) -> TcpStream {
    let mut s = TcpStream::connect(addr).unwrap();
    write_frame(
        &mut s,
        &Request::Hello {
            version: PROTOCOL_VERSION,
        }
        .encode(),
    )
    .unwrap();
    let frame = read_frame(&mut s).unwrap();
    assert!(matches!(
        Response::decode(&frame).unwrap(),
        Response::Welcome { .. }
    ));
    s
}

fn expect_protocol_error_then_close(mut s: TcpStream) {
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let frame = read_frame(&mut s).unwrap();
    match Response::decode(&frame).unwrap() {
        Response::Err { code, .. } => assert_eq!(code, ErrorCode::Protocol),
        other => panic!("expected protocol error, got {other:?}"),
    }
    // And then the server closes the connection.
    assert!(read_frame(&mut s).is_err());
}

#[test]
fn framing_violations_fail_the_connection_cleanly() {
    let (_db, mut server) = boot(ServerOptions::default());
    let a = addr(&server);

    // Zero-length frame.
    let s = raw_handshake(&a);
    (&s).write_all(&0u32.to_le_bytes()).unwrap();
    expect_protocol_error_then_close(s);

    // Oversized declared length — rejected from the prefix alone,
    // before any payload is sent.
    let s = raw_handshake(&a);
    (&s).write_all(&((MAX_FRAME as u32) + 1).to_le_bytes())
        .unwrap();
    expect_protocol_error_then_close(s);

    // Malformed message: unknown request tag inside a valid frame.
    let s = raw_handshake(&a);
    write_frame(&mut &s, &[0xEE, 1, 2, 3]).unwrap();
    expect_protocol_error_then_close(s);

    // Truncated message body (valid frame, short payload).
    let s = raw_handshake(&a);
    let mut query = Request::Query {
        sql: "SELECT 1".into(),
    }
    .encode();
    query.truncate(query.len() - 3);
    write_frame(&mut &s, &query).unwrap();
    expect_protocol_error_then_close(s);

    // Statement before handshake.
    let mut s = TcpStream::connect(&a).unwrap();
    write_frame(
        &mut s,
        &Request::Query {
            sql: "SELECT 1".into(),
        }
        .encode(),
    )
    .unwrap();
    expect_protocol_error_then_close(s);

    // After all that abuse the server still serves normal clients.
    let driver = RemoteDriver::connect(&*a).unwrap();
    driver.exec("CREATE TABLE ok (id integer)").unwrap();
    driver.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn mid_statement_disconnect_aborts_open_transaction() {
    let (db, mut server) = boot(ServerOptions::default());
    let a = addr(&server);
    {
        let driver = RemoteDriver::connect(&*a).unwrap();
        driver.exec("CREATE TABLE d (id integer)").unwrap();
        driver.exec("BEGIN WORK").unwrap();
        driver.exec("INSERT INTO d VALUES (1)").unwrap();
        // Drop the TCP connection with the transaction still open
        // (and write locks still held).
    }
    // Shutdown joins the worker, which must have reaped the session —
    // aborting the transaction and releasing its locks.
    server.shutdown();
    assert!(
        db.space().locks_quiescent(),
        "disconnected session leaked locks"
    );
    let m = db.metrics_snapshot();
    assert_eq!(m.get("ids.sessions_opened"), m.get("ids.sessions_closed"));
    // The uncommitted insert rolled back.
    let check = fresh_check(&db);
    assert_eq!(check, 0);
}

fn fresh_check(db: &Database) -> usize {
    let conn = db.connect();
    conn.exec("SELECT id FROM d").unwrap().rows.len()
}

#[test]
fn trace_rides_the_wire() {
    let (_db, mut server) = boot(ServerOptions::default());
    let driver = RemoteDriver::connect(addr(&server)).unwrap();
    driver
        .exec("CREATE TABLE tr (id integer, Time_Extent GRT_TimeExtent_t)")
        .unwrap();
    driver
        .exec("CREATE INDEX trix ON tr(Time_Extent grt_opclass) USING grtree_am")
        .unwrap();
    driver.exec("SET TRACE ON 'AM'").unwrap();
    driver
        .exec(&format!("INSERT INTO tr VALUES (1, '{EXTENT}')"))
        .unwrap();
    driver
        .exec(&format!(
            "SELECT id FROM tr WHERE Overlaps(Time_Extent, '{OVERLAP}')"
        ))
        .unwrap();
    let events = driver.trace(64).unwrap();
    assert!(
        !events.is_empty(),
        "SET TRACE ON produced no events over the wire"
    );
    driver.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn metrics_ride_the_wire() {
    let (db, mut server) = boot(ServerOptions::default());
    let driver = RemoteDriver::connect(addr(&server)).unwrap();
    driver.exec("CREATE TABLE m (id integer)").unwrap();
    driver.exec("INSERT INTO m VALUES (1)").unwrap();
    let wire = driver.metrics().unwrap();
    let get = |k: &str| wire.iter().find(|(n, _)| n == k).map(|&(_, v)| v);
    assert!(get("ids.statements").unwrap_or(0) >= 2);
    assert!(get("ids.udr_resolutions").is_some());
    // The wire view is the same flattening the embedded driver uses.
    let local = grtree_datablade::client::flatten_metrics(&db);
    let names: std::collections::BTreeSet<_> = wire.iter().map(|(n, _)| n.clone()).collect();
    for (n, _) in &local {
        assert!(names.contains(n), "metric {n} missing from the wire view");
    }
    driver.goodbye().unwrap();
    server.shutdown();
}
