//! End-to-end wire smoke used by the `server-e2e` CI job.
//!
//! Connects to a running `grt-server`, exercises the full client
//! lifecycle — DDL, PREPARE/EXECUTE with bound values, multi-batch
//! fetch, eight concurrent connections, result text, `SHOW METRICS` —
//! and disconnects cleanly. Exits 0 with a summary line on success,
//! nonzero with the failure on stderr otherwise.

use grt_client::{ClientError, Driver, RemoteDriver};
use grt_ids::Value;

const CONCURRENCY: usize = 8;
const ROWS_PER_WORKER: usize = 32;
/// The extent every row holds, in the blade's text form.
const EXTENT: &str = "05/18/1997, UC, 05/18/1997, NOW";

fn main() {
    let addr = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "127.0.0.1:7878".to_string());
    if let Err(e) = run(&addr) {
        eprintln!("client_smoke: FAILED against {addr}: {e}");
        std::process::exit(1);
    }
}

fn run(addr: &str) -> Result<(), ClientError> {
    // Phase 1: schema + prepared lifecycle on one connection.
    let admin = RemoteDriver::connect(addr)?;
    admin.exec("CREATE TABLE smoke (id integer, Time_Extent GRT_TimeExtent_t)")?;
    admin.exec("CREATE INDEX smoke_ix ON smoke(Time_Extent grt_opclass) USING grtree_am")?;
    admin.prepare("ins", "INSERT INTO smoke VALUES (?, ?)")?;
    admin.prepare("sel", "SELECT id FROM smoke WHERE Overlaps(Time_Extent, ?)")?;

    // Phase 2: eight concurrent connections hammer the same table
    // through their own prepared handles, then verify their own rows.
    let tallies: Vec<usize> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONCURRENCY)
            .map(|w| {
                s.spawn(move || -> Result<usize, ClientError> {
                    let driver = RemoteDriver::connect(addr)?;
                    driver.prepare("ins", "INSERT INTO smoke VALUES (?, ?)")?;
                    for i in 0..ROWS_PER_WORKER {
                        let id = (w * ROWS_PER_WORKER + i) as i64;
                        driver.execute("ins", &[Value::Int(id), Value::Text(EXTENT.into())])?;
                    }
                    let got = driver.exec(&format!(
                        "SELECT id FROM smoke WHERE id >= {} AND id < {}",
                        w * ROWS_PER_WORKER,
                        (w + 1) * ROWS_PER_WORKER
                    ))?;
                    driver.deallocate("ins")?;
                    driver.goodbye()?;
                    Ok(got.rows.len())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("smoke worker panicked"))
            .collect::<Result<Vec<_>, _>>()
    })?;
    for (w, &n) in tallies.iter().enumerate() {
        if n != ROWS_PER_WORKER {
            return Err(ClientError::Protocol(format!(
                "worker {w} saw {n} of its rows, expected {ROWS_PER_WORKER}"
            )));
        }
    }

    // Phase 3: the index scan sees every row exactly once, through a
    // multi-batch fetch (total rows exceed one wire batch is not
    // guaranteed at this size, but the path is identical either way).
    let all = admin.execute(
        "sel",
        &[Value::Text("01/01/1997, UC, 01/01/1997, NOW".into())],
    )?;
    let expect = CONCURRENCY * ROWS_PER_WORKER;
    if all.rows.len() != expect {
        return Err(ClientError::Protocol(format!(
            "index scan returned {} rows, expected {expect}",
            all.rows.len()
        )));
    }

    // Phase 4: result text. The server ships the opaque column's text
    // (only its output function can make it; without it a cell reads
    // `<GRT_TimeExtent_t:N bytes>`) and the integers render from their
    // values; both must read as the engine would print them.
    let result = admin.exec("SELECT id, Time_Extent FROM smoke")?;
    let text = result.text();
    if text.len() != expect {
        return Err(ClientError::Protocol(format!(
            "{} text rows for {expect} rows",
            text.len()
        )));
    }
    for (row, cells) in result.rows.iter().zip(text.iter()) {
        let id = match row.first() {
            Some(Value::Int(id)) => id.to_string(),
            other => {
                return Err(ClientError::Protocol(format!(
                    "id cell {other:?} is not an integer"
                )))
            }
        };
        if cells[..] != [id.as_str(), EXTENT] {
            return Err(ClientError::Protocol(format!(
                "row {id} reads {cells:?} as text, expected [{id:?}, {EXTENT:?}]"
            )));
        }
    }

    // Phase 5: SHOW METRICS over the wire — the counters that prove
    // the server actually ran sessions and statements for us.
    let metrics = admin.metrics()?;
    let get = |key: &str| {
        metrics
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    if get("ids.sessions_opened") < (CONCURRENCY + 1) as u64 {
        return Err(ClientError::Protocol(format!(
            "ids.sessions_opened = {} after {} connections",
            get("ids.sessions_opened"),
            CONCURRENCY + 1
        )));
    }
    if get("ids.statements") == 0 {
        return Err(ClientError::Protocol(
            "ids.statements did not move".to_string(),
        ));
    }

    admin.deallocate("ins")?;
    admin.deallocate("sel")?;
    admin.exec("DROP TABLE smoke")?;
    admin.goodbye()?;
    println!(
        "client_smoke: OK ({CONCURRENCY} concurrent connections, {expect} rows round-tripped, \
         {} metric entries)",
        metrics.len()
    );
    Ok(())
}
