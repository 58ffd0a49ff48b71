//! The remote driver: the [`Driver`] trait over a TCP connection to a
//! `grt-server`, speaking the [`crate::proto`] wire protocol.

use crate::proto::{
    self, read_frame, write_frame, Batch, ErrorCode, FrameError, Request, Response,
    PROTOCOL_VERSION,
};
use crate::{ClientError, Driver, Result};
use grt_ids::{QueryResult, Value};
use parking_lot::Mutex;
use std::io::BufWriter;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Rows requested per [`Request::Fetch`] round trip.
const FETCH_ROWS: u32 = 1024;

/// The most rows a result head's `total_rows` reserves room for up
/// front; a result beyond it grows as its batches arrive, so a head
/// that lies cannot make the client reserve memory it never fills.
const RESERVE_ROWS: usize = 1 << 16;

struct Wire {
    stream: TcpStream,
    writer: BufWriter<TcpStream>,
}

/// A TCP client session against a `grt-server`. One request/response
/// exchange is in flight at a time (the wire is locked for the round
/// trip), mirroring the statement-at-a-time discipline of an engine
/// connection.
pub struct RemoteDriver {
    wire: Mutex<Wire>,
    session: u64,
}

impl RemoteDriver {
    /// Connects, performs the handshake, and returns a ready driver.
    /// A server at capacity answers the connection with a
    /// backpressure error, surfaced here as
    /// [`ClientError::Backpressure`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<RemoteDriver> {
        let stream = TcpStream::connect(addr).map_err(|e| ClientError::Io(e.to_string()))?;
        stream
            .set_nodelay(true)
            .map_err(|e| ClientError::Io(e.to_string()))?;
        let writer = BufWriter::new(
            stream
                .try_clone()
                .map_err(|e| ClientError::Io(e.to_string()))?,
        );
        let driver = RemoteDriver {
            wire: Mutex::new(Wire { stream, writer }),
            session: 0,
        };
        let resp = driver.round_trip(&Request::Hello {
            version: PROTOCOL_VERSION,
        })?;
        match resp {
            Response::Welcome { version, session } => {
                if version != PROTOCOL_VERSION {
                    return Err(ClientError::Protocol(format!(
                        "server speaks protocol v{version}, client v{PROTOCOL_VERSION}"
                    )));
                }
                Ok(RemoteDriver { session, ..driver })
            }
            Response::Err { code, message } => Err(wire_error(code, &message)),
            other => Err(unexpected(other)),
        }
    }

    /// The engine session id backing this connection.
    pub fn session_id(&self) -> u64 {
        self.session
    }

    /// Sets the socket read timeout (mainly a test hook — a client
    /// that must not hang forever on a stalled server).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<()> {
        self.wire
            .lock()
            .stream
            .set_read_timeout(timeout)
            .map_err(|e| ClientError::Io(e.to_string()))
    }

    /// Recent trace events for this session (`SHOW TRACE`).
    pub fn trace(&self, max: u32) -> Result<Vec<proto::WireTraceEvent>> {
        match self.round_trip(&Request::Trace { max })? {
            Response::Trace { events } => Ok(events),
            other => Err(unexpected(other)),
        }
    }

    /// Clean disconnect: sends `Goodbye` and waits for the `Bye`.
    /// Dropping the driver without calling this is also safe — the
    /// server reaps the session when the socket closes — but the
    /// explicit form lets callers sequence "all sessions closed"
    /// assertions after it.
    pub fn goodbye(self) -> Result<()> {
        match self.round_trip(&Request::Goodbye)? {
            Response::Bye => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    fn round_trip(&self, req: &Request) -> Result<Response> {
        let mut wire = self.wire.lock();
        write_frame(&mut wire.writer, &req.encode()).map_err(|e| ClientError::Io(e.to_string()))?;
        let frame = read_frame(&mut wire.stream).map_err(|e| match e {
            FrameError::Eof => ClientError::Io("server closed the connection".into()),
            FrameError::Io(e) => ClientError::Io(e.to_string()),
            other => ClientError::Protocol(other.to_string()),
        })?;
        Response::decode(&frame).map_err(ClientError::Protocol)
    }

    /// Issues a statement-shaped request and assembles the complete
    /// [`QueryResult`], fetching continuation batches as needed.
    fn statement(&self, req: &Request) -> Result<QueryResult> {
        match self.round_trip(req)? {
            Response::Ok { message } => Ok(QueryResult {
                message,
                ..Default::default()
            }),
            Response::ResultHead {
                columns,
                message,
                cursor,
                total_rows,
                batch,
            } => {
                let mut out = QueryResult {
                    columns,
                    message,
                    rows: Vec::with_capacity(total_rows.min(RESERVE_ROWS as u64) as usize),
                    ..Default::default()
                };
                let mut done = append(&mut out, batch);
                loop {
                    let got = out.rows.len() as u64;
                    if got > total_rows || (done && got < total_rows) {
                        return Err(ClientError::Protocol(format!(
                            "result head announced {total_rows} rows, {got} arrived"
                        )));
                    }
                    if done {
                        return Ok(out);
                    }
                    match self.round_trip(&Request::Fetch {
                        cursor,
                        max_rows: FETCH_ROWS,
                    })? {
                        Response::Rows(batch) => done = append(&mut out, batch),
                        Response::Err { code, message } => return Err(wire_error(code, &message)),
                        other => return Err(unexpected(other)),
                    }
                }
            }
            Response::Err { code, message } => Err(wire_error(code, &message)),
            other => Err(unexpected(other)),
        }
    }
}

impl Driver for RemoteDriver {
    fn exec(&self, sql: &str) -> Result<QueryResult> {
        self.statement(&Request::Query {
            sql: sql.to_string(),
        })
    }

    fn prepare(&self, name: &str, sql: &str) -> Result<()> {
        match self.round_trip(&Request::Prepare {
            name: name.to_string(),
            sql: sql.to_string(),
        })? {
            Response::Ok { .. } => Ok(()),
            Response::Err { code, message } => Err(wire_error(code, &message)),
            other => Err(unexpected(other)),
        }
    }

    fn execute(&self, name: &str, args: &[Value]) -> Result<QueryResult> {
        self.statement(&Request::Execute {
            name: name.to_string(),
            args: args.to_vec(),
        })
    }

    fn deallocate(&self, name: &str) -> Result<()> {
        match self.round_trip(&Request::Deallocate {
            name: name.to_string(),
        })? {
            Response::Ok { .. } => Ok(()),
            Response::Err { code, message } => Err(wire_error(code, &message)),
            other => Err(unexpected(other)),
        }
    }

    fn metrics(&self) -> Result<Vec<(String, u64)>> {
        match self.round_trip(&Request::Metrics)? {
            Response::Metrics { entries } => Ok(entries),
            Response::Err { code, message } => Err(wire_error(code, &message)),
            other => Err(unexpected(other)),
        }
    }
}

/// Appends a batch to `out` and says whether it was the last. Text
/// rides only with a result the server alone can render (an opaque
/// column), so `rendered` reads as it does on the embedded path, and
/// [`QueryResult::text`] renders the rest for whoever prints it.
fn append(out: &mut QueryResult, batch: Batch) -> bool {
    out.rows.extend(batch.rows);
    out.rendered.extend(batch.rendered);
    batch.done
}

/// Maps a wire error onto the client error surface: engine codes
/// reconstruct their exact [`grt_ids::IdsError`]; transport codes map
/// to their dedicated variants.
fn wire_error(code: ErrorCode, message: &str) -> ClientError {
    match code {
        ErrorCode::Backpressure => ClientError::Backpressure,
        ErrorCode::ShuttingDown => ClientError::ShuttingDown,
        ErrorCode::Protocol => ClientError::Protocol(message.to_string()),
        engine => match proto::decode_error(engine, message) {
            Some(e) => ClientError::Engine(e),
            None => ClientError::Protocol(format!("unmappable error code {engine:?}: {message}")),
        },
    }
}

fn unexpected(resp: Response) -> ClientError {
    ClientError::Protocol(format!("unexpected response {resp:?}"))
}
