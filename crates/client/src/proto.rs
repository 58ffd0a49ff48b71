//! The wire protocol: length-prefixed frames carrying a small
//! request/response message set.
//!
//! Every frame is a 4-byte little-endian payload length followed by
//! the payload. A zero-length frame and a frame longer than
//! [`MAX_FRAME`] are protocol violations — the peer answers with a
//! protocol error and closes the connection. Inside a frame, the
//! first byte is the message tag; strings are `u32` length + UTF-8
//! bytes; values ride the engine's own row codec
//! ([`Value::encode`] / [`Value::decode`]), so anything a `SELECT`
//! can return survives the wire unchanged.
//!
//! Each value crosses once. A result's text form travels only when the
//! client cannot rebuild it from the values: when an output column is
//! an opaque type, whose text only the type's output function (which
//! lives in the server) can make. Otherwise a [`Batch`] carries no text,
//! and nor does the [`grt_ids::QueryResult`] the client assembles: its
//! [`text`](grt_ids::QueryResult::text) renders each value's `Display`
//! for a caller who prints it, the same function the server uses for
//! every non-opaque cell.
//!
//! The message set is deliberately small (the Section 6 surface a
//! DataBlade client actually needs): handshake, ad-hoc query,
//! prepare / execute / deallocate, batched row fetch, a
//! `SHOW METRICS`-style observability pair, and a clean goodbye.

use grt_ids::sink::encode_text_image;
use grt_ids::{EncodedRows, Value};
use std::io::{self, Read, Write};
use std::ops::Range;

/// Protocol version sent in the handshake; the server refuses
/// mismatches so framing bugs surface as a clean error, not garbage.
/// Version 2: a [`Batch`] carries no text rows or one per value row.
pub const PROTOCOL_VERSION: u32 = 2;

/// Hard ceiling on a frame payload (16 MiB). A declared length beyond
/// it is rejected *before* any payload is read, so a malicious or
/// corrupt length prefix cannot make the server allocate unboundedly.
pub const MAX_FRAME: usize = 16 << 20;

/// Error classification carried by [`Response::Err`]. Codes 1–14 map
/// the engine's [`grt_ids::IdsError`] (including the storage variants
/// a client needs to distinguish to implement retry-on-contention);
/// 32+ are transport-level conditions the engine never produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// SQL syntax error.
    Parse = 1,
    /// Unknown table/column/function/type/index/access method.
    NotFound = 2,
    /// Name already registered.
    Duplicate = 3,
    /// Type mismatch or bad value.
    Type = 4,
    /// Constraint or semantic violation.
    Semantic = 5,
    /// A user-defined routine failed.
    Routine = 6,
    /// Access-method failure.
    AccessMethod = 7,
    /// Storage-layer I/O failure.
    StorageIo = 8,
    /// Storage-layer object not found.
    StorageNotFound = 9,
    /// The statement's transaction was aborted as a deadlock victim.
    Deadlock = 10,
    /// Lock acquisition timed out.
    LockTimeout = 11,
    /// The store's on-disk state is corrupt.
    Corrupt = 12,
    /// Storage API misuse.
    Usage = 13,
    /// The transaction had already ended.
    TxnEnded = 14,
    /// The peer violated the framing or message grammar.
    Protocol = 32,
    /// The server's session pool is full — try again later.
    Backpressure = 33,
    /// The server is shutting down gracefully.
    ShuttingDown = 34,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<ErrorCode> {
        use ErrorCode::*;
        Some(match v {
            1 => Parse,
            2 => NotFound,
            3 => Duplicate,
            4 => Type,
            5 => Semantic,
            6 => Routine,
            7 => AccessMethod,
            8 => StorageIo,
            9 => StorageNotFound,
            10 => Deadlock,
            11 => LockTimeout,
            12 => Corrupt,
            13 => Usage,
            14 => TxnEnded,
            32 => Protocol,
            33 => Backpressure,
            34 => ShuttingDown,
            _ => return None,
        })
    }
}

/// Maps an engine error onto its wire code and message.
pub fn encode_error(e: &grt_ids::IdsError) -> (ErrorCode, String) {
    use grt_ids::IdsError as E;
    match e {
        E::Parse(m) => (ErrorCode::Parse, m.clone()),
        E::NotFound(m) => (ErrorCode::NotFound, m.clone()),
        E::Duplicate(m) => (ErrorCode::Duplicate, m.clone()),
        E::Type(m) => (ErrorCode::Type, m.clone()),
        E::Semantic(m) => (ErrorCode::Semantic, m.clone()),
        E::Routine(m) => (ErrorCode::Routine, m.clone()),
        E::AccessMethod(m) => (ErrorCode::AccessMethod, m.clone()),
        E::Storage(s) => {
            use grt_sbspace::SbError as S;
            match s {
                S::Io(m) => (ErrorCode::StorageIo, m.clone()),
                S::NotFound(m) => (ErrorCode::StorageNotFound, m.clone()),
                S::Deadlock(m) => (ErrorCode::Deadlock, m.clone()),
                S::LockTimeout(m) => (ErrorCode::LockTimeout, m.clone()),
                S::Corrupt(m) => (ErrorCode::Corrupt, m.clone()),
                S::Usage(m) => (ErrorCode::Usage, m.clone()),
                S::TxnEnded => (ErrorCode::TxnEnded, String::new()),
            }
        }
    }
}

/// Reconstructs the engine error a wire code stands for, so remote
/// callers can match on [`grt_ids::IdsError`] exactly as embedded
/// callers do (e.g. to treat deadlock/timeout losses as retryable).
/// Transport codes (`Protocol`, `Backpressure`, `ShuttingDown`) have
/// no engine equivalent and return `None`.
pub fn decode_error(code: ErrorCode, message: &str) -> Option<grt_ids::IdsError> {
    use grt_ids::IdsError as E;
    use grt_sbspace::SbError as S;
    let m = message.to_string();
    Some(match code {
        ErrorCode::Parse => E::Parse(m),
        ErrorCode::NotFound => E::NotFound(m),
        ErrorCode::Duplicate => E::Duplicate(m),
        ErrorCode::Type => E::Type(m),
        ErrorCode::Semantic => E::Semantic(m),
        ErrorCode::Routine => E::Routine(m),
        ErrorCode::AccessMethod => E::AccessMethod(m),
        ErrorCode::StorageIo => E::Storage(S::Io(m)),
        ErrorCode::StorageNotFound => E::Storage(S::NotFound(m)),
        ErrorCode::Deadlock => E::Storage(S::Deadlock(m)),
        ErrorCode::LockTimeout => E::Storage(S::LockTimeout(m)),
        ErrorCode::Corrupt => E::Storage(S::Corrupt(m)),
        ErrorCode::Usage => E::Storage(S::Usage(m)),
        ErrorCode::TxnEnded => E::Storage(S::TxnEnded),
        ErrorCode::Protocol | ErrorCode::Backpressure | ErrorCode::ShuttingDown => return None,
    })
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Handshake — must be the first frame on a connection.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Execute one ad-hoc SQL statement.
    Query {
        /// The statement text.
        sql: String,
    },
    /// Compile a statement under a name (server-side `PREPARE`).
    Prepare {
        /// Handle name, unique per session.
        name: String,
        /// The statement text, with `?` parameter slots.
        sql: String,
    },
    /// Run a prepared statement with bound parameter values.
    Execute {
        /// Handle name from a previous [`Request::Prepare`].
        name: String,
        /// Parameter values, one per `?` slot.
        args: Vec<Value>,
    },
    /// Drop a prepared statement handle.
    Deallocate {
        /// Handle name to drop.
        name: String,
    },
    /// Pull the next batch of rows from an open result cursor.
    Fetch {
        /// Cursor id from a [`Response::ResultHead`].
        cursor: u64,
        /// Upper bound on rows returned in this batch.
        max_rows: u32,
    },
    /// `SHOW METRICS`: the server's unified counter registry.
    Metrics,
    /// `SHOW TRACE`: recent trace events for this session.
    Trace {
        /// Upper bound on events returned (most recent win).
        max: u32,
    },
    /// Clean disconnect; the server replies [`Response::Bye`].
    Goodbye,
}

/// One batch of result rows: raw values, plus their rendered text when
/// the client could not rebuild it (see the module docs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Batch {
    /// Raw result rows.
    pub rows: Vec<Vec<Value>>,
    /// Empty, or the same rows rendered through the type support
    /// functions: one text row per value row, cell for cell. The
    /// decoder refuses any other shape.
    pub rendered: Vec<Vec<String>>,
    /// True when the cursor is exhausted (and closed server-side).
    pub done: bool,
}

/// One trace event as it crosses the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireTraceEvent {
    /// Trace class (e.g. `GRT`, `EXPLAIN`).
    pub class: String,
    /// Trace level.
    pub level: u8,
    /// Session the event belongs to.
    pub session: u64,
    /// Statement span id.
    pub span: u64,
    /// The event text.
    pub message: String,
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake accepted.
    Welcome {
        /// The server's [`PROTOCOL_VERSION`].
        version: u32,
        /// The engine session id backing this connection.
        session: u64,
    },
    /// A statement succeeded without a result set.
    Ok {
        /// Engine status message (e.g. `committed`).
        message: String,
    },
    /// Head of a result set: columns plus the first row batch. When
    /// `batch.done` is false, `cursor` is non-zero and the remaining
    /// rows are pulled with [`Request::Fetch`].
    ResultHead {
        /// Column headers.
        columns: Vec<String>,
        /// Engine status message.
        message: String,
        /// Cursor id for follow-up fetches (0 when `batch.done`).
        cursor: u64,
        /// Total rows in the result set.
        total_rows: u64,
        /// The first batch.
        batch: Batch,
    },
    /// A fetched continuation batch.
    Rows(Batch),
    /// Counter registry dump (`SHOW METRICS`).
    Metrics {
        /// `(name, value)` pairs; histograms flatten to
        /// `.count` / `.mean_ns` rows exactly like `sysmetrics`.
        entries: Vec<(String, u64)>,
    },
    /// Recent trace events (`SHOW TRACE`).
    Trace {
        /// The events, oldest first.
        events: Vec<WireTraceEvent>,
    },
    /// The request failed.
    Err {
        /// Error classification.
        code: ErrorCode,
        /// Human-readable message.
        message: String,
    },
    /// Acknowledges [`Request::Goodbye`].
    Bye,
}

// ---------------------------------------------------------------------
// Primitive codec helpers.

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked reader over a frame payload.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let s = self
            .buf
            .get(self.pos..self.pos + n)
            .ok_or_else(|| format!("truncated message (wanted {n} bytes at {})", self.pos))?;
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, String> {
        let n = self.u32()? as usize;
        if n > MAX_FRAME {
            return Err(format!("string length {n} exceeds frame limit"));
        }
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| "invalid utf-8".into())
    }

    fn value(&mut self) -> Result<Value, String> {
        let mut pos = self.pos;
        let v = Value::decode(self.buf, &mut pos).map_err(|e| e.to_string())?;
        self.pos = pos;
        Ok(v)
    }

    fn finish(self) -> Result<(), String> {
        if self.pos != self.buf.len() {
            return Err(format!(
                "{} trailing bytes after message",
                self.buf.len() - self.pos
            ));
        }
        Ok(())
    }
}

fn put_batch(out: &mut Vec<u8>, b: &Batch) {
    out.push(b.done as u8);
    out.extend_from_slice(&(b.rows.len() as u32).to_le_bytes());
    for row in &b.rows {
        Value::encode_row_image(row, out);
    }
    out.extend_from_slice(&(b.rendered.len() as u32).to_le_bytes());
    for row in &b.rendered {
        encode_text_image(row, out);
    }
}

/// [`put_batch`] of rows `range` of a result parked as images: the
/// same bytes, copied rather than encoded. The batch is the last when
/// it reaches the result's end.
fn put_encoded_batch(out: &mut Vec<u8>, rows: &EncodedRows, range: Range<usize>) {
    let count = (range.len() as u32).to_le_bytes();
    out.push((range.end == rows.len()) as u8);
    out.extend_from_slice(&count);
    out.extend_from_slice(rows.row_images(range.clone()));
    match rows.text_images(range) {
        Some(text) => {
            out.extend_from_slice(&count);
            out.extend_from_slice(text);
        }
        None => out.extend_from_slice(&0u32.to_le_bytes()),
    }
}

/// Bytes a batch of rows `range` of `rows` takes, give or take its
/// fixed header.
fn encoded_len(rows: &EncodedRows, range: Range<usize>) -> usize {
    let text = rows.text_images(range.clone()).map_or(0, <[u8]>::len);
    rows.row_images(range).len() + text
}

/// Appends to `out` the payload of a [`Response::ResultHead`] for a
/// result parked as images ([`EncodedRows`], the server's cursor) whose
/// first batch is rows `0..head`: byte for byte what
/// [`Response::encode`] makes of the same head with the rows decoded
/// into a [`Batch`], built by copying the images. `total_rows` is every
/// row `rows` holds.
pub fn encode_result_head(
    out: &mut Vec<u8>,
    columns: &[String],
    message: &str,
    cursor: u64,
    rows: &EncodedRows,
    head: usize,
) {
    let names: usize = columns.iter().map(|c| 4 + c.len()).sum();
    out.reserve(40 + names + message.len() + encoded_len(rows, 0..head));
    put_head(out, columns, message, cursor, rows.len() as u64);
    put_encoded_batch(out, rows, 0..head);
}

/// Appends to `out` the payload of a [`Response::Rows`] carrying rows
/// `range` of a result parked as images, as [`encode_result_head`]
/// builds a head.
pub fn encode_rows(out: &mut Vec<u8>, rows: &EncodedRows, range: Range<usize>) {
    out.reserve(16 + encoded_len(rows, range.clone()));
    out.push(RESP_ROWS);
    put_encoded_batch(out, rows, range);
}

/// A [`Response::ResultHead`] up to its batch.
fn put_head(out: &mut Vec<u8>, columns: &[String], message: &str, cursor: u64, total_rows: u64) {
    out.push(RESP_RESULT_HEAD);
    out.extend_from_slice(&(columns.len() as u32).to_le_bytes());
    for c in columns {
        put_str(out, c);
    }
    put_str(out, message);
    out.extend_from_slice(&cursor.to_le_bytes());
    out.extend_from_slice(&total_rows.to_le_bytes());
}

fn get_batch(d: &mut Dec) -> Result<Batch, String> {
    let done = d.u8()? != 0;
    let nrows = d.u32()? as usize;
    let mut rows = Vec::with_capacity(nrows.min(4096));
    for _ in 0..nrows {
        let ncols = d.u32()? as usize;
        let mut row = Vec::with_capacity(ncols.min(256));
        for _ in 0..ncols {
            row.push(d.value()?);
        }
        rows.push(row);
    }
    let nrend = d.u32()? as usize;
    if nrend != 0 && nrend != nrows {
        return Err(format!("{nrend} text rows for {nrows} value rows"));
    }
    let mut rendered = Vec::with_capacity(nrend.min(4096));
    for values in rows.iter().take(nrend) {
        let ncols = d.u32()? as usize;
        if ncols != values.len() {
            return Err(format!("{ncols} text cells for {} values", values.len()));
        }
        let mut row = Vec::with_capacity(ncols.min(256));
        for _ in 0..ncols {
            row.push(d.str()?);
        }
        rendered.push(row);
    }
    Ok(Batch {
        rows,
        rendered,
        done,
    })
}

// ---------------------------------------------------------------------
// Message codec.

const REQ_HELLO: u8 = 1;
const REQ_QUERY: u8 = 2;
const REQ_PREPARE: u8 = 3;
const REQ_EXECUTE: u8 = 4;
const REQ_DEALLOCATE: u8 = 5;
const REQ_FETCH: u8 = 6;
const REQ_METRICS: u8 = 7;
const REQ_TRACE: u8 = 8;
const REQ_GOODBYE: u8 = 9;

const RESP_WELCOME: u8 = 1;
const RESP_OK: u8 = 2;
const RESP_RESULT_HEAD: u8 = 3;
const RESP_ROWS: u8 = 4;
const RESP_METRICS: u8 = 5;
const RESP_TRACE: u8 = 6;
const RESP_ERR: u8 = 7;
const RESP_BYE: u8 = 8;

impl Request {
    /// Serialises into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            Request::Hello { version } => {
                out.push(REQ_HELLO);
                out.extend_from_slice(&version.to_le_bytes());
            }
            Request::Query { sql } => {
                out.push(REQ_QUERY);
                put_str(&mut out, sql);
            }
            Request::Prepare { name, sql } => {
                out.push(REQ_PREPARE);
                put_str(&mut out, name);
                put_str(&mut out, sql);
            }
            Request::Execute { name, args } => {
                out.push(REQ_EXECUTE);
                put_str(&mut out, name);
                out.extend_from_slice(&(args.len() as u32).to_le_bytes());
                for v in args {
                    v.encode(&mut out);
                }
            }
            Request::Deallocate { name } => {
                out.push(REQ_DEALLOCATE);
                put_str(&mut out, name);
            }
            Request::Fetch { cursor, max_rows } => {
                out.push(REQ_FETCH);
                out.extend_from_slice(&cursor.to_le_bytes());
                out.extend_from_slice(&max_rows.to_le_bytes());
            }
            Request::Metrics => out.push(REQ_METRICS),
            Request::Trace { max } => {
                out.push(REQ_TRACE);
                out.extend_from_slice(&max.to_le_bytes());
            }
            Request::Goodbye => out.push(REQ_GOODBYE),
        }
        out
    }

    /// Deserialises a frame payload; a malformed payload is a
    /// protocol violation described by the returned string.
    pub fn decode(buf: &[u8]) -> Result<Request, String> {
        let mut d = Dec::new(buf);
        let req = match d.u8()? {
            REQ_HELLO => Request::Hello { version: d.u32()? },
            REQ_QUERY => Request::Query { sql: d.str()? },
            REQ_PREPARE => Request::Prepare {
                name: d.str()?,
                sql: d.str()?,
            },
            REQ_EXECUTE => {
                let name = d.str()?;
                let n = d.u32()? as usize;
                if n > 4096 {
                    return Err(format!("{n} execute parameters exceed the limit"));
                }
                let mut args = Vec::with_capacity(n);
                for _ in 0..n {
                    args.push(d.value()?);
                }
                Request::Execute { name, args }
            }
            REQ_DEALLOCATE => Request::Deallocate { name: d.str()? },
            REQ_FETCH => Request::Fetch {
                cursor: d.u64()?,
                max_rows: d.u32()?,
            },
            REQ_METRICS => Request::Metrics,
            REQ_TRACE => Request::Trace { max: d.u32()? },
            REQ_GOODBYE => Request::Goodbye,
            other => return Err(format!("unknown request tag {other}")),
        };
        d.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Serialises into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            Response::Welcome { version, session } => {
                out.push(RESP_WELCOME);
                out.extend_from_slice(&version.to_le_bytes());
                out.extend_from_slice(&session.to_le_bytes());
            }
            Response::Ok { message } => {
                out.push(RESP_OK);
                put_str(&mut out, message);
            }
            Response::ResultHead {
                columns,
                message,
                cursor,
                total_rows,
                batch,
            } => {
                put_head(&mut out, columns, message, *cursor, *total_rows);
                put_batch(&mut out, batch);
            }
            Response::Rows(batch) => {
                out.push(RESP_ROWS);
                put_batch(&mut out, batch);
            }
            Response::Metrics { entries } => {
                out.push(RESP_METRICS);
                out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                for (name, value) in entries {
                    put_str(&mut out, name);
                    out.extend_from_slice(&value.to_le_bytes());
                }
            }
            Response::Trace { events } => {
                out.push(RESP_TRACE);
                out.extend_from_slice(&(events.len() as u32).to_le_bytes());
                for e in events {
                    put_str(&mut out, &e.class);
                    out.push(e.level);
                    out.extend_from_slice(&e.session.to_le_bytes());
                    out.extend_from_slice(&e.span.to_le_bytes());
                    put_str(&mut out, &e.message);
                }
            }
            Response::Err { code, message } => {
                out.push(RESP_ERR);
                out.push(*code as u8);
                put_str(&mut out, message);
            }
            Response::Bye => out.push(RESP_BYE),
        }
        out
    }

    /// Deserialises a frame payload.
    pub fn decode(buf: &[u8]) -> Result<Response, String> {
        let mut d = Dec::new(buf);
        let resp = match d.u8()? {
            RESP_WELCOME => Response::Welcome {
                version: d.u32()?,
                session: d.u64()?,
            },
            RESP_OK => Response::Ok { message: d.str()? },
            RESP_RESULT_HEAD => {
                let ncols = d.u32()? as usize;
                if ncols > 4096 {
                    return Err(format!("{ncols} columns exceed the limit"));
                }
                let mut columns = Vec::with_capacity(ncols);
                for _ in 0..ncols {
                    columns.push(d.str()?);
                }
                Response::ResultHead {
                    columns,
                    message: d.str()?,
                    cursor: d.u64()?,
                    total_rows: d.u64()?,
                    batch: get_batch(&mut d)?,
                }
            }
            RESP_ROWS => Response::Rows(get_batch(&mut d)?),
            RESP_METRICS => {
                let n = d.u32()? as usize;
                let mut entries = Vec::with_capacity(n.min(65_536));
                for _ in 0..n {
                    let name = d.str()?;
                    entries.push((name, d.u64()?));
                }
                Response::Metrics { entries }
            }
            RESP_TRACE => {
                let n = d.u32()? as usize;
                let mut events = Vec::with_capacity(n.min(65_536));
                for _ in 0..n {
                    events.push(WireTraceEvent {
                        class: d.str()?,
                        level: d.u8()?,
                        session: d.u64()?,
                        span: d.u64()?,
                        message: d.str()?,
                    });
                }
                Response::Trace { events }
            }
            RESP_ERR => {
                let raw = d.u8()?;
                let code =
                    ErrorCode::from_u8(raw).ok_or_else(|| format!("unknown error code {raw}"))?;
                Response::Err {
                    code,
                    message: d.str()?,
                }
            }
            RESP_BYE => Response::Bye,
            other => return Err(format!("unknown response tag {other}")),
        };
        d.finish()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------
// Framing.

/// How reading a frame can fail, beyond plain I/O.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The peer closed the stream (cleanly, between frames).
    Eof,
    /// A zero-length frame: always a protocol violation.
    Empty,
    /// A declared payload length beyond [`MAX_FRAME`].
    Oversized(usize),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "io error: {e}"),
            FrameError::Eof => write!(f, "connection closed"),
            FrameError::Empty => write!(f, "zero-length frame"),
            FrameError::Oversized(n) => write!(f, "frame of {n} bytes exceeds {MAX_FRAME}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes one frame (length prefix + payload) and flushes. Prefix and
/// payload are joined first and leave in one `write`: written apart, a
/// payload larger than a `BufWriter`'s buffer would follow its prefix
/// in a second system call, and a `TCP_NODELAY` socket would send the
/// 4 bytes as a segment of their own.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    start_frame(&mut frame);
    frame.extend_from_slice(payload);
    send_frame(w, &mut frame)
}

/// Starts a frame in `frame`, emptied first: room for the length
/// prefix, after which the caller appends the payload. A writer that
/// keeps one such buffer builds every frame in place and sends it with
/// [`send_frame`], joining nothing.
pub fn start_frame(frame: &mut Vec<u8>) {
    frame.clear();
    frame.extend_from_slice(&[0; 4]);
}

/// Sends a frame begun with [`start_frame`]: fills in its length
/// prefix, writes it in one `write` (see [`write_frame`]) and flushes.
pub fn send_frame(w: &mut impl Write, frame: &mut [u8]) -> io::Result<()> {
    let payload = frame.len() - 4;
    debug_assert!(payload > 0 && payload <= MAX_FRAME);
    frame[..4].copy_from_slice(&(payload as u32).to_le_bytes());
    w.write_all(frame)?;
    w.flush()
}

/// Reads one frame, blocking until it is complete. The client side
/// uses this directly; the server uses [`FrameReader`], which
/// tolerates read timeouts so it can poll a shutdown flag.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut len = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len[got..]) {
            Ok(0) if got == 0 => return Err(FrameError::Eof),
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let n = u32::from_le_bytes(len) as usize;
    if n == 0 {
        return Err(FrameError::Empty);
    }
    if n > MAX_FRAME {
        return Err(FrameError::Oversized(n));
    }
    let mut buf = vec![0u8; n];
    r.read_exact(&mut buf).map_err(FrameError::Io)?;
    Ok(buf)
}

/// An incremental frame parser that survives partial reads: bytes
/// accumulate across [`FrameReader::poll`] calls, so a frame split
/// over many TCP segments (or interleaved with read timeouts used to
/// poll a shutdown flag) is reassembled rather than misparsed. A frame
/// is handed out in place, as a slice of the reader's buffer; the bytes
/// go when the next read needs the room.
#[derive(Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Bytes at the front of `buf` already handed out as frames.
    taken: usize,
}

impl FrameReader {
    /// Creates an empty reader.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Where the payload of the next complete buffered frame lies in
    /// `buf`, if one is there.
    fn next(&self) -> Result<Option<Range<usize>>, FrameError> {
        let pending = &self.buf[self.taken..];
        let Some(prefix) = pending.get(..4) else {
            return Ok(None);
        };
        let n = u32::from_le_bytes(prefix.try_into().unwrap()) as usize;
        // Validate the declared length as soon as it is visible, long
        // before the payload arrives.
        if n == 0 {
            return Err(FrameError::Empty);
        }
        if n > MAX_FRAME {
            return Err(FrameError::Oversized(n));
        }
        let start = self.taken + 4;
        Ok((pending.len() >= 4 + n).then_some(start..start + n))
    }

    /// Feeds from `r` once and returns a complete frame when
    /// available. `Ok(None)` means "no full frame yet" — either the
    /// read timed out (the server's shutdown-poll tick) or only part
    /// of a frame has arrived. `Err(Eof)` is a clean close between
    /// frames; a close mid-frame reports as an I/O error.
    pub fn poll(&mut self, r: &mut impl Read) -> Result<Option<&[u8]>, FrameError> {
        if self.next()?.is_none() {
            self.buf.drain(..self.taken);
            self.taken = 0;
            let mut chunk = [0u8; 64 * 1024];
            match r.read(&mut chunk) {
                Ok(0) if self.buf.is_empty() => return Err(FrameError::Eof),
                Ok(0) => {
                    return Err(FrameError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-frame",
                    )))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
        Ok(self.next()?.map(|payload| {
            self.taken = payload.end;
            &self.buf[payload]
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grt_ids::Value as V;

    #[test]
    fn request_roundtrip() {
        let reqs = [
            Request::Hello {
                version: PROTOCOL_VERSION,
            },
            Request::Query {
                sql: "SELECT 1".into(),
            },
            Request::Prepare {
                name: "p".into(),
                sql: "INSERT INTO t VALUES (?, ?)".into(),
            },
            Request::Execute {
                name: "p".into(),
                args: vec![V::Int(7), V::Text("x'y".into()), V::Null],
            },
            Request::Deallocate { name: "p".into() },
            Request::Fetch {
                cursor: 42,
                max_rows: 100,
            },
            Request::Metrics,
            Request::Trace { max: 64 },
            Request::Goodbye,
        ];
        for req in reqs {
            let bytes = req.encode();
            assert_eq!(Request::decode(&bytes).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn response_roundtrip() {
        let resps = [
            Response::Welcome {
                version: 1,
                session: 9,
            },
            Response::Ok {
                message: "committed".into(),
            },
            Response::ResultHead {
                columns: vec!["id".into(), "s".into()],
                message: String::new(),
                cursor: 3,
                total_rows: 2,
                batch: Batch {
                    rows: vec![vec![V::Int(1), V::Text("one".into())]],
                    rendered: vec![vec!["1".into(), "one".into()]],
                    done: false,
                },
            },
            Response::Rows(Batch {
                rows: vec![],
                rendered: vec![],
                done: true,
            }),
            Response::Metrics {
                entries: vec![("ids.statements".into(), 12)],
            },
            Response::Trace {
                events: vec![WireTraceEvent {
                    class: "GRT".into(),
                    level: 2,
                    session: 1,
                    span: 5,
                    message: "grt_search".into(),
                }],
            },
            Response::Err {
                code: ErrorCode::Deadlock,
                message: "victim".into(),
            },
            Response::Bye,
        ];
        for resp in resps {
            let bytes = resp.encode();
            assert_eq!(Response::decode(&bytes).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn malformed_payloads_error_not_panic() {
        // Truncations of a valid message at every byte boundary.
        let full = Request::Execute {
            name: "p".into(),
            args: vec![V::Int(7), V::Text("hello".into())],
        }
        .encode();
        for cut in 0..full.len() {
            assert!(Request::decode(&full[..cut]).is_err(), "cut {cut}");
        }
        // Unknown tags and trailing garbage.
        assert!(Request::decode(&[200]).is_err());
        assert!(Request::decode(&[]).is_err());
        let mut trailing = Request::Metrics.encode();
        trailing.push(0);
        assert!(Request::decode(&trailing).is_err());
        // A batch's text is absent or one row per value row, cell for
        // cell: any other shape is refused.
        let rows = vec![vec![V::Int(1)], vec![V::Int(2)]];
        let text = |rendered: Vec<Vec<String>>| {
            Response::Rows(Batch {
                rows: rows.clone(),
                rendered,
                done: true,
            })
            .encode()
        };
        for rendered in [
            vec![vec!["1".to_string()]],
            vec![vec!["1".into()], vec!["2".into()], vec!["3".into()]],
            vec![vec!["1".into()], vec!["2".into(), "x".into()]],
        ] {
            let bad = text(rendered.clone());
            assert!(Response::decode(&bad).is_err(), "{rendered:?}");
        }
        for rendered in [vec![], vec![vec!["1".into()], vec!["2".into()]]] {
            assert!(Response::decode(&text(rendered)).is_ok());
        }
    }

    /// The bytes of a result of `n` one-integer rows, cut the way the
    /// server and the remote driver cut it (a 256-row head, then
    /// 1 024-row fetches), counting every response frame and fetch
    /// request with its length prefix.
    fn result_bytes(n: i64, text: bool) -> usize {
        let (head_rows, fetch_rows) = (256, 1024);
        let batch = |ids: std::ops::Range<i64>| Batch {
            rows: ids.clone().map(|id| vec![V::Int(id)]).collect(),
            rendered: if text {
                ids.map(|id| vec![id.to_string()]).collect()
            } else {
                Vec::new()
            },
            done: false,
        };
        let frame = |payload: Vec<u8>| 4 + payload.len();
        let mut head = batch(0..n.min(head_rows));
        head.done = n <= head_rows;
        let mut bytes = frame(
            Response::ResultHead {
                columns: vec!["id".into()],
                message: String::new(),
                cursor: u64::from(!head.done),
                total_rows: n as u64,
                batch: head,
            }
            .encode(),
        );
        let mut sent = n.min(head_rows);
        while sent < n {
            let fetch = Request::Fetch {
                cursor: 1,
                max_rows: fetch_rows as u32,
            };
            let mut more = batch(sent..n.min(sent + fetch_rows));
            sent += more.rows.len() as i64;
            more.done = sent == n;
            bytes += frame(fetch.encode()) + frame(Response::Rows(more).encode());
        }
        bytes
    }

    #[test]
    fn a_result_ships_each_value_once() {
        // 4 550 rows is what one `SELECT id` window of the warm-scan
        // workload returns. A row is its cell count and one encoded
        // integer (4 + 9 bytes); the rest is per-frame headers.
        for n in [0, 1, 256, 257, 4_550] {
            let bytes = result_bytes(n, false);
            assert!(
                bytes <= 13 * n as usize + 256,
                "{n} rows take {bytes} bytes"
            );
        }
        // A batch that carries text (a result with an opaque column)
        // pays a cell count, a length and the digits: at least 9 bytes
        // more a row.
        let (with, without) = (result_bytes(4_550, true), result_bytes(4_550, false));
        assert!(with - without >= 9 * 4_550, "{with} vs {without} bytes");
    }

    /// A result of `n` rows with a cell of every kind, as the server
    /// parks it (half the rows handed over as values, half copied off a
    /// stored row, as the two plan shapes do) and as a client decodes
    /// it: values, and the text of its opaque column when `text`.
    fn parked(n: i64, text: bool) -> (EncodedRows, Vec<Vec<V>>, Vec<Vec<String>>) {
        use grt_ids::RowSink;
        let (mut parked, mut rows, mut rendered) = (EncodedRows::default(), vec![], vec![]);
        for i in 0..n {
            let row = vec![
                V::Int(i - 3),
                V::Text(format!("Bliujūtė {i} ✓")),
                V::Null,
                V::Date(grt_temporal::Day(9_000 + i as i32)),
                V::Bool(i % 2 == 0),
                V::Opaque {
                    type_name: "GRT_TimeExtent_t".into(),
                    bytes: vec![i as u8; 16],
                },
            ];
            if i % 2 == 0 {
                parked.values(row.clone()).unwrap();
            } else {
                // Stored with a column the output does not name.
                let mut stored = vec![V::Text("unread".into())];
                stored.extend(row.iter().cloned());
                let stored = V::encode_row(&stored);
                parked.stored(&stored, &[1, 2, 3, 4, 5, 6]).unwrap();
            }
            if text {
                let mut cells: Vec<String> = row[..5].iter().map(V::to_string).collect();
                cells.push(format!("({i}; {i})"));
                parked.text(cells.clone());
                rendered.push(cells);
            }
            rows.push(row);
        }
        (parked, rows, rendered)
    }

    #[test]
    fn frames_cut_from_row_images_equal_the_encoded_responses() {
        let columns: Vec<String> = ["i", "t", "n", "d", "b", "x"].map(String::from).into();
        // Cut as the server cuts: a `fetch_rows` 7 head, then fetches.
        let head_rows = 7;
        for (n, text) in [
            (0, false),
            (0, true),
            (7, true),
            (8, false),
            (25, true),
            (2_100, false),
        ] {
            let (parked, rows, rendered) = parked(n, text);
            let batch = |range: Range<usize>| Batch {
                rows: rows[range.clone()].to_vec(),
                rendered: if text {
                    rendered[range.clone()].to_vec()
                } else {
                    vec![]
                },
                done: range.end == rows.len(),
            };
            let head = head_rows.min(rows.len());
            let cursor = u64::from(head < rows.len());
            let mut frame = Vec::new();
            encode_result_head(&mut frame, &columns, "", cursor, &parked, head);
            let want = Response::ResultHead {
                columns: columns.clone(),
                message: String::new(),
                cursor,
                total_rows: n as u64,
                batch: batch(0..head),
            };
            assert_eq!(frame, want.encode(), "head of {n} rows");
            for max_rows in [3, 1_024] {
                let mut sent = head;
                while sent < rows.len() {
                    let end = rows.len().min(sent + max_rows);
                    let mut frame = Vec::new();
                    encode_rows(&mut frame, &parked, sent..end);
                    let want = Response::Rows(batch(sent..end)).encode();
                    assert_eq!(frame, want, "rows {sent}..{end} of {n}");
                    sent = end;
                }
            }
        }
    }

    #[test]
    fn a_frame_leaves_in_one_write() {
        /// A writer that keeps each `write` call's bytes.
        #[derive(Default)]
        struct Calls(Vec<Vec<u8>>);
        impl Write for Calls {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        // About what a 1 024-row `SELECT id` batch weighs: more than a
        // default `BufWriter` holds.
        let payload: Vec<u8> = (0..13_000u32).map(|i| i as u8).collect();
        let mut want = 13_000u32.to_le_bytes().to_vec();
        want.extend_from_slice(&payload);
        let mut direct = Calls::default();
        write_frame(&mut direct, &payload).unwrap();
        assert_eq!(direct.0, [want.clone()]);
        let mut buffered = io::BufWriter::new(Calls::default());
        write_frame(&mut buffered, &payload).unwrap();
        assert_eq!(buffered.get_ref().0, [want]);
    }

    #[test]
    fn frame_reader_reassembles_partial_reads() {
        let payload = Request::Query {
            sql: "SELECT 1".into(),
        }
        .encode();
        let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&payload);
        // Deliver the frame one byte at a time.
        let mut fr = FrameReader::new();
        let mut out = None;
        for b in &wire {
            let mut one = &[*b][..];
            if let Some(frame) = fr.poll(&mut one).unwrap() {
                out = Some(frame.to_vec());
            }
        }
        assert_eq!(out.as_deref(), Some(&payload[..]));
        // Three frames in one read come out one a poll, and the next
        // read, cut mid-frame, starts after them.
        let three = wire.repeat(3);
        let mut reads = [&three[..], &wire[..5], &wire[5..]];
        let mut next = |i: usize| fr.poll(&mut reads[i]).unwrap().map(<[u8]>::to_vec);
        for _ in 0..3 {
            assert_eq!(next(0).as_deref(), Some(&payload[..]));
        }
        assert_eq!(next(1), None);
        assert_eq!(next(2).as_deref(), Some(&payload[..]));
    }

    #[test]
    fn frame_reader_rejects_bad_lengths_eagerly() {
        let mut fr = FrameReader::new();
        let mut zeros = &[0u8, 0, 0, 0][..];
        assert!(matches!(fr.poll(&mut zeros), Err(FrameError::Empty)));
        let mut fr = FrameReader::new();
        let huge = (MAX_FRAME as u32 + 1).to_le_bytes();
        let mut huge = &huge[..];
        assert!(matches!(fr.poll(&mut huge), Err(FrameError::Oversized(_))));
    }
}
