//! The wire server: many TCP connections multiplexed onto engine
//! sessions.
//!
//! The paper's DataBlade runs inside a database *server* — clients
//! never link the engine, they speak a protocol to a long-lived
//! process that owns the sbspace. This crate is that layer for the
//! reproduction: a [`Server`] binds a listener, accepts connections
//! speaking the [`grt_client::proto`] frame protocol, and gives each
//! one an engine session for its lifetime.
//!
//! Three properties the tests (and the `server-e2e` CI job) hold it
//! to:
//!
//! * **Backpressure, not collapse.** Live sessions are bounded by a
//!   [`SessionPool`]; a connection beyond the cap gets a clean
//!   `Backpressure` error frame and a close — never a hang, never a
//!   panic.
//! * **Protocol violations fail the connection, not the server.** A
//!   zero-length or oversized frame, a malformed message, a request
//!   before the handshake: the worker answers with a `Protocol`
//!   error where the wire still permits it, closes, and the engine
//!   session is reaped (open transaction aborted, prepared handles
//!   released) by [`grt_ids::Connection::close`].
//! * **Graceful shutdown.** [`ServerHandle::shutdown`] stops the
//!   accept loop, lets in-flight statements finish, reaps every
//!   session, and joins every worker before returning — afterwards
//!   `ids.sessions_opened == ids.sessions_closed` over the server's
//!   lifetime.

use grt_client::proto::{
    self, encode_error, write_frame, ErrorCode, FrameError, FrameReader, Request, Response,
    PROTOCOL_VERSION,
};
use grt_ids::{Connection, Database, EncodedRows, QueryResult};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Ceiling on concurrently live sessions; connections beyond it
    /// are answered with a `Backpressure` error and closed.
    pub max_sessions: usize,
    /// Rows shipped in a result head; the rest go through `Fetch`.
    pub fetch_rows: usize,
    /// Read-timeout tick workers use to poll the shutdown flag while
    /// blocked waiting for the next request.
    pub poll_interval: Duration,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            addr: "127.0.0.1:0".to_string(),
            max_sessions: 64,
            fetch_rows: 256,
            poll_interval: Duration::from_millis(50),
        }
    }
}

/// Bounded count of live engine sessions — the overload valve. A
/// [`Permit`] is acquired per connection at handshake and released
/// when the worker reaps the session.
pub struct SessionPool {
    live: AtomicUsize,
    cap: usize,
}

impl SessionPool {
    /// A pool admitting at most `cap` live sessions.
    pub fn new(cap: usize) -> SessionPool {
        SessionPool {
            live: AtomicUsize::new(0),
            cap,
        }
    }

    /// Tries to admit one session; `None` means the pool is full and
    /// the caller must shed load.
    pub fn try_acquire(self: &Arc<Self>) -> Option<Permit> {
        let mut n = self.live.load(Ordering::SeqCst);
        loop {
            if n >= self.cap {
                return None;
            }
            match self
                .live
                .compare_exchange(n, n + 1, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return Some(Permit(Arc::clone(self))),
                Err(cur) => n = cur,
            }
        }
    }

    /// Currently live sessions.
    pub fn live(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }

    /// The admission ceiling.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

/// One admitted session slot; returned to the pool on drop.
pub struct Permit(Arc<SessionPool>);

impl Drop for Permit {
    fn drop(&mut self) {
        self.0.live.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The served engine: the database handle plus the session pool that
/// gates admission — the state every connection worker shares.
#[derive(Clone)]
pub struct Engine {
    /// The engine proper.
    pub db: Database,
    /// Admission control for live sessions.
    pub pool: Arc<SessionPool>,
}

/// The wire server. [`Server::start`] consumes it and returns the
/// running [`ServerHandle`].
pub struct Server {
    engine: Engine,
    opts: ServerOptions,
}

/// A running server: its bound address plus the shutdown switch.
pub struct ServerHandle {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    engine: Engine,
}

impl Server {
    /// A server for `db` with the given options.
    pub fn new(db: Database, opts: ServerOptions) -> Server {
        let pool = Arc::new(SessionPool::new(opts.max_sessions));
        Server {
            engine: Engine { db, pool },
            opts,
        }
    }

    /// Binds the listener and starts accepting. Returns once the
    /// socket is listening; connections are served on background
    /// threads until [`ServerHandle::shutdown`].
    pub fn start(self) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&self.opts.addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let workers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept = {
            let engine = self.engine.clone();
            let opts = self.opts.clone();
            let shutdown = Arc::clone(&shutdown);
            let workers = Arc::clone(&workers);
            std::thread::Builder::new()
                .name("grt-accept".to_string())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        let stream = match stream {
                            Ok(s) => s,
                            // A failed accept (e.g. transient resource
                            // exhaustion) must not kill the server.
                            Err(_) => continue,
                        };
                        let worker = Worker {
                            engine: engine.clone(),
                            opts: opts.clone(),
                            shutdown: Arc::clone(&shutdown),
                        };
                        let handle = std::thread::Builder::new()
                            .name("grt-conn".to_string())
                            .spawn(move || worker.serve(stream));
                        let mut workers = workers.lock();
                        // Reap finished workers so the handle list
                        // stays bounded by live connections.
                        workers.retain(|h| !h.is_finished());
                        if let Ok(h) = handle {
                            workers.push(h);
                        }
                    }
                })?
        };

        Ok(ServerHandle {
            local_addr,
            shutdown,
            accept: Some(accept),
            workers,
            engine: self.engine,
        })
    }
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The served engine (database + pool), e.g. for in-process
    /// metric assertions in tests.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Graceful shutdown: stop accepting, let in-flight statements
    /// finish, reap every session, join every thread. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection; the
        // flag is already set, so it exits before serving it.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        loop {
            let drained: Vec<_> = std::mem::take(&mut *self.workers.lock());
            if drained.is_empty() {
                break;
            }
            for h in drained {
                let _ = h.join();
            }
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A server-side result cursor: the rest of a result the engine wrote
/// as row images (and text images, when an output column is opaque —
/// see [`QueryResult::rendered`]), parked until the client fetches it.
/// Every batch is a slice of `rows` cut at row boundaries.
struct Cursor {
    rows: EncodedRows,
    /// Rows already shipped.
    sent: usize,
}

/// Per-connection state machine.
struct Worker {
    engine: Engine,
    opts: ServerOptions,
    shutdown: Arc<AtomicBool>,
}

/// Why a connection ended; drives the final frame (if any).
enum Close {
    /// Client said goodbye or hung up between frames.
    Clean,
    /// The peer broke the protocol; send the error then close.
    Protocol(String),
    /// Transport died; nothing more can be sent.
    Io,
    /// Server is shutting down; tell the peer if a request is
    /// mid-flight, then close.
    ShuttingDown,
    /// Client said goodbye; acknowledge, then close.
    Goodbye,
}

impl Worker {
    fn serve(self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(self.opts.poll_interval));
        let writer = match stream.try_clone() {
            Ok(w) => BufWriter::new(w),
            Err(_) => return,
        };
        let mut sess = Session {
            worker: &self,
            conn: None,
            _permit: None,
            cursors: HashMap::new(),
            next_cursor: 1,
            rows: EncodedRows::default(),
            frame: Vec::new(),
            writer,
        };
        let close = sess.run(stream);
        match close {
            Close::Clean | Close::Io => {}
            Close::Goodbye => {
                let _ = sess.send(&Response::Bye);
            }
            Close::Protocol(msg) => {
                let _ = sess.send(&Response::Err {
                    code: ErrorCode::Protocol,
                    message: msg,
                });
            }
            Close::ShuttingDown => {
                let _ = sess.send(&Response::Err {
                    code: ErrorCode::ShuttingDown,
                    message: "server shutting down".to_string(),
                });
            }
        }
        // Reap: abort any open transaction, release prepared handles,
        // count the session closed. Cursors die with the map.
        if let Some(conn) = sess.conn.take() {
            conn.close();
        }
    }
}

/// The live state of one served connection.
struct Session<'a> {
    worker: &'a Worker,
    conn: Option<Connection>,
    _permit: Option<Permit>,
    cursors: HashMap<u64, Cursor>,
    next_cursor: u64,
    /// Where the engine writes the rows of the statement in flight;
    /// cleared and refilled statement after statement, handed to a
    /// cursor when the result outgrows its head, and taken back when
    /// that cursor is drained.
    rows: EncodedRows,
    /// The response frame in the making (see [`proto::start_frame`]),
    /// reused request after request.
    frame: Vec<u8>,
    writer: BufWriter<TcpStream>,
}

/// The most a session keeps allocated between requests for its row and
/// frame buffers, each: a larger one goes back to the allocator once
/// used, so one huge result does not stay resident for the session's
/// life.
const KEEP_BYTES: usize = 1 << 20;

impl Session<'_> {
    fn send(&mut self, resp: &Response) -> io::Result<()> {
        write_frame(&mut self.writer, &resp.encode())
    }

    fn run(&mut self, mut stream: TcpStream) -> Close {
        let mut frames = FrameReader::new();
        loop {
            if self.worker.shutdown.load(Ordering::SeqCst) {
                return Close::ShuttingDown;
            }
            let frame = match frames.poll(&mut stream) {
                Ok(Some(frame)) => frame,
                Ok(None) => continue,
                Err(FrameError::Eof) => return Close::Clean,
                Err(FrameError::Io(_)) => return Close::Io,
                Err(e @ (FrameError::Empty | FrameError::Oversized(_))) => {
                    return Close::Protocol(e.to_string())
                }
            };
            let req = match Request::decode(frame) {
                Ok(req) => req,
                Err(msg) => return Close::Protocol(msg),
            };
            proto::start_frame(&mut self.frame);
            if let Err(close) = self.handle(req) {
                return close;
            }
            if proto::send_frame(&mut self.writer, &mut self.frame).is_err() {
                return Close::Io;
            }
            if self.frame.capacity() > KEEP_BYTES {
                self.frame = Vec::new();
            }
        }
    }

    /// Handles one request, appending the response's payload to the
    /// frame begun in `self.frame`. `Err` closes the connection; engine
    /// errors are ordinary responses and keep it open.
    fn handle(&mut self, req: Request) -> Result<(), Close> {
        // The handshake must come first, and only once.
        if let Request::Hello { version } = req {
            if self.conn.is_some() {
                return Err(Close::Protocol("duplicate handshake".to_string()));
            }
            if version != PROTOCOL_VERSION {
                let _ = self.send(&Response::Err {
                    code: ErrorCode::Protocol,
                    message: format!(
                        "protocol version {version} unsupported (server speaks {PROTOCOL_VERSION})"
                    ),
                });
                return Err(Close::Clean);
            }
            let Some(permit) = self.worker.engine.pool.try_acquire() else {
                let _ = self.send(&Response::Err {
                    code: ErrorCode::Backpressure,
                    message: format!(
                        "session pool full ({} live)",
                        self.worker.engine.pool.capacity()
                    ),
                });
                return Err(Close::Clean);
            };
            let conn = self.worker.engine.db.connect();
            let session = conn.session().id();
            self.conn = Some(conn);
            self._permit = Some(permit);
            self.put(&Response::Welcome {
                version: PROTOCOL_VERSION,
                session,
            });
            return Ok(());
        }
        let Some(conn) = self.conn.as_ref() else {
            return Err(Close::Protocol(
                "first request must be the handshake".to_string(),
            ));
        };
        let response = match req {
            Request::Hello { .. } => unreachable!("handled above"),
            Request::Query { sql } => {
                let head = conn.exec_to(&sql, &mut self.rows);
                self.put_result(head);
                return Ok(());
            }
            Request::Execute { name, args } => {
                let head = conn.execute_values_to(&name, &args, &mut self.rows);
                self.put_result(head);
                return Ok(());
            }
            Request::Fetch { cursor, max_rows } => return self.fetch(cursor, max_rows),
            Request::Prepare { name, sql } => match conn.prepare(&name, &sql) {
                Ok(result) => Response::Ok {
                    message: result.message,
                },
                Err(e) => err_response(&e),
            },
            Request::Deallocate { name } => match conn.deallocate(&name) {
                Ok(result) => Response::Ok {
                    message: result.message,
                },
                Err(e) => err_response(&e),
            },
            Request::Metrics => Response::Metrics {
                entries: grt_client::flatten_metrics(&self.worker.engine.db),
            },
            Request::Trace { max } => {
                let session = conn.session().id();
                let mut events: Vec<_> = self
                    .worker
                    .engine
                    .db
                    .trace()
                    .events_for(session)
                    .into_iter()
                    .map(|e| grt_client::proto::WireTraceEvent {
                        class: e.class,
                        level: e.level,
                        session: e.session,
                        span: e.span,
                        message: e.message,
                    })
                    .collect();
                if events.len() > max as usize {
                    events.drain(..events.len() - max as usize);
                }
                Response::Trace { events }
            }
            Request::Goodbye => return Err(Close::Goodbye),
        };
        self.put(&response);
        Ok(())
    }

    /// Appends `response`'s payload to the frame.
    fn put(&mut self, response: &Response) {
        self.frame.extend_from_slice(&response.encode());
    }

    /// The next batch of an open cursor: up to `max_rows` rows sliced
    /// off its images.
    fn fetch(&mut self, cursor: u64, max_rows: u32) -> Result<(), Close> {
        let Some(cur) = self.cursors.get_mut(&cursor) else {
            return Err(Close::Protocol(format!("unknown cursor {cursor}")));
        };
        // A zero budget still makes progress — fetch must terminate
        // even against a careless client.
        let take = (max_rows as usize).max(1);
        let end = cur.rows.len().min(cur.sent.saturating_add(take));
        proto::encode_rows(&mut self.frame, &cur.rows, cur.sent..end);
        cur.sent = end;
        if end == cur.rows.len() {
            // Drained: its buffer serves the next statement.
            let rows = self.cursors.remove(&cursor).expect("found above").rows;
            if rows.capacity() <= KEEP_BYTES {
                self.rows = rows;
            }
        }
        Ok(())
    }

    /// The response to a statement whose rows the engine wrote into
    /// `self.rows`: its first `fetch_rows` rows ride the result head;
    /// the rest are parked, as they are, in a cursor for follow-up
    /// fetches.
    fn put_result(&mut self, head: grt_ids::Result<QueryResult>) {
        let QueryResult {
            columns, message, ..
        } = match head {
            Ok(head) => head,
            Err(e) => return self.put(&err_response(&e)),
        };
        if columns.is_empty() {
            return self.put(&Response::Ok { message });
        }
        let first = self.worker.opts.fetch_rows.min(self.rows.len());
        let cursor = if first == self.rows.len() {
            0
        } else {
            let id = self.next_cursor;
            self.next_cursor += 1;
            id
        };
        proto::encode_result_head(
            &mut self.frame,
            &columns,
            &message,
            cursor,
            &self.rows,
            first,
        );
        if cursor != 0 {
            let rows = std::mem::take(&mut self.rows);
            self.cursors.insert(cursor, Cursor { rows, sent: first });
        } else if self.rows.capacity() > KEEP_BYTES {
            self.rows = EncodedRows::default();
        }
    }
}

fn err_response(e: &grt_ids::IdsError) -> Response {
    let (code, message) = encode_error(e);
    Response::Err { code, message }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_admits_to_cap_and_releases() {
        let pool = Arc::new(SessionPool::new(2));
        let a = pool.try_acquire().unwrap();
        let _b = pool.try_acquire().unwrap();
        assert!(pool.try_acquire().is_none());
        assert_eq!(pool.live(), 2);
        drop(a);
        assert_eq!(pool.live(), 1);
        assert!(pool.try_acquire().is_some());
    }
}
