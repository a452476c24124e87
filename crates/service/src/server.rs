//! Transports for the wire protocol: TCP (thread per connection) and stdio.
//!
//! Both transports are line loops over [`Service::handle_line`]; all
//! protocol logic lives in [`crate::service`]. What this module adds is
//! the *hardened edge* (DESIGN.md §11): every byte read from a peer is
//! bounded ([`BoundedLineReader`], [`EdgeLimits::max_line_bytes`]), every
//! connection carries read/write deadlines and a per-connection request
//! cap, the accept loop sheds connections over a global cap with a
//! structured `overloaded` + `retry_after` reply instead of queueing them,
//! transient `accept()` failures (EMFILE, ECONNABORTED) are retried with
//! bounded backoff, and [`TcpServer::shutdown`] stops accepting, drains
//! in-flight connections against a deadline, and reports whether the
//! drain completed — symmetric with the stdio loop's EOF path.
//!
//! The accept loop can be run on the caller's thread ([`serve_tcp`]) or
//! detached ([`spawn_tcp`] / [`TcpServer::start`]), which is how tests,
//! the example, and the load harness's socket mode stand up a real server
//! inside one process.

use crate::proto::error_response_coded;
use crate::service::{EdgeStats, Service};
use setdisc_util::obs;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Limits the transport edge enforces per peer and globally. All the caps
/// exist to convert hostile or broken client behavior (unbounded lines,
/// dead connections, request floods) into *structured, bounded* failures
/// instead of memory growth or wedged threads.
#[derive(Clone, Debug)]
pub struct EdgeLimits {
    /// Longest accepted request line in bytes; longer lines are answered
    /// with a `too_large` error (TCP additionally closes the connection —
    /// the frame boundary is unknowable past the cap).
    pub max_line_bytes: usize,
    /// Requests served per connection before it is recycled with an
    /// `overloaded` reply (bounds per-connection resource drift; clients
    /// reconnect and continue — session state lives in the table, not the
    /// connection).
    pub max_requests_per_conn: u64,
    /// Global live-connection cap; accepts beyond it are shed immediately
    /// with `overloaded` + `retry_after`.
    pub max_connections: usize,
    /// Per-connection read deadline (client think time); an expired
    /// deadline closes the connection with a `deadline` reply. `None`
    /// waits forever.
    pub read_timeout: Option<Duration>,
    /// Per-connection write deadline (slow/stalled readers).
    pub write_timeout: Option<Duration>,
    /// The back-off hint (seconds) sent with shedding replies.
    pub retry_after_secs: u64,
    /// How long [`TcpServer::shutdown`] waits for in-flight connections to
    /// finish before abandoning them.
    pub drain_deadline: Duration,
}

impl Default for EdgeLimits {
    fn default() -> Self {
        Self {
            // Generous: a paper-scale create with a 10^5-set prior is
            // still well under 1 MiB, while an unbounded reader would let
            // one peer OOM the process.
            max_line_bytes: 1 << 20,
            max_requests_per_conn: 1_000_000,
            max_connections: 4096,
            // Idle-session sweep order of magnitude: a human thinking is
            // fine, an abandoned socket is not held forever.
            read_timeout: Some(Duration::from_secs(900)),
            write_timeout: Some(Duration::from_secs(30)),
            retry_after_secs: 1,
            drain_deadline: Duration::from_secs(5),
        }
    }
}

/// One fully-framed read result from a [`BoundedLineReader`].
#[derive(Debug, PartialEq, Eq)]
pub enum ReadLine {
    /// A complete line (terminator stripped, invalid UTF-8 replaced).
    Line(String),
    /// The line exceeded the byte cap. Call
    /// [`BoundedLineReader::skip_to_newline`] to resynchronize (a no-op
    /// when the oversized line's terminator was already seen), or close
    /// the connection.
    TooLong,
    /// End of stream. Trailing bytes without a newline (a torn final
    /// frame) are discarded, never handed to the dispatcher.
    Eof,
}

/// A line reader with a hard byte cap — the fix for the unbounded
/// `read_line` a hostile peer could grow without ever sending `\n`.
/// Memory use is bounded by the cap regardless of peer behavior.
pub struct BoundedLineReader<R: Read> {
    inner: R,
    buf: Vec<u8>,
    /// Consumed prefix of `buf`.
    start: usize,
    /// Bytes of `buf[start..]` already scanned for a newline.
    scanned: usize,
    /// True after an oversized line whose terminator was never buffered:
    /// the stream is mid-line, and [`Self::skip_to_newline`] must discard
    /// up to the next terminator to restore framing.
    dangling: bool,
    max: usize,
}

impl<R: Read> BoundedLineReader<R> {
    /// Caps lines at `max_line_bytes` (terminator excluded).
    pub fn new(inner: R, max_line_bytes: usize) -> Self {
        Self {
            inner,
            buf: Vec::new(),
            start: 0,
            scanned: 0,
            dangling: false,
            max: max_line_bytes,
        }
    }

    fn fill(&mut self) -> io::Result<usize> {
        // Chaos hook: injected read errors model peers torn down by the
        // kernel mid-stream.
        setdisc_util::faults::check_io("server.read")?;
        // Armed, the span times the read syscall — which includes peer
        // think time, so server.read quantifies client latency, not
        // server work.
        let _span = obs::span(obs::Site::ServerRead);
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        let old = self.buf.len();
        // reserve_exact: amortized doubling would otherwise let peak
        // capacity reach ~2× the line cap.
        self.buf.reserve_exact(4096);
        self.buf.resize(old + 4096, 0);
        let n = self.inner.read(&mut self.buf[old..]);
        self.buf.truncate(old + n.as_ref().copied().unwrap_or(0));
        n
    }

    /// Reads the next complete line, enforcing the cap.
    pub fn read_line(&mut self) -> io::Result<ReadLine> {
        loop {
            let pending = &self.buf[self.start..];
            if let Some(i) = pending[self.scanned..].iter().position(|&b| b == b'\n') {
                let end = self.scanned + i;
                self.start += end + 1;
                self.scanned = 0;
                if end > self.max {
                    // Oversized, but its terminator was in reach: it is
                    // consumed whole and framing is already intact.
                    return Ok(ReadLine::TooLong);
                }
                let mut line = &self.buf[self.start - end - 1..self.start - 1];
                if line.last() == Some(&b'\r') {
                    line = &line[..line.len() - 1];
                }
                return Ok(ReadLine::Line(String::from_utf8_lossy(line).into_owned()));
            }
            self.scanned = pending.len();
            if self.scanned > self.max {
                // The flood never terminated inside the cap: drop the
                // buffered prefix and remember the stream is mid-line.
                self.buf.clear();
                self.start = 0;
                self.scanned = 0;
                self.dangling = true;
                return Ok(ReadLine::TooLong);
            }
            if self.fill()? == 0 {
                return Ok(ReadLine::Eof);
            }
        }
    }

    /// After [`ReadLine::TooLong`]: restores line framing, discarding the
    /// oversized line's remainder (without buffering it) when its
    /// terminator was never seen; a no-op otherwise. `false` means the
    /// stream ended mid-discard.
    pub fn skip_to_newline(&mut self) -> io::Result<bool> {
        while self.dangling {
            if let Some(i) = self.buf[self.start..].iter().position(|&b| b == b'\n') {
                self.start += i + 1;
                self.scanned = 0;
                self.dangling = false;
                return Ok(true);
            }
            self.buf.clear();
            self.start = 0;
            self.scanned = 0;
            if self.fill()? == 0 {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// Serves the protocol over stdin/stdout until EOF. Empty lines are
/// ignored; every request line yields exactly one response line. Lines
/// over the configured byte cap are answered with a `too_large` error and
/// skipped — stdio keeps its framing (the newline is still the
/// delimiter), so unlike TCP the loop can resynchronize and continue.
pub fn serve_stdio(service: &Service) -> io::Result<()> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    let mut out = io::BufWriter::new(stdout.lock());
    let limits = service.config().edge.clone();
    let mut reader = BoundedLineReader::new(stdin.lock(), limits.max_line_bytes);
    loop {
        match reader.read_line()? {
            ReadLine::Eof => return Ok(()),
            ReadLine::TooLong => {
                EdgeStats::bump(&service.edge_stats().too_large);
                let msg = format!(
                    "request line exceeds the {}-byte cap; line skipped",
                    limits.max_line_bytes
                );
                writeln!(out, "{}", error_response_coded("too_large", &msg, None))?;
                out.flush()?;
                reader.skip_to_newline()?;
            }
            ReadLine::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                writeln!(out, "{}", service.handle_line(&line))?;
                out.flush()?;
            }
        }
    }
}

/// State shared between the accept loop, its connection threads, and the
/// [`TcpServer`] handle.
#[derive(Default)]
struct ConnShared {
    shutdown: AtomicBool,
    live: AtomicUsize,
}

/// A running TCP transport: the accept loop on a background thread plus
/// the drain-aware shutdown handle.
pub struct TcpServer {
    addr: SocketAddr,
    shared: Arc<ConnShared>,
    drain_deadline: Duration,
    accept_handle: Option<thread::JoinHandle<()>>,
}

impl TcpServer {
    /// Starts the accept loop on a background thread.
    pub fn start(service: Arc<Service>, listener: TcpListener) -> io::Result<Self> {
        let addr = listener.local_addr()?;
        let drain_deadline = service.config().edge.drain_deadline;
        let shared = Arc::new(ConnShared::default());
        let loop_shared = Arc::clone(&shared);
        let accept_handle = thread::Builder::new()
            .name("setdisc-accept".into())
            .spawn(move || accept_loop(&service, &listener, &loop_shared))?;
        Ok(Self {
            addr,
            shared,
            drain_deadline,
            accept_handle: Some(accept_handle),
        })
    }

    /// [`Self::start`] on a fresh listener bound to `bind` (e.g.
    /// `127.0.0.1:0` for an ephemeral port).
    pub fn bind(service: Arc<Service>, bind: &str) -> io::Result<Self> {
        Self::start(service, TcpListener::bind(bind)?)
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live connection count (shed decisions use the same counter).
    pub fn live_connections(&self) -> usize {
        self.shared.live.load(Ordering::Acquire)
    }

    /// Blocks until the accept loop exits — the `serve` binary parks its
    /// main thread here for the no-shutdown-handle mode.
    pub fn join(mut self) {
        if let Some(h) = self.accept_handle.take() {
            h.join().ok();
        }
    }

    /// Graceful shutdown: stop accepting, then wait up to the configured
    /// drain deadline for in-flight connections to finish. Returns `true`
    /// when every connection drained; `false` when stragglers (idle peers
    /// sitting inside their read deadline) were abandoned to process
    /// exit. Connection threads check the shutdown flag after each
    /// response, so active request/response cycles complete and the
    /// response is flushed before their connection closes; a connection
    /// that has not sent a request is an idle peer whichever way its
    /// thread was scheduled.
    pub fn shutdown(mut self) -> bool {
        self.begin_shutdown();
        let deadline = Instant::now() + self.drain_deadline;
        while self.shared.live.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        self.shared.live.load(Ordering::Acquire) == 0
    }

    fn begin_shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Wake the blocking accept() with a throwaway connection; the loop
        // re-checks the flag before serving it.
        TcpStream::connect(self.addr).ok();
        if let Some(h) = self.accept_handle.take() {
            h.join().ok();
        }
    }
}

/// Serves the accept loop on the current thread, forever (no shutdown
/// handle — prefer [`TcpServer::start`] when drain matters).
pub fn serve_tcp(service: Arc<Service>, listener: TcpListener) {
    let shared = Arc::new(ConnShared::default());
    accept_loop(&service, &listener, &shared);
}

/// Binds `bind` and serves the accept loop on a background thread.
/// Returns the bound address (useful with port 0) and the thread handle.
pub fn spawn_tcp(
    service: Arc<Service>,
    bind: &str,
) -> io::Result<(SocketAddr, thread::JoinHandle<()>)> {
    let listener = TcpListener::bind(bind)?;
    let addr = listener.local_addr()?;
    let handle = thread::spawn(move || serve_tcp(service, listener));
    Ok((addr, handle))
}

/// Spawns the idle-eviction sweeper: every `period`, sessions idle past
/// the service's configured timeout are dropped.
pub fn spawn_idle_sweeper(service: Arc<Service>, period: Duration) -> thread::JoinHandle<()> {
    thread::spawn(move || loop {
        thread::sleep(period);
        service.evict_idle();
    })
}

/// Spawns the plan checkpointer: every `period`, the learned plan cache is
/// persisted (atomically — see `setdisc_plan::save_plan`) to the service's
/// configured path. Persistence failures are logged and retried next
/// period; a crash between checkpoints loses at most `period` of learning
/// and never the last good file.
pub fn spawn_plan_checkpointer(service: Arc<Service>, period: Duration) -> thread::JoinHandle<()> {
    thread::Builder::new()
        .name("setdisc-checkpoint".into())
        .spawn(move || loop {
            thread::sleep(period);
            let span = obs::span(obs::Site::PlanCheckpoint);
            let result = service.persist_plans();
            drop(span);
            if let Err(e) = result {
                obs::warn(&format!("plan checkpoint failed (will retry): {e}"));
            }
        })
        .expect("spawn checkpointer")
}

fn accept_loop(service: &Arc<Service>, listener: &TcpListener, shared: &Arc<ConnShared>) {
    let limits = service.config().edge.clone();
    let min_backoff = Duration::from_millis(10);
    let max_backoff = Duration::from_secs(1);
    let mut backoff = min_backoff;
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Chaos hook: injected accept errors exercise the same backoff
        // path as real EMFILE/ECONNABORTED bursts. Transient failures keep
        // the server serving; the bounded backoff keeps a persistent error
        // from tight-looping a core.
        let accepted =
            setdisc_util::faults::check_io("server.accept").and_then(|()| listener.accept());
        let stream = match accepted {
            Ok((stream, _)) => stream,
            Err(_) => {
                EdgeStats::bump(&service.edge_stats().accept_retries);
                thread::sleep(backoff);
                backoff = (backoff * 2).min(max_backoff);
                continue;
            }
        };
        backoff = min_backoff;
        obs::hit(obs::Site::ServerAccept);
        if shared.shutdown.load(Ordering::Acquire) {
            return; // the shutdown wake-up connection
        }
        if shared.live.load(Ordering::Acquire) >= limits.max_connections {
            shed(service, stream, &limits);
            continue;
        }
        shared.live.fetch_add(1, Ordering::AcqRel);
        let conn_service = Arc::clone(service);
        let conn_shared = Arc::clone(shared);
        // thread::Builder reports spawn failure (thread exhaustion is an
        // overload condition like any other) instead of panicking the
        // accept loop; the stream is dropped with the failed closure.
        let spawned = thread::Builder::new()
            .name("setdisc-conn".into())
            .spawn(move || {
                connection_loop(&conn_service, stream, &conn_shared);
                conn_shared.live.fetch_sub(1, Ordering::AcqRel);
            });
        if spawned.is_err() {
            shared.live.fetch_sub(1, Ordering::AcqRel);
            EdgeStats::bump(&service.edge_stats().shed_connections);
        }
    }
}

/// Over the connection cap: reply with a structured back-off hint and
/// close. Best-effort — the peer may already be gone.
fn shed(service: &Arc<Service>, stream: TcpStream, limits: &EdgeLimits) {
    EdgeStats::bump(&service.edge_stats().shed_connections);
    stream.set_write_timeout(Some(Duration::from_secs(1))).ok();
    let mut stream = stream;
    let line = error_response_coded(
        "overloaded",
        &format!(
            "connection shed: {} connections at the global cap",
            limits.max_connections
        ),
        Some(limits.retry_after_secs),
    );
    let _ = writeln!(stream, "{line}");
}

fn connection_loop(service: &Service, stream: TcpStream, shared: &ConnShared) {
    let limits = service.config().edge.clone();
    let stats = service.edge_stats();
    stream.set_read_timeout(limits.read_timeout).ok();
    stream.set_write_timeout(limits.write_timeout).ok();
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BoundedLineReader::new(read_half, limits.max_line_bytes);
    let mut writer = io::BufWriter::new(stream);
    let mut served: u64 = 0;
    loop {
        match reader.read_line() {
            Ok(ReadLine::Eof) => return,
            Ok(ReadLine::TooLong) => {
                // Unlike stdio there is no trustworthy way back to a frame
                // boundary mid-flood, so reply and close.
                EdgeStats::bump(&stats.too_large);
                let msg = format!(
                    "request line exceeds the {}-byte cap; closing connection",
                    limits.max_line_bytes
                );
                send(&mut writer, &error_response_coded("too_large", &msg, None));
                return;
            }
            Err(e) if is_timeout(&e) => {
                EdgeStats::bump(&stats.deadline_drops);
                let line = error_response_coded(
                    "deadline",
                    "connection idle past the read deadline; closing",
                    Some(limits.retry_after_secs),
                );
                send(&mut writer, &line);
                return;
            }
            Err(_) => return, // peer torn down mid-read
            Ok(ReadLine::Line(line)) => {
                if line.trim().is_empty() {
                    continue;
                }
                if served >= limits.max_requests_per_conn {
                    EdgeStats::bump(&stats.shed_requests);
                    let msg = format!(
                        "connection served its {}-request cap; reconnect to continue",
                        limits.max_requests_per_conn
                    );
                    let line =
                        error_response_coded("overloaded", &msg, Some(limits.retry_after_secs));
                    send(&mut writer, &line);
                    return;
                }
                served += 1;
                let response = service.handle_line(&line);
                if !send(&mut writer, &response) {
                    return; // client went away (or injected write fault)
                }
                // Drain: the in-flight request is answered; close the
                // connection rather than wait for its next one. The flag is
                // read only here, after a response: read before the first
                // read, it would close an idle peer or not depending on
                // whether this thread ran before shutdown began.
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
            }
        }
    }
}

/// Read timeouts surface as `WouldBlock` (Unix) or `TimedOut` (Windows).
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Writes one response line; false when the peer is unreachable.
fn send(writer: &mut impl Write, line: &str) -> bool {
    let _span = obs::span(obs::Site::ServerWrite);
    setdisc_util::faults::check_io("server.write")
        .and_then(|()| writeln!(writer, "{line}"))
        .and_then(|()| writer.flush())
        .is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use std::io::{BufRead as _, BufReader, BufWriter};

    #[test]
    fn tcp_round_trip() {
        let service = Arc::new(Service::new(ServiceConfig::default()));
        service.registry().install_fixture("figure1").unwrap();
        let (addr, _handle) = spawn_tcp(Arc::clone(&service), "127.0.0.1:0").unwrap();

        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        let mut call = move |line: &str| -> String {
            writeln!(writer, "{line}").unwrap();
            writer.flush().unwrap();
            let mut resp = String::new();
            reader.read_line(&mut resp).unwrap();
            resp.trim_end().to_string()
        };

        let resp = call(r#"{"op":"collections"}"#);
        assert!(resp.contains("\"figure1\""), "{resp}");
        let resp = call(r#"{"op":"create","collection":"figure1","examples":["e"]}"#);
        assert!(resp.contains("\"candidates\":1"), "{resp}");
        let resp = call(r#"{"op":"ask","session":1}"#);
        assert!(resp.contains("\"reason\":\"resolved\""), "{resp}");
        assert!(resp.contains("\"discovered\":\"S2\""), "{resp}");
    }

    #[test]
    fn bounded_reader_frames_caps_and_resyncs() {
        let input = b"first\r\nsecond\nTHIS-LINE-IS-MUCH-TOO-LONG-FOR-TEN\nafter\npartial";
        let mut r = BoundedLineReader::new(&input[..], 10);
        assert_eq!(r.read_line().unwrap(), ReadLine::Line("first".into()));
        assert_eq!(r.read_line().unwrap(), ReadLine::Line("second".into()));
        assert_eq!(r.read_line().unwrap(), ReadLine::TooLong);
        assert!(r.skip_to_newline().unwrap());
        assert_eq!(r.read_line().unwrap(), ReadLine::Line("after".into()));
        // A torn trailing frame is discarded, not dispatched.
        assert_eq!(r.read_line().unwrap(), ReadLine::Eof);
    }

    #[test]
    fn bounded_reader_memory_stays_bounded() {
        struct Endless;
        impl Read for Endless {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                buf.fill(b'x');
                Ok(buf.len())
            }
        }
        let mut r = BoundedLineReader::new(Endless, 1 << 16);
        assert_eq!(r.read_line().unwrap(), ReadLine::TooLong);
        assert!(r.buf.capacity() < (1 << 16) + (1 << 13), "capacity bounded");
    }
}
