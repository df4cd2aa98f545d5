//! Per-connection state machine for the server's event loop.
//!
//! One [`Conn`] owns everything about a connection except the event
//! loop itself: the partially-read request frame, the partially-written
//! reply, the idle/budget/write deadlines, and the metric accounting.
//! It is **stream-generic** (any [`ConnStream`]) so every partial-read
//! and partial-write path is unit-tested here against scripted
//! in-memory streams, one byte at a time, without a socket in sight —
//! the reactor core then drives the exact same code over nonblocking
//! `TcpStream`s.
//!
//! The state graph:
//!
//! ```text
//! ReadingHeader → ReadingPayload → (query served) → Writing ─┐
//!       ↑                                                    │
//!       └────────────────── (reply flushed) ─────────────────┘
//! ```
//!
//! The query runs to completion on the event loop between the last
//! payload byte and [`Conn::begin_reply`], so no state waits on it.
//! `Writing` is also reachable directly for error replies, idle
//! evictions, and BUSY sheds (which continue to `ShedDraining` instead
//! of back to `ReadingHeader`).
//!
//! Counter side effects follow one fixed order: replies and error
//! frames are counted before their first write, eviction and BUSY
//! frames only once fully flushed. So a scripted scenario leaves exact,
//! predictable [`ServerMetrics`] behind (`tests/server_reactor.rs`
//! asserts them). This module handles attacker-controlled bytes and is
//! on authlint's untrusted list: no panics, no slice indexing.

use super::{frame_budget, oversize_message, MAX_REQUEST_PAYLOAD};
use crate::metrics::{ServerMetrics, TransportStats};
use crate::wire;
use std::io::{self, IoSlice};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// The slice of a stream the state machine needs: nonblocking reads,
/// vectored nonblocking writes, and a half-close for the shed path.
/// `WouldBlock` from any of these parks the state machine until the
/// reactor reports readiness again.
pub(crate) trait ConnStream {
    /// Read into `buf`, returning 0 at EOF.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize>;
    /// Write from `bufs` (gather), returning how many bytes left.
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize>;
    /// Send FIN; reads may continue.
    fn shutdown_write(&mut self) -> io::Result<()>;
}

impl ConnStream for std::net::TcpStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        io::Read::read(self, buf)
    }
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        io::Write::write_vectored(self, bufs)
    }
    fn shutdown_write(&mut self) -> io::Result<()> {
        self.shutdown(std::net::Shutdown::Write)
    }
}

/// Deadlines and counter sinks the state machine charges against;
/// borrowed per call so tests can drive a [`Conn`] with nothing but
/// default-constructed metrics.
pub(crate) struct ConnEnv<'a> {
    /// Request/reply counters (the protocol-outcome contract).
    pub metrics: &'a ServerMetrics,
    /// Syscall counters (diagnostics, not part of the contract).
    pub transport: &'a TransportStats,
    /// Per-gap idle deadline; zero disables read-side eviction.
    pub idle_deadline: Duration,
    /// Total budget for flushing one reply (already defaulted — never
    /// zero).
    pub write_timeout: Duration,
}

/// What became of a reply once it is fully flushed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum AfterWrite {
    /// Normal reply: back to `ReadingHeader` for the next request.
    NextRequest,
    /// Terminal reply (header garbage, oversize declaration, idle
    /// eviction): close the connection.
    Close,
    /// BUSY shed: FIN, then drain briefly so the refusal survives in
    /// the peer's receive buffer instead of being wiped by an RST.
    ShedDrain,
}

/// Where the connection is in its request/reply cycle.
enum State {
    /// Accumulating the 10-byte frame header.
    ReadingHeader,
    /// Header parsed; accumulating `payload.len()` payload bytes.
    ReadingPayload {
        /// Request frame kind (possibly unknown — resolved after the
        /// payload is consumed, keeping the connection alive for
        /// forward compatibility).
        kind: u8,
    },
    /// Flushing `reply_head` + `reply_body` through vectored writes.
    Writing {
        /// Next state once flushed.
        after: AfterWrite,
        /// Total flush budget for this frame.
        bound: Duration,
        /// Whether a blown write budget counts as a timed-out
        /// connection (true only for OK replies: a peer that stops
        /// draining answers is the write-side slow loris).
        count_timeout_on_stall: bool,
        /// `bytes_out` to add only once the frame fully flushes
        /// (eviction and BUSY frames; zero for frames already counted
        /// up front).
        count_bytes_on_flush: u64,
    },
    /// BUSY flushed and FIN sent; consuming request bytes the peer
    /// already sent (bounded) before closing.
    ShedDraining,
    /// Terminal.
    Closed,
}

/// What the caller must do after handing the state machine an event.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Step {
    /// Nothing actionable; re-derive interest and deadline and wait.
    Idle,
    /// A complete request frame is buffered ([`Conn::request`]); decode
    /// it, then either [`Conn::begin_request_error`], or serve it into
    /// [`Conn::reply_buf`] and [`Conn::begin_reply`] with the outcome.
    Frame {
        /// The request frame's kind byte.
        kind: u8,
    },
    /// Close the connection and drop the [`Conn`]. All accounting is
    /// already done.
    Close,
}

/// What became of one served query, its reply payload already in
/// [`Conn::reply_buf`]: `Some(Ok)` is the reply's frame header,
/// `Some(Err)` the [`wire::WireError`] the encode step hit, `None` a
/// query that panicked.
pub(crate) type Outcome = Option<Result<[u8; wire::FRAME_HEADER_LEN], wire::WireError>>;

/// Readiness interest the reactor should register for the current
/// state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Want {
    /// Wait for readable.
    Read,
    /// Wait for writable.
    Write,
    /// No events wanted: the connection is closed, and the loop drops
    /// it.
    None,
}

/// How many `read` calls the shed drain will make before giving up on
/// a peer that keeps talking, so a refused peer cannot hold a shed
/// slot by streaming bytes.
const SHED_DRAIN_MAX_READS: u32 = 64;

/// How long the shed drain waits for the peer's next byte (or close)
/// before closing anyway, so a silent refused peer frees its shed slot
/// within 100 ms.
const SHED_DRAIN_GAP: Duration = Duration::from_millis(100);

/// One connection's complete transport state. Buffers are reused
/// across requests: the payload buffer grows to the largest request
/// seen and stays, and so does the reply-body buffer each query is
/// encoded into, so steady-state serving allocates nothing per reply.
pub(crate) struct Conn<S> {
    stream: S,
    state: State,
    /// Request frame header accumulator.
    hdr: [u8; wire::FRAME_HEADER_LEN],
    hdr_filled: usize,
    /// Request payload accumulator (sized to the declared length).
    payload: Vec<u8>,
    payload_filled: usize,
    /// Reply frame header (encoded once, written alongside the body).
    reply_head: [u8; wire::FRAME_HEADER_LEN],
    head_written: usize,
    /// Reply body; reused by every reply.
    reply_body: Vec<u8>,
    body_written: usize,
    /// Last byte received from (or reply flushed to) the peer — the
    /// idle clock.
    last_byte: Instant,
    /// When the current frame's accumulation began — the total-budget
    /// clock that bounds dribblers.
    frame_start: Instant,
    /// When the current reply's flush began.
    write_start: Instant,
    /// Shed-drain read counter.
    drain_reads: u32,
}

impl<S: ConnStream> Conn<S> {
    /// A freshly admitted connection, waiting for its first header.
    pub(crate) fn new(stream: S, now: Instant) -> Conn<S> {
        Conn {
            stream,
            state: State::ReadingHeader,
            hdr: [0u8; wire::FRAME_HEADER_LEN],
            hdr_filled: 0,
            payload: Vec::new(),
            payload_filled: 0,
            reply_head: [0u8; wire::FRAME_HEADER_LEN],
            head_written: 0,
            reply_body: Vec::new(),
            body_written: 0,
            last_byte: now,
            frame_start: now,
            write_start: now,
            drain_reads: 0,
        }
    }

    /// An over-cap connection being refused: starts life mid-`Writing`
    /// a BUSY frame, then FIN + drain + close. `bytes_out` is counted
    /// only if the frame fully flushes; `connections_shed` is the
    /// caller's (it counts silent sheds too).
    pub(crate) fn new_shed(stream: S, message: &str, now: Instant) -> Conn<S> {
        let mut conn = Conn::new(stream, now);
        let head = conn.encode_error(wire::errcode::BUSY, message);
        // A refusal is not worth a long wait: a peer that cannot take
        // the BUSY frame in 500 ms is dropped.
        let bound = Duration::from_millis(500);
        conn.begin_write(head, now, AfterWrite::ShedDrain, bound, false, None);
        conn
    }

    /// The readiness interest this state wants.
    pub(crate) fn want(&self) -> Want {
        match self.state {
            State::ReadingHeader | State::ReadingPayload { .. } | State::ShedDraining => Want::Read,
            State::Writing { .. } => Want::Write,
            State::Closed => Want::None,
        }
    }

    /// Whether the connection is flushing a reply.
    pub(crate) fn is_writing(&self) -> bool {
        matches!(self.state, State::Writing { .. })
    }

    /// Whether this is a shed handshake (BUSY flush or drain) rather
    /// than an admitted connection.
    #[cfg(test)]
    fn is_shedding(&self) -> bool {
        matches!(self.state, State::ShedDraining)
            || matches!(
                self.state,
                State::Writing {
                    after: AfterWrite::ShedDrain,
                    ..
                }
            )
    }

    /// The complete request frame payload (valid when the last step
    /// returned [`Step::Frame`]).
    pub(crate) fn request(&self) -> &[u8] {
        self.payload.get(..self.payload_filled).unwrap_or(&[])
    }

    /// The reply-body buffer a query encodes its reply payload into
    /// before [`Conn::begin_reply`].
    pub(crate) fn reply_buf(&mut self) -> &mut Vec<u8> {
        &mut self.reply_body
    }

    /// When the state machine next needs the clock, if ever: the idle
    /// gap or total frame budget while reading, the flush bound while
    /// writing, the drain gap while shedding. `None` once closed and,
    /// for reads, when the idle deadline is disabled.
    pub(crate) fn deadline(&self, env: &ConnEnv<'_>) -> Option<Instant> {
        match &self.state {
            State::ReadingHeader => self.read_deadline(env, wire::FRAME_HEADER_LEN),
            State::ReadingPayload { .. } => self.read_deadline(env, self.payload.len()),
            State::Closed => None,
            State::Writing { bound, .. } => self.write_start.checked_add(*bound),
            State::ShedDraining => self.last_byte.checked_add(SHED_DRAIN_GAP),
        }
    }

    fn read_deadline(&self, env: &ConnEnv<'_>, buf_len: usize) -> Option<Instant> {
        if env.idle_deadline.is_zero() {
            return None;
        }
        let gap = self.last_byte.checked_add(env.idle_deadline)?;
        let total = self
            .frame_start
            .checked_add(frame_budget(env.idle_deadline, buf_len))?;
        Some(gap.min(total))
    }

    /// The peer is readable: pull bytes until the socket runs dry, a
    /// full frame lands, or the connection ends.
    pub(crate) fn on_readable(&mut self, env: &ConnEnv<'_>) -> Step {
        loop {
            match self.state {
                State::ReadingHeader => {
                    let filled = self.hdr_filled;
                    env.transport.reads.fetch_add(1, Ordering::Relaxed);
                    let read = {
                        let buf = self.hdr.get_mut(filled..).unwrap_or(&mut []);
                        self.stream.read(buf)
                    };
                    match read {
                        Ok(0) => {
                            // EOF between frames is a clean goodbye;
                            // EOF mid-header is a peer dying — either
                            // way, just close, counting nothing: no
                            // request was received.
                            return Step::Close;
                        }
                        Ok(n) => {
                            self.hdr_filled += n;
                            self.last_byte = Instant::now();
                            if self.hdr_filled >= wire::FRAME_HEADER_LEN {
                                if let Some(step) = self.header_complete(env) {
                                    return step;
                                }
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Step::Idle,
                        Err(_) => return Step::Close,
                    }
                }
                State::ReadingPayload { kind } => {
                    let filled = self.payload_filled;
                    env.transport.reads.fetch_add(1, Ordering::Relaxed);
                    let read = {
                        let buf = self.payload.get_mut(filled..).unwrap_or(&mut []);
                        self.stream.read(buf)
                    };
                    match read {
                        // Peer died mid-frame; close silently.
                        Ok(0) => return Step::Close,
                        Ok(n) => {
                            self.payload_filled += n;
                            self.last_byte = Instant::now();
                            if self.payload_filled >= self.payload.len() {
                                return self.frame_complete(env, kind);
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Step::Idle,
                        Err(_) => return Step::Close,
                    }
                }
                State::ShedDraining => {
                    let mut sink = [0u8; 1024];
                    env.transport.reads.fetch_add(1, Ordering::Relaxed);
                    match self.stream.read(&mut sink) {
                        Ok(0) => return Step::Close,
                        Ok(_) => {
                            self.drain_reads += 1;
                            self.last_byte = Instant::now();
                            if self.drain_reads >= SHED_DRAIN_MAX_READS {
                                return Step::Close;
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Step::Idle,
                        Err(_) => return Step::Close,
                    }
                }
                State::Closed => return Step::Close,
                // Spurious readiness for a state that doesn't read.
                State::Writing { .. } => return Step::Idle,
            }
        }
    }

    /// Ten header bytes are in: parse them, transition, or begin a
    /// terminal error reply. `None` means "keep reading" (the payload
    /// may already be in the socket buffer).
    fn header_complete(&mut self, env: &ConnEnv<'_>) -> Option<Step> {
        match wire::decode_frame_header_any(&self.hdr) {
            Ok((kind, len)) => {
                if len > MAX_REQUEST_PAYLOAD {
                    // Refuse to buffer it (or hand the dribble clock a
                    // multi-megabyte frame to stretch), reply, drop.
                    self.begin_error_reply(
                        env,
                        wire::errcode::MALFORMED,
                        &oversize_message(len),
                        AfterWrite::Close,
                    );
                    return Some(Step::Idle);
                }
                // The total-budget clock for the payload starts now:
                // header and payload each get their own frame budget.
                self.frame_start = Instant::now();
                self.payload.clear();
                self.payload.resize(len, 0);
                self.payload_filled = 0;
                if len == 0 {
                    return Some(self.frame_complete(env, kind));
                }
                self.state = State::ReadingPayload { kind };
                None
            }
            Err(e) => {
                // Un-synchronizable (bad magic/version/length): the
                // frame boundary is unknowable, so reply and drop.
                self.begin_error_reply(
                    env,
                    wire::errcode::MALFORMED,
                    &e.to_string(),
                    AfterWrite::Close,
                );
                Some(Step::Idle)
            }
        }
    }

    /// A whole request frame is buffered: count it and hand it up.
    fn frame_complete(&mut self, env: &ConnEnv<'_>, kind: u8) -> Step {
        env.metrics.bytes_in.fetch_add(
            (wire::FRAME_HEADER_LEN + self.payload_filled) as u64,
            Ordering::Relaxed,
        );
        Step::Frame { kind }
    }

    /// Begin the reply to a served query: `Some(Ok(head))` is an OK
    /// reply (`head` + the payload in [`Conn::reply_buf`]),
    /// `Some(Err)` an UNREPRESENTABLE one, `None` an INTERNAL one for a
    /// query that panicked. The connection survives each.
    ///
    /// An OK reply counts `requests_ok` and `bytes_out` **before** the
    /// first write, so an answered request counts even if the peer
    /// leaves mid-flush, and charges a blown flush budget as a
    /// timed-out connection. Its flush bound runs from here, so the
    /// time the server spent computing it is never charged to the peer.
    pub(crate) fn begin_reply(&mut self, env: &ConnEnv<'_>, outcome: Outcome) {
        let head = match outcome {
            Some(Ok(head)) => head,
            Some(Err(e)) => {
                let (code, message) = super::unrepresentable(e);
                return self.begin_request_error(env, code, &message);
            }
            None => {
                return self.begin_request_error(env, wire::errcode::INTERNAL, super::WORKER_FAILED)
            }
        };
        env.metrics.requests_ok.fetch_add(1, Ordering::Relaxed);
        self.begin_write(
            Ok(head),
            Instant::now(),
            AfterWrite::NextRequest,
            env.write_timeout,
            true,
            Some(env.metrics),
        );
    }

    /// Begin a coded error reply. Counts `requests_err` and
    /// `bytes_out` up front, unconditionally, like an OK reply: the
    /// verdict was reached whether or not the peer reads it. `after`
    /// decides whether the connection survives (decodable-but-bad
    /// requests) or closes (unsynchronizable bytes, oversize
    /// declarations).
    fn begin_error_reply(&mut self, env: &ConnEnv<'_>, code: u8, message: &str, after: AfterWrite) {
        env.metrics.requests_err.fetch_add(1, Ordering::Relaxed);
        let head = self.encode_error(code, message);
        self.begin_write(
            head,
            Instant::now(),
            after,
            env.write_timeout,
            false,
            Some(env.metrics),
        );
    }

    /// Survivable error reply: back to `ReadingHeader` once flushed.
    pub(crate) fn begin_request_error(&mut self, env: &ConnEnv<'_>, code: u8, message: &str) {
        self.begin_error_reply(env, code, message, AfterWrite::NextRequest);
    }

    /// Begin an idle eviction: count the timed-out connection **now**
    /// (the eviction is decided, whether or not the frame gets out),
    /// send the TIMEOUT frame best-effort (its bytes count only if it
    /// fully flushes), close after.
    pub(crate) fn begin_evict(&mut self, env: &ConnEnv<'_>, message: &str) {
        env.metrics
            .connections_timed_out
            .fetch_add(1, Ordering::Relaxed);
        let head = self.encode_error(wire::errcode::TIMEOUT, message);
        self.begin_write(
            head,
            Instant::now(),
            AfterWrite::Close,
            env.write_timeout,
            false,
            None,
        );
    }

    /// Encode a coded error reply into the recycled body buffer and
    /// return its frame header.
    fn encode_error(
        &mut self,
        code: u8,
        message: &str,
    ) -> Result<[u8; wire::FRAME_HEADER_LEN], wire::WireError> {
        let mut body = std::mem::take(&mut self.reply_body);
        let head = wire::encode_err_reply_payload(code, message, &mut body)
            .and_then(|kind| wire::encode_frame_header(kind, body.len()));
        self.reply_body = body;
        head
    }

    /// The one way into `Writing`: flush `head` and the reply body from
    /// their first bytes, under a flush `bound` that runs from `now`.
    /// The frame joins `bytes_out` here when `up_front` holds the
    /// metrics, or only once it fully flushes when it is `None`. A frame
    /// that did not encode closes the connection instead, charging no
    /// bytes (error replies always encode — messages are truncated to
    /// u16 — so this closes rather than panics on a protocol bug).
    fn begin_write(
        &mut self,
        head: Result<[u8; wire::FRAME_HEADER_LEN], wire::WireError>,
        now: Instant,
        after: AfterWrite,
        bound: Duration,
        count_timeout_on_stall: bool,
        up_front: Option<&ServerMetrics>,
    ) {
        let Ok(head) = head else {
            self.state = State::Closed;
            return;
        };
        let frame_len = (head.len() + self.reply_body.len()) as u64;
        if let Some(metrics) = up_front {
            metrics.bytes_out.fetch_add(frame_len, Ordering::Relaxed);
        }
        self.reply_head = head;
        self.head_written = 0;
        self.body_written = 0;
        self.write_start = now;
        self.state = State::Writing {
            after,
            bound,
            count_timeout_on_stall,
            count_bytes_on_flush: if up_front.is_some() { 0 } else { frame_len },
        };
    }

    /// The peer is writable: push reply bytes until the frame is
    /// flushed or the socket fills.
    pub(crate) fn on_writable(&mut self, env: &ConnEnv<'_>) -> Step {
        loop {
            let State::Writing {
                after,
                bound: _,
                count_timeout_on_stall: _,
                count_bytes_on_flush,
            } = self.state
            else {
                // Spurious writable for a non-writing state.
                return match self.state {
                    State::Closed => Step::Close,
                    _ => Step::Idle,
                };
            };
            let head_rem = self.reply_head.get(self.head_written..).unwrap_or(&[]);
            let body_rem = self.reply_body.get(self.body_written..).unwrap_or(&[]);
            if head_rem.is_empty() && body_rem.is_empty() {
                return self.flushed(after, count_bytes_on_flush, env);
            }
            env.transport.writes.fetch_add(1, Ordering::Relaxed);
            let wrote = self
                .stream
                .write_vectored(&[IoSlice::new(head_rem), IoSlice::new(body_rem)]);
            match wrote {
                Ok(0) => return Step::Close,
                Ok(n) => {
                    let into_head = n.min(wire::FRAME_HEADER_LEN - self.head_written);
                    self.head_written += into_head;
                    self.body_written += n - into_head;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Step::Idle,
                // Hard write error: close without the timed-out count
                // (only a stall is a slow peer; a reset is a gone one).
                Err(_) => return Step::Close,
            }
        }
    }

    /// The reply frame is fully on the wire; settle deferred counters
    /// and move on.
    fn flushed(&mut self, after: AfterWrite, deferred_bytes: u64, env: &ConnEnv<'_>) -> Step {
        if deferred_bytes > 0 {
            env.metrics
                .bytes_out
                .fetch_add(deferred_bytes, Ordering::Relaxed);
        }
        match after {
            AfterWrite::NextRequest => {
                // Restart the idle clock only now that the reply has
                // fully drained: engine compute and flush time are the
                // server's wall-clock, not the peer's silence.
                let now = Instant::now();
                self.last_byte = now;
                self.frame_start = now;
                self.hdr_filled = 0;
                self.state = State::ReadingHeader;
                // The next request may already be buffered
                // (pipelining); the loop reads it at its next poll.
                Step::Idle
            }
            AfterWrite::Close => Step::Close,
            AfterWrite::ShedDrain => {
                if self.stream.shutdown_write().is_err() {
                    // No FIN means the peer will never see EOF and the
                    // polite drain can only end at the deadline; a dead
                    // socket must not occupy a shed slot that long.
                    self.state = State::Closed;
                    return Step::Close;
                }
                self.last_byte = Instant::now();
                self.drain_reads = 0;
                self.state = State::ShedDraining;
                Step::Idle
            }
        }
    }

    /// The clock says `now`: if this connection's deadline has passed,
    /// take the expiry action (evict, charge a stalled writer, or end
    /// the shed drain). The reactor calls this when a timer fires; a
    /// deadline that moved later (bytes arrived since the timer was
    /// armed) just re-arms via [`Conn::deadline`].
    pub(crate) fn check_deadline(&mut self, env: &ConnEnv<'_>, now: Instant) -> Step {
        let Some(deadline) = self.deadline(env) else {
            return Step::Idle;
        };
        if now < deadline {
            return Step::Idle;
        }
        match self.state {
            State::ReadingHeader | State::ReadingPayload { .. } => {
                self.begin_evict(env, &super::idle_eviction_message(env.idle_deadline));
                Step::Idle
            }
            State::Writing {
                count_timeout_on_stall,
                ..
            } => {
                if count_timeout_on_stall {
                    // A non-draining peer is the write-side slow
                    // loris; count the eviction (no frame can tell it
                    // so — the pipe is the problem).
                    env.metrics
                        .connections_timed_out
                        .fetch_add(1, Ordering::Relaxed);
                }
                Step::Close
            }
            State::ShedDraining => Step::Close,
            State::Closed => Step::Idle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A scripted stream: reads deliver pre-programmed chunks (then
    /// WouldBlock), writes accept at most a scripted quota per call
    /// (then WouldBlock) into a transcript buffer.
    struct ScriptedStream {
        reads: VecDeque<Vec<u8>>,
        eof_after_reads: bool,
        written: Vec<u8>,
        write_quota: VecDeque<usize>,
        unlimited_writes: bool,
        fin_sent: bool,
        fail_shutdown: bool,
    }

    impl ScriptedStream {
        fn new() -> ScriptedStream {
            ScriptedStream {
                reads: VecDeque::new(),
                eof_after_reads: false,
                written: Vec::new(),
                write_quota: VecDeque::new(),
                unlimited_writes: true,
                fin_sent: false,
                fail_shutdown: false,
            }
        }

        /// Queue incoming bytes split into `chunk`-sized reads.
        fn feed_chunked(&mut self, bytes: &[u8], chunk: usize) {
            for piece in bytes.chunks(chunk.max(1)) {
                self.reads.push_back(piece.to_vec());
            }
        }

        /// Accept writes only in `quota`-byte sips.
        fn sip_writes(&mut self, quota: usize, sips: usize) {
            self.unlimited_writes = false;
            for _ in 0..sips {
                self.write_quota.push_back(quota);
            }
        }
    }

    impl ConnStream for ScriptedStream {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.reads.pop_front() {
                Some(mut chunk) => {
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        self.reads.push_front(chunk.split_off(n));
                    }
                    Ok(n)
                }
                None if self.eof_after_reads => Ok(0),
                None => Err(io::Error::from(io::ErrorKind::WouldBlock)),
            }
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let quota = if self.unlimited_writes {
                usize::MAX
            } else {
                match self.write_quota.pop_front() {
                    Some(q) => q,
                    None => return Err(io::Error::from(io::ErrorKind::WouldBlock)),
                }
            };
            let mut accepted = 0;
            for buf in bufs {
                let n = buf.len().min(quota - accepted);
                self.written.extend_from_slice(&buf[..n]);
                accepted += n;
                if accepted == quota {
                    break;
                }
            }
            if accepted == 0 && bufs.iter().any(|b| !b.is_empty()) {
                return Err(io::Error::from(io::ErrorKind::WouldBlock));
            }
            Ok(accepted)
        }

        fn shutdown_write(&mut self) -> io::Result<()> {
            if self.fail_shutdown {
                return Err(io::Error::from(io::ErrorKind::BrokenPipe));
            }
            self.fin_sent = true;
            Ok(())
        }
    }

    fn env<'a>(metrics: &'a ServerMetrics, transport: &'a TransportStats) -> ConnEnv<'a> {
        ConnEnv {
            metrics,
            transport,
            idle_deadline: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
        }
    }

    fn request_frame() -> Vec<u8> {
        wire::Request::Terms {
            terms: vec![(1, 1), (7, 2)],
            r: 3,
            mode: crate::types::QueryMode::Disjunctive,
        }
        .encode_frame()
        .unwrap()
    }

    #[test]
    fn one_byte_at_a_time_reads_assemble_the_frame_at_every_boundary() {
        let frame = request_frame();
        // Every chunk size from 1 byte to the whole frame exercises
        // every partial-read boundary (header split, header/payload
        // split, payload split).
        for chunk in 1..=frame.len() {
            let metrics = ServerMetrics::default();
            let transport = TransportStats::default();
            let env = env(&metrics, &transport);
            let mut stream = ScriptedStream::new();
            stream.feed_chunked(&frame, chunk);
            let mut conn = Conn::new(stream, Instant::now());
            let step = conn.on_readable(&env);
            assert_eq!(
                step,
                Step::Frame {
                    kind: wire::kind::REQ_TERMS
                },
                "chunk size {chunk}"
            );
            assert_eq!(conn.request(), &frame[wire::FRAME_HEADER_LEN..]);
            assert_eq!(
                metrics.snapshot().bytes_in,
                frame.len() as u64,
                "chunk size {chunk}"
            );
        }
    }

    #[test]
    fn one_byte_at_a_time_writes_flush_the_reply_at_every_boundary() {
        let body = b"some reply payload bytes".to_vec();
        let head = wire::encode_frame_header(wire::kind::REPLY_OK, body.len()).unwrap();
        let total = head.len() + body.len();
        for quota in 1..=total {
            let metrics = ServerMetrics::default();
            let transport = TransportStats::default();
            let env = env(&metrics, &transport);
            let mut stream = ScriptedStream::new();
            stream.sip_writes(quota, total.div_ceil(quota));
            let mut conn = Conn::new(stream, Instant::now());
            *conn.reply_buf() = body.clone();
            conn.begin_reply(&env, Some(Ok(head)));
            // Pump writable until the state machine settles back into
            // reading (quota-bounded, so multiple rounds).
            let mut rounds = 0;
            while conn.is_writing() {
                assert_eq!(conn.on_writable(&env), Step::Idle, "quota {quota}");
                rounds += 1;
                assert!(rounds <= total + 2, "flush must terminate (quota {quota})");
            }
            let mut expect = head.to_vec();
            expect.extend_from_slice(&body);
            assert_eq!(conn.stream.written, expect, "quota {quota}");
            assert_eq!(conn.want(), Want::Read, "back to reading (quota {quota})");
            let snap = metrics.snapshot();
            assert_eq!(snap.requests_ok, 1);
            assert_eq!(snap.bytes_out, total as u64);
        }
    }

    #[test]
    fn garbage_header_begins_terminal_malformed_reply() {
        let metrics = ServerMetrics::default();
        let transport = TransportStats::default();
        let env = env(&metrics, &transport);
        let mut stream = ScriptedStream::new();
        stream.feed_chunked(b"GET / HTTP/1.1\r\n\r\n", 4);
        let mut conn = Conn::new(stream, Instant::now());
        assert_eq!(conn.on_readable(&env), Step::Idle);
        assert!(conn.is_writing(), "MALFORMED reply pending");
        assert_eq!(conn.on_writable(&env), Step::Close, "terminal after flush");
        let snap = metrics.snapshot();
        assert_eq!(snap.requests_err, 1);
        assert!(snap.bytes_out > 0, "error frame counted up front");
        let head: [u8; 10] = conn.stream.written[..10].try_into().unwrap();
        let (kind, len) = wire::decode_frame_header_any(&head).unwrap();
        assert_eq!(kind, wire::kind::REPLY_ERR);
        assert_eq!(conn.stream.written.len(), wire::FRAME_HEADER_LEN + len);
    }

    #[test]
    fn oversize_declaration_is_refused_without_buffering() {
        let metrics = ServerMetrics::default();
        let transport = TransportStats::default();
        let env = env(&metrics, &transport);
        let header = wire::encode_frame_header(wire::kind::REQ_TERMS, MAX_REQUEST_PAYLOAD + 1)
            .expect("within the frame cap");
        let mut stream = ScriptedStream::new();
        stream.feed_chunked(&header, 3);
        let mut conn = Conn::new(stream, Instant::now());
        assert_eq!(conn.on_readable(&env), Step::Idle);
        assert!(conn.payload.is_empty(), "nothing allocated for the payload");
        assert!(conn.is_writing());
        assert_eq!(conn.on_writable(&env), Step::Close);
        let reply = wire::decode_reply_payload(
            wire::kind::REPLY_ERR,
            &conn.stream.written[wire::FRAME_HEADER_LEN..],
        )
        .unwrap();
        match reply {
            wire::Reply::Err { code, message } => {
                assert_eq!(code, wire::errcode::MALFORMED);
                assert!(message.contains("request cap"), "{message}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn eof_between_frames_closes_silently() {
        let metrics = ServerMetrics::default();
        let transport = TransportStats::default();
        let env = env(&metrics, &transport);
        let mut stream = ScriptedStream::new();
        stream.eof_after_reads = true;
        let mut conn = Conn::new(stream, Instant::now());
        assert_eq!(conn.on_readable(&env), Step::Close);
        let snap = metrics.snapshot();
        assert_eq!(snap.requests_err, 0);
        assert_eq!(snap.connections_timed_out, 0);
        assert_eq!(snap.bytes_out, 0);
    }

    #[test]
    fn eof_mid_frame_closes_silently() {
        let frame = request_frame();
        let metrics = ServerMetrics::default();
        let transport = TransportStats::default();
        let env = env(&metrics, &transport);
        let mut stream = ScriptedStream::new();
        stream.feed_chunked(&frame[..frame.len() - 2], 5);
        stream.eof_after_reads = true;
        let mut conn = Conn::new(stream, Instant::now());
        assert_eq!(conn.on_readable(&env), Step::Close);
        assert_eq!(metrics.snapshot().bytes_in, 0, "incomplete frame uncounted");
    }

    #[test]
    fn zero_length_payload_completes_immediately() {
        // No request kind uses len 0 today, but the state machine must
        // not wait forever on a payload that never comes.
        let metrics = ServerMetrics::default();
        let transport = TransportStats::default();
        let env = env(&metrics, &transport);
        let header = wire::encode_frame_header(wire::kind::REQ_TEXT, 0).unwrap();
        let mut stream = ScriptedStream::new();
        stream.feed_chunked(&header, 1);
        let mut conn = Conn::new(stream, Instant::now());
        assert_eq!(
            conn.on_readable(&env),
            Step::Frame {
                kind: wire::kind::REQ_TEXT
            }
        );
        assert!(conn.request().is_empty());
        assert_eq!(metrics.snapshot().bytes_in, wire::FRAME_HEADER_LEN as u64);
    }

    #[test]
    fn dispatched_connection_ignores_events_and_has_no_deadline() {
        // The query runs on the loop between the frame and
        // `begin_reply`. Serving it outlasts the idle deadline here, yet
        // nothing is charged to the peer: no eviction, and the reply's
        // flush bound runs from `begin_reply`.
        let metrics = ServerMetrics::default();
        let transport = TransportStats::default();
        let mut env = env(&metrics, &transport);
        env.idle_deadline = Duration::from_millis(10);
        let mut stream = ScriptedStream::new();
        stream.feed_chunked(&request_frame(), 64);
        let mut conn = Conn::new(stream, Instant::now());
        assert!(matches!(conn.on_readable(&env), Step::Frame { .. }));
        std::thread::sleep(Duration::from_millis(30)); // serving
        let served = Instant::now();
        *conn.reply_buf() = b"vo bytes".to_vec();
        let head = wire::encode_frame_header(wire::kind::REPLY_OK, 8).unwrap();
        conn.begin_reply(&env, Some(Ok(head)));
        assert_eq!(conn.want(), Want::Write);
        let deadline = conn.deadline(&env).expect("flush bound armed");
        assert!(
            deadline >= served + env.write_timeout,
            "compute time is uncharged"
        );
        assert_eq!(
            conn.on_readable(&env),
            Step::Idle,
            "no reads while replying"
        );
        assert_eq!(conn.check_deadline(&env, served), Step::Idle);
        assert_eq!(metrics.snapshot().connections_timed_out, 0);
    }

    #[test]
    fn completion_routes_ok_err_and_panic_to_the_right_replies() {
        // OK outcome → OK frame, requests_ok.
        let metrics = ServerMetrics::default();
        let transport = TransportStats::default();
        let env = env(&metrics, &transport);
        let mut conn = Conn::new(ScriptedStream::new(), Instant::now());
        let body = b"vo bytes".to_vec();
        let head = wire::encode_frame_header(wire::kind::REPLY_OK, body.len()).unwrap();
        *conn.reply_buf() = body;
        conn.begin_reply(&env, Some(Ok(head)));
        while conn.is_writing() {
            conn.on_writable(&env);
        }
        assert_eq!(metrics.snapshot().requests_ok, 1);
        assert_eq!(conn.want(), Want::Read, "connection survives");

        // TooLong outcome → UNREPRESENTABLE, connection survives; the
        // partial payload left in the buffer is not sent.
        conn.reply_buf().extend_from_slice(b"partial payload");
        let err = wire::WireError::TooLong {
            field: "entries",
            len: 99999,
            max: 65535,
        };
        conn.begin_reply(&env, Some(Err(err)));
        while conn.is_writing() {
            conn.on_writable(&env);
        }
        assert_eq!(metrics.snapshot().requests_err, 1);
        assert_eq!(conn.want(), Want::Read);

        // Panicked query (None) → INTERNAL, connection survives.
        conn.reply_buf().extend_from_slice(b"partial payload");
        conn.begin_reply(&env, None);
        while conn.is_writing() {
            conn.on_writable(&env);
        }
        assert_eq!(metrics.snapshot().requests_err, 2);
        assert_eq!(conn.want(), Want::Read);
        // The transcript holds OK + 2 error frames back to back.
        let mut rest: &[u8] = &conn.stream.written;
        let mut frames = Vec::new();
        while !rest.is_empty() {
            let head: [u8; 10] = rest[..10].try_into().unwrap();
            let (kind, len) = wire::decode_frame_header_any(&head).unwrap();
            let payload = &rest[wire::FRAME_HEADER_LEN..wire::FRAME_HEADER_LEN + len];
            let code = match wire::decode_reply_payload(kind, payload) {
                Ok(wire::Reply::Err { code, .. }) => Some(code),
                _ => None,
            };
            frames.push((kind, code));
            rest = &rest[wire::FRAME_HEADER_LEN + len..];
        }
        assert_eq!(
            frames,
            vec![
                (wire::kind::REPLY_OK, None),
                (wire::kind::REPLY_ERR, Some(wire::errcode::UNREPRESENTABLE)),
                (wire::kind::REPLY_ERR, Some(wire::errcode::INTERNAL))
            ]
        );
    }

    #[test]
    fn idle_deadline_expiry_evicts_with_timeout_frame() {
        let metrics = ServerMetrics::default();
        let transport = TransportStats::default();
        let mut e = env(&metrics, &transport);
        e.idle_deadline = Duration::from_millis(10);
        let mut conn = Conn::new(ScriptedStream::new(), Instant::now());
        let deadline = conn.deadline(&e).expect("read deadline armed");
        assert_eq!(
            conn.check_deadline(&e, deadline + Duration::from_millis(1)),
            Step::Idle,
            "eviction begins a TIMEOUT write, not an instant close"
        );
        assert_eq!(metrics.snapshot().connections_timed_out, 1);
        assert_eq!(conn.on_writable(&e), Step::Close, "close after the frame");
        let snap = metrics.snapshot();
        assert_eq!(
            snap.bytes_out,
            conn.stream.written.len() as u64,
            "eviction bytes counted only once flushed"
        );
        let reply = wire::decode_reply_payload(
            wire::kind::REPLY_ERR,
            &conn.stream.written[wire::FRAME_HEADER_LEN..],
        )
        .unwrap();
        match reply {
            wire::Reply::Err { code, message } => {
                assert_eq!(code, wire::errcode::TIMEOUT);
                assert!(message.contains("idle"), "{message}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn zero_idle_deadline_means_no_read_deadline() {
        let metrics = ServerMetrics::default();
        let transport = TransportStats::default();
        let mut e = env(&metrics, &transport);
        e.idle_deadline = Duration::ZERO;
        let conn = Conn::new(ScriptedStream::new(), Instant::now());
        assert!(conn.deadline(&e).is_none());
    }

    #[test]
    fn frame_budget_bounds_a_trickling_peer_even_with_fresh_bytes() {
        // The regression for the trickle-evasion bug: a peer feeding
        // one byte per almost-deadline keeps the gap clock fresh
        // forever, but the total frame budget still expires.
        let metrics = ServerMetrics::default();
        let transport = TransportStats::default();
        let mut e = env(&metrics, &transport);
        e.idle_deadline = Duration::from_millis(200);
        let mut stream = ScriptedStream::new();
        let frame = request_frame();
        stream.feed_chunked(&frame[..3], 1);
        let mut conn = Conn::new(stream, Instant::now());
        assert_eq!(conn.on_readable(&e), Step::Idle, "3 bytes in, parked");
        // Simulate "bytes keep arriving": last_byte is fresh, so the
        // gap deadline alone would never fire. The budget one must.
        conn.last_byte = Instant::now();
        let budget_expiry = conn.frame_start + frame_budget(e.idle_deadline, 10);
        let deadline = conn.deadline(&e).expect("armed");
        assert!(
            deadline <= budget_expiry,
            "deadline must be bounded by the total frame budget"
        );
        assert_eq!(
            conn.check_deadline(&e, budget_expiry + Duration::from_millis(1)),
            Step::Idle
        );
        assert_eq!(metrics.snapshot().connections_timed_out, 1);
    }

    #[test]
    fn stalled_ok_reply_counts_a_timed_out_connection() {
        let metrics = ServerMetrics::default();
        let transport = TransportStats::default();
        let env = env(&metrics, &transport);
        let body = vec![0u8; 64];
        let head = wire::encode_frame_header(wire::kind::REPLY_OK, body.len()).unwrap();
        let mut stream = ScriptedStream::new();
        stream.sip_writes(4, 1); // accepts 4 bytes, then WouldBlock forever
        let mut conn = Conn::new(stream, Instant::now());
        *conn.reply_buf() = body;
        conn.begin_reply(&env, Some(Ok(head)));
        assert_eq!(conn.on_writable(&env), Step::Idle, "partial, parked");
        let deadline = conn.deadline(&env).expect("write bound armed");
        assert_eq!(
            conn.check_deadline(&env, deadline + Duration::from_millis(1)),
            Step::Close
        );
        assert_eq!(metrics.snapshot().connections_timed_out, 1);
    }

    #[test]
    fn shed_connection_whose_fin_fails_closes_instead_of_draining() {
        // Regression: this error used to be swallowed, leaving a dead
        // peer parked in ShedDraining until the drain deadline.
        let metrics = ServerMetrics::default();
        let transport = TransportStats::default();
        let env = env(&metrics, &transport);
        let mut stream = ScriptedStream::new();
        stream.fail_shutdown = true;
        let mut conn = Conn::new_shed(stream, &super::super::busy_message(2), Instant::now());
        assert_eq!(
            conn.on_writable(&env),
            Step::Close,
            "a peer we cannot half-close must not occupy a drain slot"
        );
        assert!(!conn.stream.fin_sent);
        assert!(!conn.is_shedding(), "terminal, not draining");
    }

    #[test]
    fn shed_connection_writes_busy_then_fin_then_drains() {
        let metrics = ServerMetrics::default();
        let transport = TransportStats::default();
        let env = env(&metrics, &transport);
        let stream = ScriptedStream::new();
        let mut conn = Conn::new_shed(stream, &super::super::busy_message(2), Instant::now());
        assert!(conn.is_shedding());
        assert_eq!(conn.want(), Want::Write);
        assert_eq!(conn.on_writable(&env), Step::Idle, "BUSY flushed, draining");
        assert!(conn.stream.fin_sent, "FIN follows the BUSY frame");
        assert_eq!(conn.want(), Want::Read);
        let reply = wire::decode_reply_payload(
            wire::kind::REPLY_ERR,
            &conn.stream.written[wire::FRAME_HEADER_LEN..],
        )
        .unwrap();
        match reply {
            wire::Reply::Err { code, message } => {
                assert_eq!(code, wire::errcode::BUSY);
                assert!(message.contains("capacity"), "{message}");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            metrics.snapshot().bytes_out,
            conn.stream.written.len() as u64,
            "BUSY bytes counted on flush"
        );
        // Peer bytes arrive during the drain; then it closes.
        conn.stream.reads.push_back(vec![0u8; 100]);
        conn.stream.eof_after_reads = true;
        assert_eq!(conn.on_readable(&env), Step::Close);
        // Drain is bounded in time too.
        let mut conn2 = Conn::new_shed(ScriptedStream::new(), "busy", Instant::now());
        assert_eq!(conn2.on_writable(&env), Step::Idle);
        let gap = conn2.deadline(&env).expect("drain gap armed");
        assert_eq!(
            conn2.check_deadline(&env, gap + SHED_DRAIN_GAP),
            Step::Close
        );
    }

    #[test]
    fn pipelined_second_request_waits_until_reply_flushes() {
        // Two requests arrive back to back; the state machine must
        // consume exactly one, serve it, and only then read the next —
        // the one-request-at-a-time contract that keeps replies in
        // request order.
        let frame = request_frame();
        let mut both = frame.clone();
        both.extend_from_slice(&frame);
        let metrics = ServerMetrics::default();
        let transport = TransportStats::default();
        let env = env(&metrics, &transport);
        let mut stream = ScriptedStream::new();
        stream.feed_chunked(&both, 7);
        let mut conn = Conn::new(stream, Instant::now());
        assert!(matches!(conn.on_readable(&env), Step::Frame { .. }));
        let body = b"ok".to_vec();
        let head = wire::encode_frame_header(wire::kind::REPLY_OK, body.len()).unwrap();
        *conn.reply_buf() = body;
        conn.begin_reply(&env, Some(Ok(head)));
        assert_eq!(
            conn.on_readable(&env),
            Step::Idle,
            "no reads while replying"
        );
        assert_eq!(metrics.snapshot().bytes_in, frame.len() as u64);
        while conn.is_writing() {
            conn.on_writable(&env);
        }
        // Reply flushed; the buffered second request is now readable.
        assert!(matches!(conn.on_readable(&env), Step::Frame { .. }));
        assert_eq!(metrics.snapshot().bytes_in, 2 * frame.len() as u64);
    }
}
