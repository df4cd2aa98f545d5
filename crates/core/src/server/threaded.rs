//! The thread-per-connection transport core: a background acceptor
//! hands each admitted connection its own OS thread, which owns the
//! socket and does blocking framing I/O with a read-timeout poll tick.
//!
//! This is the portable fallback core (and the semantic reference the
//! reactor core is held byte-identical to): it needs nothing beyond
//! std's blocking sockets, at the cost of one thread — stack,
//! scheduler slot, and a poll-tick wakeup every
//! [`ServerConfig::poll_interval`](super::ServerConfig::poll_interval)
//! — per connection.

use super::{
    busy_message, effective_write_timeout, execute_job, frame_budget, idle_eviction_message,
    oversize_message, prepare_job, unrepresentable, QueryJob, Shared, MAX_REQUEST_PAYLOAD,
    MAX_SHED_HANDSHAKES, WORKER_FAILED,
};
use crate::pool::lock_recover;
use crate::wire;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// One live connection's registry slot: the monitoring socket clone
/// (for unblocking reads at shutdown) and the handler thread (for
/// joining; `None` briefly, between registration and spawn).
type ConnEntry = (TcpStream, Option<JoinHandle<()>>);

/// State shared by the acceptor and every connection thread.
struct ThreadedState {
    shared: Arc<Shared>,
    /// Live connections by id. Each handler removes its own entry as
    /// it exits, so an idle server holds no fds or join handles for
    /// past connections — the map's size tracks *live* connections
    /// only.
    connections: Mutex<std::collections::HashMap<u64, ConnEntry>>,
    /// Shed handshakes currently in flight (each owns a short-lived
    /// thread writing the BUSY frame); bounded by
    /// [`MAX_SHED_HANDSHAKES`] so a connect flood cannot turn the
    /// refusal path itself into a thread bomb.
    shedding: AtomicU64,
}

/// Shutdown machinery for the threaded core.
pub(super) struct ThreadedHandle {
    acceptor: Option<JoinHandle<()>>,
    state: Arc<ThreadedState>,
}

/// Spawn the acceptor; the caller has already bound the listener and
/// set the shutdown flag infrastructure up in `shared`.
pub(super) fn start(listener: TcpListener, shared: Arc<Shared>) -> io::Result<ThreadedHandle> {
    // Nonblocking accept is what lets shutdown interrupt the loop; if
    // the flag cannot be set, fail startup loudly rather than running
    // a server whose shutdown can hang.
    listener.set_nonblocking(true)?;
    let state = Arc::new(ThreadedState {
        shared,
        connections: Mutex::new(std::collections::HashMap::new()),
        shedding: AtomicU64::new(0),
    });
    let acceptor = {
        let state = Arc::clone(&state);
        std::thread::Builder::new()
            .name("authsearch-acceptor".into())
            .spawn(move || accept_loop(listener, state))?
    };
    Ok(ThreadedHandle {
        acceptor: Some(acceptor),
        state,
    })
}

impl ThreadedHandle {
    /// Stop accepting, unblock and join every connection thread, join
    /// the acceptor. The caller has already raised the shutdown flag.
    pub(super) fn shutdown(&mut self, addr: SocketAddr) {
        if self.acceptor.is_none() {
            return;
        }
        // Fast-path wakeup for the acceptor; purely an optimization —
        // the nonblocking accept loop re-checks the flag every poll
        // interval regardless, so a failed connect (fd exhaustion)
        // cannot hang shutdown.
        // lint:allow(swallowed-result): wake-up connect is best-effort by design (see comment above)
        let _ = TcpStream::connect(addr);
        if let Some(acceptor) = self.acceptor.take() {
            let joined = acceptor.join();
            debug_assert!(joined.is_ok(), "acceptor thread panicked");
        }
        // Graceful drain: close only the **read** side first. Blocked
        // readers wake with EOF (and the poll ticks observe the flag),
        // but a handler that already consumed a request keeps a working
        // write side, so its in-flight reply is delivered before the
        // join below — shutting down never swallows an answer the
        // server already owed.
        let connections = std::mem::take(&mut *lock_recover(&self.state.connections));
        for (stream, _) in connections.values() {
            // lint:allow(swallowed-result): the peer may already have closed; EOF reaches the handler either way
            let _ = stream.shutdown(Shutdown::Read);
        }
        for (_, (stream, handle)) in connections {
            if let Some(handle) = handle {
                let joined = handle.join();
                debug_assert!(joined.is_ok(), "connection handler panicked");
            }
            // lint:allow(swallowed-result): final hard close on a socket that may already be gone
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// Write `bytes` completely within a **total** budget of `bound`. The
/// socket's own write timeout caps any single stalled `write(2)`; the
/// elapsed check caps the sum, so a trickle-reading peer cannot stretch
/// one reply indefinitely by letting each call make token progress
/// (worst case ≈ `bound` plus one socket write timeout).
fn write_all_bounded(
    mut stream: &TcpStream,
    bytes: &[u8],
    bound: Duration,
    shared: &Shared,
) -> io::Result<()> {
    let start = std::time::Instant::now();
    let mut written = 0;
    while written < bytes.len() {
        if start.elapsed() >= bound {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "peer not draining its replies",
            ));
        }
        shared.transport.writes.fetch_add(1, Ordering::Relaxed);
        match stream.write(&bytes[written..]) {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "write returned 0")),
            Ok(n) => written += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Accept until shutdown; one OS thread per connection. The listener
/// runs **nonblocking** with a poll interval, so shutdown can never
/// hang on a blocked `accept` — the throwaway self-connect in shutdown
/// is only a fast path, not a correctness requirement (it can fail
/// under fd exhaustion, exactly when an operator is most likely to be
/// shutting the server down).
fn accept_loop(listener: TcpListener, state: Arc<ThreadedState>) {
    let shared = Arc::clone(&state.shared);
    let mut next_id = 0u64;
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        shared.transport.accepts.fetch_add(1, Ordering::Relaxed);
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) => {
                // WouldBlock is the idle tick; any other error (e.g.
                // EMFILE under fd exhaustion) also waits out the poll
                // interval — retrying immediately would spin a full
                // core exactly when the host is resource-starved.
                shared.transport.polls.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(shared.config.poll_interval);
                continue;
            }
        };
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // The listener's nonblocking flag is inherited by accepted
        // sockets on some platforms; connection I/O must block (with a
        // read timeout) instead. A socket stuck nonblocking would spin
        // its handler thread on WouldBlock, so refuse it outright.
        if stream.set_nonblocking(false).is_err() {
            continue;
        }
        // Admission: at the cap, shed this connection with a typed BUSY
        // reply instead of parking another thread on it. The registry
        // holds live connections only (handlers self-prune on exit), so
        // its size *is* the live count.
        let live = lock_recover(&state.connections).len();
        if shared.config.max_connections > 0 && live >= shared.config.max_connections {
            shed_connection(stream, &state);
            continue;
        }
        shared.metrics.connections.fetch_add(1, Ordering::Relaxed);
        let monitor = match stream.try_clone() {
            Ok(clone) => clone,
            Err(_) => continue,
        };
        let id = next_id;
        next_id += 1;
        // Register before spawning: the handler removes its own entry
        // when it exits, and removal of a not-yet-registered entry
        // would leak the monitor fd.
        {
            let mut connections = lock_recover(&state.connections);
            connections.insert(id, (monitor, None));
            shared
                .metrics
                .active_highwater
                .fetch_max(connections.len() as u64, Ordering::Relaxed);
        }
        let spawned = {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name(format!("authsearch-conn-{id}"))
                .spawn(move || handle_connection(stream, state, id))
        };
        let mut connections = lock_recover(&state.connections);
        match spawned {
            // The handler may already have finished and removed its
            // entry — only fill the slot if it is still present.
            Ok(handle) => {
                if let Some(entry) = connections.get_mut(&id) {
                    entry.1 = Some(handle);
                }
            }
            Err(_) => {
                connections.remove(&id);
            }
        }
    }
}

/// Refuse one over-cap connection: typed BUSY reply, FIN (not RST),
/// bounded drain, close. Runs on a detached short-lived thread so the
/// acceptor never blocks on a slow refused peer.
fn shed_connection(stream: TcpStream, state: &Arc<ThreadedState>) {
    let shared = &state.shared;
    shared
        .metrics
        .connections_shed
        .fetch_add(1, Ordering::Relaxed);
    let inflight = state.shedding.fetch_add(1, Ordering::AcqRel);
    if inflight >= MAX_SHED_HANDSHAKES {
        // Connect flood: the polite path is saturated; dropping is the
        // only shed that cannot be weaponized against the acceptor.
        state.shedding.fetch_sub(1, Ordering::AcqRel);
        return;
    }
    let outer = Arc::clone(state);
    let state = Arc::clone(state);
    let spawned = std::thread::Builder::new()
        .name("authsearch-shed".into())
        .spawn(move || {
            let shared = &state.shared;
            let message = busy_message(shared.config.max_connections);
            // lint:allow(swallowed-result): TCP_NODELAY is a latency knob; the BUSY frame is correct without it
            let _ = stream.set_nodelay(true);
            if stream
                .set_write_timeout(Some(Duration::from_millis(500)))
                .is_err()
            {
                // Without a write bound a dead peer could park this
                // shed thread forever; drop silently instead.
                return;
            }
            if let Ok(bytes) = wire::encode_err_reply(wire::errcode::BUSY, &message) {
                shared.transport.writes.fetch_add(1, Ordering::Relaxed);
                if (&stream).write_all(&bytes).is_ok() {
                    shared
                        .metrics
                        .bytes_out
                        .fetch_add(bytes.len() as u64, Ordering::Relaxed);
                }
            }
            // FIN first, then consume whatever request bytes are already
            // in our receive buffer: closing with unread data provokes
            // an RST on many stacks, which can wipe the BUSY frame out
            // of the peer's receive buffer before it is read. The drain
            // is bounded — a peer that keeps talking gets cut off.
            // lint:allow(swallowed-result): half-close on a socket the peer may already have reset
            let _ = stream.shutdown(Shutdown::Write);
            if stream
                .set_read_timeout(Some(Duration::from_millis(100)))
                .is_err()
            {
                // An unbounded drain read could block forever; skip the
                // polite drain (the BUSY frame and FIN are already out).
                return;
            }
            let mut sink = [0u8; 1024];
            for _ in 0..64 {
                match (&stream).read(&mut sink) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
            }
            state.shedding.fetch_sub(1, Ordering::AcqRel);
        });
    if spawned.is_err() {
        outer.shedding.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Serve one connection, then close the underlying socket explicitly —
/// the acceptor holds a monitoring clone of it (for shutdown
/// unblocking), so dropping our handle alone would leave the peer
/// waiting on a connection that is already dead.
fn handle_connection(stream: TcpStream, state: Arc<ThreadedState>, id: u64) {
    connection_loop(&stream, &state.shared);
    // lint:allow(swallowed-result): explicit close of a socket the peer may already have reset
    let _ = stream.shutdown(Shutdown::Both);
    // Self-prune: drop the monitor clone (and our registry slot) so an
    // idle server holds no resources for finished connections.
    lock_recover(&state.connections).remove(&id);
}

/// Why a [`read_full`] call stopped short of filling its buffer.
enum ReadAbort {
    /// EOF before the first byte: the peer closed cleanly between frames.
    CleanEof,
    /// No byte arrived within the idle deadline — the slow-loris shape
    /// (or a parked connection); the caller owes the peer a typed
    /// TIMEOUT reply before closing.
    IdleExpired,
    /// Server shutdown, mid-frame EOF, or a socket error; just close.
    Fatal,
}

/// Read frames and answer them until the peer hangs up, the bytes stop
/// making sense, the idle deadline expires, or the server shuts down.
/// Never panics on input.
fn connection_loop(stream: &TcpStream, shared: &Arc<Shared>) {
    // Both timeouts are non-optional: the read timeout is the shutdown
    // poll tick and the dribble clock, and a blocked `write` cannot be
    // interrupted, so without the write bound one non-draining peer
    // would hang the graceful shutdown (which waits for in-flight
    // replies). A socket that cannot be bounded is not served at all.
    if stream
        .set_read_timeout(Some(shared.config.poll_interval))
        .is_err()
    {
        return;
    }
    // Zero falls back to the default instead of meaning "unbounded".
    let write_timeout = effective_write_timeout(&shared.config);
    if stream.set_write_timeout(Some(write_timeout)).is_err() {
        return;
    }
    // lint:allow(swallowed-result): TCP_NODELAY is a latency knob; the connection is correct without it
    let _ = stream.set_nodelay(true);
    // The idle clock restarts at every received byte, so a legitimately
    // slow sender is never evicted mid-frame for link speed — but
    // per-gap resets alone would let a peer *dribble* one byte per
    // almost-deadline and stretch a frame indefinitely, so read_full
    // additionally enforces a total per-buffer budget (frame_budget: a
    // minimum average byte rate). It also restarts at every written
    // reply (below), so server compute time is never charged to the
    // peer's idle budget.
    let mut last_byte = std::time::Instant::now();
    loop {
        // Frame header (tolerating read-timeout ticks between frames).
        let mut header = [0u8; wire::FRAME_HEADER_LEN];
        match read_full(stream, &mut header, shared, &mut last_byte) {
            Ok(()) => {}
            Err(ReadAbort::CleanEof | ReadAbort::Fatal) => return,
            Err(ReadAbort::IdleExpired) => return evict_idle(stream, shared),
        }
        // Lenient header parse: magic, version, and payload length must
        // check out (without them the frame boundary is unknowable and
        // the connection must drop), but an *unknown kind* still has a
        // trustworthy length — its payload is consumed below and
        // `answer` turns it into a coded error reply, keeping the
        // connection alive for forward compatibility.
        let (kind, len) = match wire::decode_frame_header_any(&header) {
            Ok(parsed) => parsed,
            Err(e) => {
                // Un-synchronizable: reply if possible, then drop the
                // connection (we can no longer find frame boundaries).
                // lint:allow(swallowed-result): best-effort courtesy reply; the connection is dropped either way
                let _ = send_error_frame(stream, shared, wire::errcode::MALFORMED, &e.to_string());
                return;
            }
        };
        // Server-side request cap, far below the wire format's 64 MiB
        // frame cap (which replies legitimately need): the largest
        // encodable request is ~512 KiB of term pairs, so a bigger
        // declaration is either garbage or an attempt to size our
        // buffer — and consuming it would hand the dribble clock a
        // 64 Mi-byte frame to stretch. Refuse and drop.
        if len > MAX_REQUEST_PAYLOAD {
            // lint:allow(swallowed-result): best-effort courtesy reply; the connection is dropped either way
            let _ = send_error_frame(
                stream,
                shared,
                wire::errcode::MALFORMED,
                &oversize_message(len),
            );
            return;
        }
        let mut payload = vec![0u8; len];
        match read_full(stream, &mut payload, shared, &mut last_byte) {
            Ok(()) => {}
            // Mid-frame EOF: the peer died inside a frame; just close.
            Err(ReadAbort::CleanEof | ReadAbort::Fatal) => return,
            Err(ReadAbort::IdleExpired) => return evict_idle(stream, shared),
        }
        shared
            .metrics
            .bytes_in
            .fetch_add((wire::FRAME_HEADER_LEN + len) as u64, Ordering::Relaxed);
        let bytes = match answer(kind, &payload, shared) {
            Ok(bytes) => bytes,
            Err((code, message)) => {
                if send_error_frame(stream, shared, code, &message).is_err() {
                    return;
                }
                // Serving the (failed) request consumed wall-clock the
                // peer has no control over; don't charge it as idleness.
                last_byte = std::time::Instant::now();
                continue;
            }
        };
        shared
            .metrics
            .bytes_out
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        shared.metrics.requests_ok.fetch_add(1, Ordering::Relaxed);
        match write_all_bounded(stream, &bytes, write_timeout, shared) {
            Ok(()) => {}
            Err(e) => {
                if e.kind() == io::ErrorKind::TimedOut || e.kind() == io::ErrorKind::WouldBlock {
                    // A non-draining peer is the write-side slow loris;
                    // count the eviction (no frame can tell it so — the
                    // pipe is the problem).
                    shared
                        .metrics
                        .connections_timed_out
                        .fetch_add(1, Ordering::Relaxed);
                }
                return;
            }
        }
        // Restart the idle clock only after the reply has fully
        // drained: engine compute time AND our own (bounded) write time
        // are the server's wall-clock, not the peer's silence — its
        // next-request budget starts now.
        last_byte = std::time::Instant::now();
    }
}

/// Decode, validate, and execute one request on the persistent pool,
/// returning the encoded reply frame or an error `(code, message)`.
/// Validation, execution, encoding, and error mapping all go through
/// the helpers in [`super`] shared with the reactor core, so the two
/// cores reply byte-identically by construction.
fn answer(kind: u8, payload: &[u8], shared: &Arc<Shared>) -> Result<Vec<u8>, (u8, String)> {
    // Validate before spending engine time.
    let job: QueryJob = prepare_job(kind, payload, &shared.engine, shared.config.max_r)?;
    // Dispatch onto the persistent pool: connection threads do I/O,
    // pool workers do crypto. The channel observes completion; a
    // panicking worker drops the sender, which surfaces as a coded
    // internal error on this connection only.
    let (tx, rx) = mpsc::channel();
    let engine = Arc::clone(&shared.engine);
    shared.pool.submit(move || {
        let mut body = Vec::new();
        let bytes = execute_job(&engine, &job, &mut body).and_then(|reply_kind| {
            let header = wire::encode_frame_header(reply_kind, body.len())?;
            let mut frame = Vec::with_capacity(header.len() + body.len());
            frame.extend_from_slice(&header);
            frame.extend_from_slice(&body);
            Ok(frame)
        });
        // lint:allow(swallowed-result): a send error means the receiver gave up; recv() below reports that path
        let _ = tx.send(bytes);
    });
    match rx.recv() {
        Ok(Ok(bytes)) => Ok(bytes),
        Ok(Err(e)) => Err(unrepresentable(e)),
        Err(_) => Err((wire::errcode::INTERNAL, WORKER_FAILED.to_string())),
    }
}

fn send_error_frame(
    mut stream: &TcpStream,
    shared: &Arc<Shared>,
    code: u8,
    message: &str,
) -> io::Result<()> {
    shared.metrics.requests_err.fetch_add(1, Ordering::Relaxed);
    let bytes = wire::encode_err_reply(code, message)
        .expect("error replies are always representable (message truncated to u16)");
    shared
        .metrics
        .bytes_out
        .fetch_add(bytes.len() as u64, Ordering::Relaxed);
    shared.transport.writes.fetch_add(1, Ordering::Relaxed);
    stream.write_all(&bytes)
}

/// Fill `buf` completely, tolerating read-timeout ticks. At every tick
/// the shutdown flag, the per-gap idle deadline, and the total
/// [`frame_budget`] are re-checked — a peer that has sent nothing for
/// [`ServerConfig::idle_deadline`](super::ServerConfig::idle_deadline),
/// or is dribbling below the minimum frame rate, is reported as
/// [`ReadAbort::IdleExpired`] so the caller can answer it with a typed
/// TIMEOUT frame instead of holding the thread forever (the slow-loris
/// fix, both the silent and the trickling variant). `last_byte`
/// restarts at every received byte.
fn read_full(
    mut stream: &TcpStream,
    buf: &mut [u8],
    shared: &Arc<Shared>,
    last_byte: &mut std::time::Instant,
) -> Result<(), ReadAbort> {
    let started = std::time::Instant::now();
    let mut filled = 0;
    while filled < buf.len() {
        shared.transport.reads.fetch_add(1, Ordering::Relaxed);
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if filled == 0 {
                    ReadAbort::CleanEof
                } else {
                    ReadAbort::Fatal // peer closed mid-frame
                });
            }
            Ok(n) => {
                filled += n;
                *last_byte = std::time::Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                shared.transport.polls.fetch_add(1, Ordering::Relaxed);
                if shared.shutdown.load(Ordering::Acquire) {
                    return Err(ReadAbort::Fatal);
                }
                // A zero deadline disables eviction (0 = unlimited,
                // like `max_connections`), not "evict instantly".
                let deadline = shared.config.idle_deadline;
                if !deadline.is_zero()
                    && (last_byte.elapsed() >= deadline
                        || started.elapsed() >= frame_budget(deadline, buf.len()))
                {
                    return Err(ReadAbort::IdleExpired);
                }
            }
            Err(_) => return Err(ReadAbort::Fatal),
        }
    }
    Ok(())
}

/// Evict a peer that outlived the idle deadline: typed TIMEOUT reply
/// (best effort — the write side has its own timeout), then the caller
/// closes the socket. Shed with an answer, never a silent RST. Counted
/// as a timed-out *connection*, not a request error — no request was
/// ever completed.
fn evict_idle(mut stream: &TcpStream, shared: &Arc<Shared>) {
    shared
        .metrics
        .connections_timed_out
        .fetch_add(1, Ordering::Relaxed);
    let bytes = wire::encode_err_reply(
        wire::errcode::TIMEOUT,
        &idle_eviction_message(shared.config.idle_deadline),
    )
    .expect("error replies are always representable");
    shared.transport.writes.fetch_add(1, Ordering::Relaxed);
    if stream.write_all(&bytes).is_ok() {
        shared
            .metrics
            .bytes_out
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
    }
}
