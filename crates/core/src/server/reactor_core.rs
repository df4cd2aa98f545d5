//! The transport core: one thread, one [`Poll`] (epoll on Linux,
//! `poll(2)` on other Unix), every connection a [`Conn`] state
//! machine.
//!
//! The loop owns three kinds of registrations: the listener (accept
//! readiness), the [`Waker`] (shutdown), and one per connection
//! (interest derived from the state machine's [`Want`]). Deadlines — idle gaps, total frame budgets, reply flush
//! bounds, shed drains — live in one [`BinaryHeap`] of
//! `(instant, connection id)`, at most one live entry per connection:
//! a connection arms only when nothing is armed or its deadline moved
//! earlier, and an entry that fires early finds nothing due and
//! re-arms at the real deadline. Entries are never deleted, just
//! outlived: one whose connection is gone or re-armed is dropped when
//! it is popped. The result is that an *idle*
//! connection costs no thread, no stack and no per-connection syscall
//! per tick — on epoll not even a per-wait cost — which is what lets
//! one loop hold 10k+ parked peers (`tests/server_reactor.rs`
//! smoke-tests this, env-scaled for small CI containers).
//!
//! Every query runs to completion on the loop thread, the paper's
//! sequential engine behind a socket: a complete request is decoded,
//! served with [`super::execute_job`] and its reply begun in the same
//! pump (`answer`, which is also the panic boundary). A pump serves at
//! most one request, so connections take turns: a pipelining peer gets
//! one query per poll round, and accepts, timers and the shutdown check
//! run between rounds. No part of a reply leaves the loop thread.

use super::conn::{Conn, ConnEnv, Step, Want};
use super::{busy_message, effective_write_timeout, execute_job, prepare_job, Shared};
use crate::reactor::{Events, Interest, Poll, Token, Waker};
use crate::wire::{self, WireError};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Token of the accept listener.
const TOKEN_LISTENER: Token = Token(0);
/// Token of the waker's read half.
const TOKEN_WAKER: Token = Token(1);
/// Connection ids start here; `Token(id)` for a connection is its id
/// (ids are never reused, so a late event for a closed connection
/// simply misses the map).
const FIRST_CONN_ID: u64 = 2;
/// How long the listener goes deaf after an accept error, how long a
/// broken poll backs off, and how often shutdown re-sweeps while it
/// drains.
const BACKOFF: Duration = Duration::from_millis(50);

/// Shutdown machinery for the reactor core.
pub(super) struct ReactorHandle {
    thread: Option<JoinHandle<()>>,
    waker: Arc<Waker>,
}

impl ReactorHandle {
    /// Wake the loop (the caller has already raised the shutdown flag)
    /// and wait for it to drain in-flight replies and exit.
    pub(super) fn shutdown(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.waker.wake();
            // lint:allow(blocking-in-reactor): shutdown runs on the caller's thread after the loop exits, never inside it
            let joined = thread.join();
            debug_assert!(joined.is_ok(), "reactor thread panicked");
        }
    }
}

/// Build the poll + waker (propagating setup errors to `Server::start`)
/// and spawn the loop thread.
pub(super) fn start(listener: TcpListener, shared: Arc<Shared>) -> io::Result<ReactorHandle> {
    listener.set_nonblocking(true)?;
    let mut poll = Poll::new()?;
    let waker = Arc::new(Waker::new()?);
    poll.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)?;
    poll.register(waker.fd(), TOKEN_WAKER, Interest::READABLE)?;
    let thread = {
        let waker = Arc::clone(&waker);
        std::thread::Builder::new()
            .name("authsearch-reactor".into())
            .spawn(move || {
                let mut event_loop = EventLoop::new(poll, listener, shared, waker);
                event_loop.run();
            })?
    };
    Ok(ReactorHandle {
        thread: Some(thread),
        waker,
    })
}

/// One registered connection: the state machine plus the loop-side
/// bookkeeping the machine itself doesn't need to know about.
struct Slot {
    conn: Conn<TcpStream>,
    fd: RawFd,
    /// Interest currently registered with the poll (re-registered only
    /// on change).
    interest: Interest,
    /// The instant of this connection's live heap entry, if any.
    armed_until: Option<Instant>,
    /// Whether this is a shed handshake (counted against the shed
    /// budget, not the admission registry).
    shed: bool,
}

struct EventLoop {
    poll: Poll,
    /// `None` once shutdown begins (deregistered, then closed).
    listener: Option<TcpListener>,
    shared: Arc<Shared>,
    waker: Arc<Waker>,
    conns: HashMap<u64, Slot>,
    next_id: u64,
    /// Connection deadlines, earliest first. An entry is live only
    /// while its connection's `armed_until` names its instant; any
    /// other entry was outlived and is dropped when popped.
    timers: BinaryHeap<Reverse<(Instant, u64)>>,
    /// While the listener is deaf after an accept error (EMFILE): when
    /// to re-enable it.
    listener_resume_at: Option<Instant>,
    /// Live admitted connections: the value the admission cap and
    /// `active_highwater` are checked against.
    admitted: u64,
    /// Live shed handshakes, bounded by
    /// [`super::MAX_SHED_HANDSHAKES`].
    shed_live: u64,
    shutting_down: bool,
}

/// Borrow the [`ConnEnv`] out of the shared state (a free function so
/// the borrow is scoped to a local clone of the `Arc`, not to the
/// whole event loop).
fn conn_env(shared: &Shared) -> ConnEnv<'_> {
    ConnEnv {
        metrics: &shared.metrics,
        transport: &shared.transport,
        idle_deadline: shared.config.idle_deadline,
        write_timeout: effective_write_timeout(&shared.config),
    }
}

impl EventLoop {
    fn new(poll: Poll, listener: TcpListener, shared: Arc<Shared>, waker: Arc<Waker>) -> EventLoop {
        EventLoop {
            poll,
            listener: Some(listener),
            shared,
            waker,
            conns: HashMap::new(),
            next_id: FIRST_CONN_ID,
            timers: BinaryHeap::new(),
            listener_resume_at: None,
            admitted: 0,
            shed_live: 0,
            shutting_down: false,
        }
    }

    fn run(&mut self) {
        let mut events = Events::with_capacity(1024);
        let mut ready_conns: Vec<u64> = Vec::new();
        loop {
            if self.shared.shutdown.load(Ordering::Acquire) && !self.shutting_down {
                self.begin_shutdown();
            }
            if self.shutting_down && self.conns.is_empty() {
                return;
            }
            let now = Instant::now();
            // Sleep until the next deadline or the listener's resume;
            // while draining, also re-sweep every BACKOFF so a missed
            // edge cannot park shutdown.
            let sweep = now.checked_add(BACKOFF).filter(|_| self.shutting_down);
            let next_deadline = self.timers.peek().map(|&Reverse((at, _))| at);
            let wake = [next_deadline, self.listener_resume_at, sweep]
                .into_iter()
                .flatten()
                .min();
            let timeout = wake.map(|at| at.saturating_duration_since(now));
            self.shared.transport.polls.fetch_add(1, Ordering::Relaxed);
            match self.poll.poll(&mut events, timeout) {
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // A broken poll fd cannot be recovered from inside
                    // the loop; back off to avoid spinning and re-check
                    // the shutdown flag.
                    // lint:allow(blocking-in-reactor): deliberate back-off on an unrecoverable poll fd; nothing else can make progress
                    std::thread::sleep(BACKOFF);
                    continue;
                }
            }
            let mut accept_ready = false;
            let mut woken = false;
            for event in events.iter() {
                match event.token() {
                    TOKEN_LISTENER => accept_ready = true,
                    TOKEN_WAKER => woken = true,
                    Token(id) => ready_conns.push(id),
                }
            }
            if woken {
                self.waker.drain();
            }
            for id in ready_conns.drain(..) {
                self.pump(id);
            }
            if accept_ready {
                self.accept_ready();
            }
            // Timers last, so a byte that arrived this round pushes its
            // connection's deadline before the expiry check sees it.
            self.fire_timers(Instant::now());
            if self.shared.shutdown.load(Ordering::Acquire) && !self.shutting_down {
                self.begin_shutdown();
            }
            if self.shutting_down {
                self.shutdown_sweep();
            }
            self.shared
                .transport
                .timers
                .store(self.timers.len() as u64, Ordering::Relaxed);
        }
    }

    /// Stop accepting and close every connection that is not owed a
    /// reply: idle readers close at the next sweep; connections
    /// mid-write finish and deliver first.
    fn begin_shutdown(&mut self) {
        self.shutting_down = true;
        if let Some(listener) = self.listener.take() {
            // Deregister before the drop closes the fd: poll(2) would
            // otherwise keep the closed fd and wake on POLLNVAL forever.
            // lint:allow(swallowed-result): the listener is being closed either way; a failed deregister leaves nothing to undo
            let _ = self.poll.deregister(listener.as_raw_fd());
        }
    }

    /// During shutdown: reap connections that have drifted back to a
    /// reading state (their owed replies are flushed).
    fn shutdown_sweep(&mut self) {
        let doomed: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, slot)| !slot.conn.is_writing())
            .map(|(id, _)| *id)
            .collect();
        for id in doomed {
            self.close_conn(id);
        }
    }

    /// The listener is readable: accept (and admit or shed) until it
    /// runs dry.
    fn accept_ready(&mut self) {
        loop {
            if self.shutting_down {
                return;
            }
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            self.shared
                .transport
                .accepts
                .fetch_add(1, Ordering::Relaxed);
            match listener.accept() {
                Ok((stream, _peer)) => self.admit(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => {
                    // EMFILE and friends: go deaf for one BACKOFF
                    // instead of spinning on a resource-starved host
                    // (the loop must not sleep, so it only stops
                    // asking for accept readiness).
                    self.pause_listener();
                    return;
                }
            }
        }
    }

    fn pause_listener(&mut self) {
        if self.listener_resume_at.is_some() {
            return;
        }
        if let Some(listener) = self.listener.as_ref() {
            if self
                .poll
                .reregister(listener.as_raw_fd(), TOKEN_LISTENER, Interest::NONE)
                .is_ok()
            {
                self.listener_resume_at = Instant::now().checked_add(BACKOFF);
            }
        }
    }

    fn resume_listener(&mut self) {
        if let Some(listener) = self.listener.as_ref() {
            if self
                .poll
                .reregister(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)
                .is_err()
            {
                // Stay paused and retry one BACKOFF later, rather than
                // leave the listener permanently deaf.
                self.listener_resume_at = Instant::now().checked_add(BACKOFF);
                return;
            }
        }
        self.listener_resume_at = None;
        self.accept_ready();
    }

    /// One accepted socket: admit it as a connection, or shed it with
    /// a BUSY handshake (silently under a connect flood). Counters move
    /// before any byte is written: `connections_shed` for every refusal,
    /// `connections` and `active_highwater` for every admission.
    fn admit(&mut self, stream: TcpStream) {
        let shared = Arc::clone(&self.shared);
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let max = shared.config.max_connections;
        if max > 0 && self.admitted >= max as u64 {
            shared
                .metrics
                .connections_shed
                .fetch_add(1, Ordering::Relaxed);
            if self.shed_live >= super::MAX_SHED_HANDSHAKES {
                // Connect flood: the polite path is saturated; dropping
                // is the only shed that cannot be weaponized.
                return;
            }
            // lint:allow(swallowed-result): TCP_NODELAY is a latency knob; a shed handshake works without it
            let _ = stream.set_nodelay(true);
            let fd = stream.as_raw_fd();
            let conn = Conn::new_shed(stream, &busy_message(max), Instant::now());
            self.shed_live += 1;
            self.install(conn, fd, true);
            return;
        }
        shared.metrics.connections.fetch_add(1, Ordering::Relaxed);
        // lint:allow(swallowed-result): TCP_NODELAY is a latency knob; the connection is correct without it
        let _ = stream.set_nodelay(true);
        let fd = stream.as_raw_fd();
        let conn = Conn::new(stream, Instant::now());
        self.admitted += 1;
        shared
            .metrics
            .active_highwater
            .fetch_max(self.admitted, Ordering::Relaxed);
        self.install(conn, fd, false);
    }

    /// Register a new connection and give it one optimistic pump (its
    /// first bytes may already be buffered; for a shed, the BUSY frame
    /// almost always flushes right here).
    fn install(&mut self, conn: Conn<TcpStream>, fd: RawFd, shed: bool) {
        let id = self.next_id;
        self.next_id += 1;
        let interest = want_interest(conn.want());
        if self.poll.register(fd, Token(id), interest).is_err() {
            // Registration failure: undo the liveness accounting (the
            // `connections`/`connections_shed` counters stand — the
            // connection did arrive) and drop the socket.
            if shed {
                self.shed_live = self.shed_live.saturating_sub(1);
            } else {
                self.admitted = self.admitted.saturating_sub(1);
            }
            return;
        }
        self.conns.insert(
            id,
            Slot {
                conn,
                fd,
                interest,
                armed_until: None,
                shed,
            },
        );
        self.pump(id);
    }

    /// Readiness (or error/hangup) for one connection: drive its state
    /// machine as far as it will go without blocking, then settle its
    /// registration and deadline. A stale id (already closed) is a
    /// no-op.
    ///
    /// At most one request is served per pump: once a frame is answered
    /// and its reply flushed, the pump settles instead of reading the
    /// next one, so a peer that pipelines without pause cannot hold the
    /// loop from other connections, accepts, timers or shutdown.
    /// Registration is level-triggered and `on_readable` never reads
    /// past the current frame, so requests still queued in the socket
    /// are reported again at the next poll.
    fn pump(&mut self, id: u64) {
        let shared = Arc::clone(&self.shared);
        let env = conn_env(&shared);
        let mut served = false;
        loop {
            let Some(slot) = self.conns.get_mut(&id) else {
                return;
            };
            match slot.conn.want() {
                Want::Read if served => break,
                Want::Read => match slot.conn.on_readable(&env) {
                    Step::Idle => {
                        if matches!(slot.conn.want(), Want::Read) {
                            break;
                        }
                        // An error reply began (bad header / oversize):
                        // keep pumping to flush it.
                    }
                    Step::Close => return self.close_conn(id),
                    Step::Frame { kind } => {
                        self.frame_ready(id, kind, &env);
                        served = true;
                    }
                },
                Want::Write => match slot.conn.on_writable(&env) {
                    Step::Idle => {
                        if slot.conn.is_writing() {
                            break; // socket full; wait for writable
                        }
                        // Flushed into a new state: a closed connection
                        // is dropped, a shed drains, and a served one
                        // waits for the next poll.
                    }
                    Step::Close => return self.close_conn(id),
                    Step::Frame { .. } => break,
                },
                Want::None => return self.close_conn(id),
            }
        }
        self.settle(id, &env);
    }

    /// A complete request frame: decode and validate it, serve it to
    /// completion right here, and begin its reply (or the coded error
    /// reply) in the same pump.
    fn frame_ready(&mut self, id: u64, kind: u8, env: &ConnEnv<'_>) {
        let shared = Arc::clone(&self.shared);
        let Some(slot) = self.conns.get_mut(&id) else {
            return;
        };
        let engine = &shared.engine;
        match prepare_job(kind, slot.conn.request(), engine, shared.config.max_r) {
            Ok(job) => answer(&mut slot.conn, env, |body| execute_job(engine, &job, body)),
            Err((code, message)) => slot.conn.begin_request_error(env, code, &message),
        }
    }

    /// Resume a paused listener whose pause is over, then pop every
    /// heap entry due at `now`. A live entry is a deadline candidate:
    /// the connection's real deadline may have moved later, in which
    /// case nothing is due and `settle` re-arms.
    fn fire_timers(&mut self, now: Instant) {
        if self.listener_resume_at.is_some_and(|at| at <= now) {
            self.resume_listener();
        }
        while let Some(&Reverse((at, id))) = self.timers.peek() {
            if at > now {
                return;
            }
            self.timers.pop();
            let shared = Arc::clone(&self.shared);
            let env = conn_env(&shared);
            let Some(slot) = self.conns.get_mut(&id) else {
                continue; // the connection closed meanwhile
            };
            if slot.armed_until != Some(at) {
                continue; // superseded by an earlier arming
            }
            slot.armed_until = None;
            match slot.conn.check_deadline(&env, now) {
                Step::Close => self.close_conn(id),
                // Either nothing due (deadline moved — settle re-arms)
                // or an eviction reply began (pump flushes it).
                _ => self.pump(id),
            }
        }
    }

    /// Reconcile one connection's registered interest and heap entry
    /// with its state machine's current wants.
    fn settle(&mut self, id: u64, env: &ConnEnv<'_>) {
        let Some(slot) = self.conns.get_mut(&id) else {
            return;
        };
        let desired = want_interest(slot.conn.want());
        if desired != slot.interest {
            if self.poll.reregister(slot.fd, Token(id), desired).is_err() {
                return self.close_conn(id);
            }
            slot.interest = desired;
        }
        // Arm only when nothing is armed or the deadline moved earlier.
        // A later deadline (a byte arrived, a reply flushed) or none at
        // all keeps the armed entry, which finds nothing due when it
        // fires; so steady serving pushes nothing per query.
        if let Some(deadline) = slot.conn.deadline(env) {
            if slot.armed_until.is_none_or(|armed| deadline < armed) {
                self.timers.push(Reverse((deadline, id)));
                slot.armed_until = Some(deadline);
            }
        }
    }

    /// Deregister, then drop (close) one connection; its heap entry
    /// goes stale and liveness counters roll back.
    fn close_conn(&mut self, id: u64) {
        if let Some(slot) = self.conns.remove(&id) {
            // lint:allow(swallowed-result): the socket is closed next either way; a failed deregister leaves nothing to undo
            let _ = self.poll.deregister(slot.fd);
            if slot.shed {
                self.shed_live = self.shed_live.saturating_sub(1);
            } else {
                self.admitted = self.admitted.saturating_sub(1);
            }
        }
    }
}

/// Serve one query to completion on the loop thread and begin its
/// reply on `conn`: `serve` encodes the reply payload into the
/// connection's reply buffer and returns its frame kind. This is the
/// panic boundary, because the loop is the only thread a panicking query
/// can reach: the query is answered with an INTERNAL reply, and the
/// connection and the loop serve on.
fn answer(
    conn: &mut Conn<TcpStream>,
    env: &ConnEnv<'_>,
    serve: impl FnOnce(&mut Vec<u8>) -> Result<u8, WireError>,
) {
    let body = conn.reply_buf();
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        serve(body).and_then(|kind| wire::encode_frame_header(kind, body.len()))
    }));
    conn.begin_reply(env, outcome.ok());
}

/// Map a state machine's [`Want`] onto a poll [`Interest`].
fn want_interest(want: Want) -> Interest {
    match want {
        Want::Read => Interest::READABLE,
        Want::Write => Interest::WRITABLE,
        Want::None => Interest::NONE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{ServerMetrics, TransportStats};
    use crate::server::tests::{read_reply, test_engine};
    use crate::server::{Server, ServerConfig, DEFAULT_IDLE_DEADLINE, DEFAULT_WRITE_TIMEOUT};
    use crate::vo::Mechanism;
    use crate::wire::{Reply, Request};
    use std::io::{Read, Write};
    use std::net::Shutdown;
    use std::sync::atomic::{AtomicBool, AtomicU64};

    #[test]
    fn a_panicking_query_gets_an_internal_reply_and_serving_goes_on() {
        let (engine, _) = test_engine(Mechanism::TnraCmht);
        let metrics = ServerMetrics::default();
        let transport = TransportStats::default();
        let env = ConnEnv {
            metrics: &metrics,
            transport: &transport,
            idle_deadline: DEFAULT_IDLE_DEADLINE,
            write_timeout: DEFAULT_WRITE_TIMEOUT,
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let accept = || {
            let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (stream, _) = listener.accept().unwrap();
            (Conn::new(stream, Instant::now()), peer)
        };
        let (mut a, mut peer_a) = accept();
        let (mut b, mut peer_b) = accept();
        let request = Request::Text {
            text: "night keeper".into(),
            r: 2,
        }
        .encode_frame()
        .unwrap();
        // One request from the peer, served through `answer`, flushed
        // and read back; `panics` makes the query panic mid-encode.
        let roundtrip = |conn: &mut Conn<TcpStream>, peer: &mut TcpStream, panics: bool| {
            peer.write_all(&request).unwrap();
            let Step::Frame { kind } = conn.on_readable(&env) else {
                panic!("the request frame is buffered");
            };
            let job = prepare_job(kind, conn.request(), &engine, 16).unwrap();
            answer(conn, &env, |body| {
                body.extend_from_slice(b"partial");
                assert!(!panics, "query failure");
                execute_job(&engine, &job, body)
            });
            while conn.is_writing() {
                assert_eq!(conn.on_writable(&env), Step::Idle);
            }
            read_reply(peer)
        };

        match roundtrip(&mut a, &mut peer_a, true) {
            Reply::Err { code, message } => {
                assert_eq!(code, wire::errcode::INTERNAL);
                assert_eq!(message, super::super::WORKER_FAILED);
            }
            other => panic!("expected INTERNAL, got {other:?}"),
        }
        // The same connection serves its next request, and so does
        // another one.
        assert!(matches!(
            roundtrip(&mut a, &mut peer_a, false),
            Reply::Ok { .. }
        ));
        assert!(matches!(
            roundtrip(&mut b, &mut peer_b, false),
            Reply::Ok { .. }
        ));
        let snap = metrics.snapshot();
        assert_eq!((snap.requests_ok, snap.requests_err), (2, 1));
    }

    #[test]
    fn a_pipelining_peer_cannot_starve_other_connections() {
        let (engine, _) = test_engine(Mechanism::TnraCmht);
        let config = ServerConfig {
            idle_deadline: Duration::from_millis(300),
            ..ServerConfig::default()
        };
        let handle = Server::start(engine, "127.0.0.1:0", config).unwrap();
        let request = Request::Text {
            text: "night keeper".into(),
            r: 2,
        }
        .encode_frame()
        .unwrap();
        // Peer A writes requests 64 at a time without pause and drains
        // its replies, so a request is always queued behind the one
        // being served.
        let flooder = TcpStream::connect(handle.addr()).unwrap();
        let (stop, replied) = (
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicU64::new(0)),
        );
        let writer = {
            let (mut stream, stop) = (flooder.try_clone().unwrap(), Arc::clone(&stop));
            let batch = request.repeat(64);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) && stream.write_all(&batch).is_ok() {}
            })
        };
        let reader = {
            let (mut stream, replied) = (flooder.try_clone().unwrap(), Arc::clone(&replied));
            std::thread::spawn(move || {
                let mut buf = [0u8; 1 << 16];
                while let Ok(n @ 1..) = stream.read(&mut buf) {
                    replied.fetch_add(n as u64, Ordering::Relaxed);
                }
            })
        };
        let flood_began = Instant::now();
        while replied.load(Ordering::Relaxed) == 0 && flood_began.elapsed() < Duration::from_secs(5)
        {
            std::thread::sleep(Duration::from_millis(1));
        }

        // Under the flood, peer B's one request is answered and silent
        // peer C is evicted, each within the 5 s read timeout. Neither
        // check panics before the flood stops, so a starved loop fails
        // the test instead of hanging it.
        let mut silent = TcpStream::connect(handle.addr()).unwrap();
        let mut single = TcpStream::connect(handle.addr()).unwrap();
        for stream in [&silent, &single] {
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
        }
        single.write_all(&request).unwrap();
        let head = |stream: &mut TcpStream| {
            let mut header = [0u8; wire::FRAME_HEADER_LEN];
            stream.read_exact(&mut header)?;
            Ok::<_, io::Error>(wire::decode_frame_header(&header).map(|(kind, _)| kind))
        };
        let answered = head(&mut single);
        let evicted = head(&mut silent);
        stop.store(true, Ordering::Relaxed);
        flooder.shutdown(Shutdown::Both).unwrap();
        writer.join().unwrap();
        reader.join().unwrap();

        assert!(replied.load(Ordering::Relaxed) > 0, "the flood was served");
        let answered = answered.expect("B's request is answered during the flood");
        assert_eq!(answered, Ok(wire::kind::REPLY_OK));
        let evicted = evicted.expect("C is evicted during the flood");
        assert_eq!(
            evicted,
            Ok(wire::kind::REPLY_ERR),
            "C gets the TIMEOUT frame"
        );
        handle.shutdown();
    }
}
