//! The event-driven transport core: one thread, one `epoll` instance,
//! every connection a [`Conn`] state machine.
//!
//! The loop owns three kinds of registrations: the listener (accept
//! readiness), the [`Waker`] (pool completions and shutdown), and one
//! per connection (interest derived from the state machine's
//! [`Want`]). Deadlines — idle gaps, total frame budgets, reply flush
//! bounds, shed drains — live in a [`TimerWheel`] keyed by connection
//! id and epoch; entries are never deleted, just outlived: a fired
//! entry whose epoch is stale, or whose connection's real deadline has
//! moved later, is dropped or re-armed. The result is that an *idle*
//! connection costs nothing per poll tick — no thread, no stack, no
//! per-connection syscall — which is what lets one loop hold 10k+
//! parked peers (`tests/server_reactor.rs` smoke-tests this,
//! env-scaled for small CI containers).
//!
//! Query execution still happens on the engine's persistent pool: a
//! complete request is decoded on the loop, dispatched with
//! [`super::execute_job`], and the encoded reply (or its error) comes
//! back through a completion queue + waker. A `threads = 1` deployment
//! degenerates exactly like the threaded core: `submit` runs the job
//! inline and the completion is queued before `submit` returns.

use super::conn::{Conn, ConnEnv, ConnStream, EncodedReply, Step, Want};
use super::{busy_message, effective_write_timeout, execute_job, prepare_job, Shared};
use crate::pool::lock_recover;
use crate::reactor::{Events, Interest, Poll, TimerEntry, TimerWheel, Token, Waker};
use crate::wire;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Token of the accept listener.
const TOKEN_LISTENER: Token = Token(0);
/// Token of the waker's read half.
const TOKEN_WAKER: Token = Token(1);
/// Connection ids start here; `Token(id)` for a connection is its id
/// (ids are never reused, so a late event for a closed connection
/// simply misses the map).
const FIRST_CONN_ID: u64 = 2;
/// Timer-wheel id of the "resume the paused listener" entry.
const LISTENER_TIMER_ID: u64 = u64::MAX;

/// A finished (or failed, or panicked) pool job for one connection.
struct Completion {
    conn_id: u64,
    /// `Some(Ok)` = encoded header + body; `Some(Err)` = response not
    /// representable; `None` = the worker panicked.
    result: Option<EncodedReply>,
}

/// State shared between the loop thread, pool workers, and the
/// shutdown path.
struct ReactorInner {
    waker: Waker,
    completions: Mutex<VecDeque<Completion>>,
}

/// Delivers exactly one completion for a dispatched job — through
/// [`CompletionGuard::deliver`] on success, or through `Drop` when the
/// job panics (the pool catches the unwind; this guard is what turns
/// that into an INTERNAL reply instead of a connection parked forever
/// in `Dispatched`).
struct CompletionGuard {
    inner: Arc<ReactorInner>,
    conn_id: u64,
    delivered: bool,
}

impl CompletionGuard {
    fn deliver(&mut self, result: Option<EncodedReply>) {
        if self.delivered {
            return;
        }
        self.delivered = true;
        lock_recover(&self.inner.completions).push_back(Completion {
            conn_id: self.conn_id,
            result,
        });
        self.inner.waker.wake();
    }
}

impl Drop for CompletionGuard {
    fn drop(&mut self) {
        self.deliver(None);
    }
}

/// Shutdown machinery for the reactor core.
pub(super) struct ReactorHandle {
    thread: Option<JoinHandle<()>>,
    inner: Arc<ReactorInner>,
}

impl ReactorHandle {
    /// Wake the loop (the caller has already raised the shutdown flag)
    /// and wait for it to drain in-flight replies and exit.
    pub(super) fn shutdown(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.inner.waker.wake();
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
    let poll = Poll::new()?;
    let waker = Waker::new()?;
    poll.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)?;
    poll.register(waker.fd(), TOKEN_WAKER, Interest::READABLE)?;
    let inner = Arc::new(ReactorInner {
        waker,
        completions: Mutex::new(VecDeque::new()),
    });
    let thread = {
        let inner = Arc::clone(&inner);
        std::thread::Builder::new()
            .name("authsearch-reactor".into())
            .spawn(move || {
                let mut event_loop = EventLoop::new(poll, listener, shared, inner);
                event_loop.run();
            })?
    };
    Ok(ReactorHandle {
        thread: Some(thread),
        inner,
    })
}

/// One registered connection: the state machine plus the loop-side
/// bookkeeping the machine itself doesn't need to know about.
struct Slot {
    conn: Conn<TcpStream>,
    fd: RawFd,
    /// Interest currently registered with epoll (re-registered only on
    /// change).
    interest: Interest,
    /// The instant the currently-armed wheel entry targets, if any.
    armed_until: Option<Instant>,
    /// Whether this is a shed handshake (counted against the shed
    /// budget, not the admission registry).
    shed: bool,
}

struct EventLoop {
    poll: Poll,
    /// `None` once shutdown begins (dropping it closes + deregisters).
    listener: Option<TcpListener>,
    shared: Arc<Shared>,
    inner: Arc<ReactorInner>,
    conns: HashMap<u64, Slot>,
    next_id: u64,
    wheel: TimerWheel,
    /// Set while the listener is deaf after an accept error (EMFILE);
    /// a wheel entry re-enables it.
    listener_paused: bool,
    /// Live admitted connections — the reactor's equivalent of the
    /// threaded core's registry size, and the value the admission cap
    /// and `active_highwater` are checked against.
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
    fn new(
        poll: Poll,
        listener: TcpListener,
        shared: Arc<Shared>,
        inner: Arc<ReactorInner>,
    ) -> EventLoop {
        let tick = shared.config.poll_interval;
        EventLoop {
            poll,
            listener: Some(listener),
            shared,
            inner,
            conns: HashMap::new(),
            next_id: FIRST_CONN_ID,
            wheel: TimerWheel::new(512, tick),
            listener_paused: false,
            admitted: 0,
            shed_live: 0,
            shutting_down: false,
        }
    }

    fn run(&mut self) {
        let mut events = Events::with_capacity(1024);
        let mut expired: Vec<TimerEntry> = Vec::new();
        loop {
            if self.shared.shutdown.load(Ordering::Acquire) && !self.shutting_down {
                self.begin_shutdown();
            }
            if self.shutting_down && self.conns.is_empty() {
                return;
            }
            let now = Instant::now();
            let mut timeout = self.wheel.next_timeout(now);
            if self.shutting_down {
                // Safety net: re-sweep at the poll interval while
                // draining, so a missed edge cannot park shutdown.
                let cap = self.shared.config.poll_interval;
                timeout = Some(timeout.map_or(cap, |t| t.min(cap)));
            }
            self.shared.transport.polls.fetch_add(1, Ordering::Relaxed);
            match self.poll.poll(&mut events, timeout) {
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // A broken poll fd cannot be recovered from inside
                    // the loop; sleep one interval to avoid spinning
                    // and re-check the shutdown flag.
                    // lint:allow(blocking-in-reactor): deliberate back-off on an unrecoverable poll fd; nothing else can make progress
                    std::thread::sleep(self.shared.config.poll_interval);
                    continue;
                }
            }
            let mut accept_ready = false;
            let mut woken = false;
            let mut ready_conns: Vec<u64> = Vec::new();
            for event in events.iter() {
                match event.token() {
                    TOKEN_LISTENER => accept_ready = true,
                    TOKEN_WAKER => woken = true,
                    Token(id) => ready_conns.push(id),
                }
            }
            if woken {
                self.inner.waker.drain();
            }
            // Completions first: they turn Dispatched connections into
            // Writing ones whose replies flush this same round.
            self.drain_completions();
            for id in ready_conns {
                self.conn_event(id);
            }
            if accept_ready {
                self.accept_ready();
            }
            // Timers last, so a byte that arrived this round pushes its
            // connection's deadline before the expiry check sees it.
            expired.clear();
            self.wheel.advance(Instant::now(), &mut expired);
            for entry in expired.drain(..) {
                self.timer_fired(entry);
            }
            if self.shared.shutdown.load(Ordering::Acquire) && !self.shutting_down {
                self.begin_shutdown();
            }
            if self.shutting_down {
                self.shutdown_sweep();
            }
        }
    }

    /// Stop accepting and close every connection that is not owed a
    /// reply (threaded parity: blocked readers see the flag and close;
    /// handlers mid-compute or mid-write finish and deliver).
    fn begin_shutdown(&mut self) {
        self.shutting_down = true;
        // Dropping the listener closes its fd, which deregisters it.
        self.listener = None;
    }

    /// During shutdown: reap connections that have drifted back to a
    /// reading state (their owed replies are flushed).
    fn shutdown_sweep(&mut self) {
        let doomed: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, slot)| !slot.conn.is_dispatched() && !slot.conn.is_writing())
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
                    // EMFILE and friends: go deaf for one poll interval
                    // instead of spinning on a resource-starved host
                    // (the threaded core sleeps here; the loop must
                    // not, so it parks the listener on the wheel).
                    self.pause_listener();
                    return;
                }
            }
        }
    }

    fn pause_listener(&mut self) {
        if self.listener_paused {
            return;
        }
        if let Some(listener) = self.listener.as_ref() {
            if self
                .poll
                .reregister(listener.as_raw_fd(), TOKEN_LISTENER, Interest::NONE)
                .is_ok()
            {
                self.listener_paused = true;
                self.wheel.insert(
                    Instant::now() + self.shared.config.poll_interval,
                    TimerEntry {
                        id: LISTENER_TIMER_ID,
                        epoch: 0,
                    },
                );
            }
        }
    }

    fn resume_listener(&mut self) {
        if !self.listener_paused {
            return;
        }
        if let Some(listener) = self.listener.as_ref() {
            if self
                .poll
                .reregister(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)
                .is_err()
            {
                // Stay paused: a failed re-arm would otherwise leave
                // the listener permanently deaf. The next close_conn
                // retries through this same path.
                return;
            }
        }
        self.listener_paused = false;
        self.accept_ready();
    }

    /// One accepted socket: admit it as a connection, or shed it with
    /// a BUSY handshake (silently under a connect flood), with the
    /// same counter order as the threaded acceptor.
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
        let _ = stream.set_nodelay(shared.config.nodelay);
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

    /// Readiness (or error/hangup) for one connection.
    fn conn_event(&mut self, id: u64) {
        let Some(slot) = self.conns.get(&id) else {
            return; // stale event for an id already closed
        };
        if slot.conn.is_dispatched() {
            // Deliberately ignored: the threaded core also finishes
            // computing before discovering a dead peer, which is what
            // keeps `requests_ok` identical across cores. The write
            // after completion will surface the hangup.
            return;
        }
        self.pump(id);
    }

    /// Drive one connection's state machine as far as it will go
    /// without blocking, then settle its registration and deadline.
    fn pump(&mut self, id: u64) {
        let shared = Arc::clone(&self.shared);
        let env = conn_env(&shared);
        loop {
            let Some(slot) = self.conns.get_mut(&id) else {
                return;
            };
            match slot.conn.want() {
                Want::Read => match slot.conn.on_readable(&env) {
                    Step::Idle => {
                        if matches!(slot.conn.want(), Want::Read) {
                            break;
                        }
                        // An error reply began (bad header / oversize):
                        // keep pumping to flush it.
                    }
                    Step::Close => return self.close_conn(id),
                    Step::Frame { kind } => self.frame_ready(id, kind, &env),
                },
                Want::Write => match slot.conn.on_writable(&env) {
                    Step::Idle => {
                        if slot.conn.is_writing() {
                            break; // socket full; wait for writable
                        }
                        // Flushed into a new state; keep pumping (the
                        // next pipelined request may be buffered).
                    }
                    Step::Close => return self.close_conn(id),
                    Step::Frame { .. } => break,
                },
                Want::None => break,
            }
        }
        self.settle(id, &env);
    }

    /// A complete request frame: decode + validate on the loop, then
    /// either dispatch to the pool or begin the coded error reply.
    fn frame_ready(&mut self, id: u64, kind: u8, env: &ConnEnv<'_>) {
        let shared = Arc::clone(&self.shared);
        let Some(slot) = self.conns.get_mut(&id) else {
            return;
        };
        match prepare_job(
            kind,
            slot.conn.request(),
            &shared.engine,
            shared.config.max_r,
        ) {
            Ok(job) => {
                let mut buf = slot.conn.take_reply_buf();
                slot.conn.begin_dispatch();
                let engine = Arc::clone(&shared.engine);
                let inner = Arc::clone(&self.inner);
                shared.pool.submit(move || {
                    let mut guard = CompletionGuard {
                        inner,
                        conn_id: id,
                        delivered: false,
                    };
                    let result = execute_job(&engine, &job, &mut buf)
                        .and_then(|reply_kind| wire::encode_frame_header(reply_kind, buf.len()))
                        .map(|head| (head, std::mem::take(&mut buf)));
                    guard.deliver(Some(result));
                });
            }
            Err((code, message)) => {
                slot.conn.begin_request_error(env, code, &message);
            }
        }
    }

    /// Apply queued pool completions and flush the replies they carry.
    fn drain_completions(&mut self) {
        loop {
            let completion = lock_recover(&self.inner.completions).pop_front();
            let Some(completion) = completion else {
                return;
            };
            let shared = Arc::clone(&self.shared);
            let env = conn_env(&shared);
            let Some(slot) = self.conns.get_mut(&completion.conn_id) else {
                continue; // connection closed at shutdown; drop the reply
            };
            match slot.conn.on_completion(&env, completion.result) {
                Step::Close => self.close_conn(completion.conn_id),
                _ => self.pump(completion.conn_id),
            }
        }
    }

    /// A wheel entry came due: listener resume, or a connection
    /// deadline candidate (re-armed if the real deadline moved).
    fn timer_fired(&mut self, entry: TimerEntry) {
        if entry.id == LISTENER_TIMER_ID {
            self.resume_listener();
            return;
        }
        let shared = Arc::clone(&self.shared);
        let env = conn_env(&shared);
        let Some(slot) = self.conns.get_mut(&entry.id) else {
            return;
        };
        if entry.epoch != slot.conn.timer_epoch {
            return; // superseded by a newer arming
        }
        slot.armed_until = None;
        match slot.conn.check_deadline(&env, Instant::now()) {
            Step::Close => self.close_conn(entry.id),
            // Either nothing due (deadline moved — settle re-arms) or
            // an eviction reply began (pump flushes it).
            _ => self.pump(entry.id),
        }
    }

    /// Reconcile one connection's epoll interest and wheel entry with
    /// its state machine's current wants.
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
        match slot.conn.deadline(env) {
            None => {
                // No deadline wanted (dispatched); any armed entry goes
                // stale via the epoch check.
                if slot.armed_until.take().is_some() {
                    slot.conn.timer_epoch += 1;
                }
            }
            Some(deadline) => {
                // Keep a later-armed entry: when it fires early the
                // check re-arms. Only arm anew when nothing is armed or
                // the deadline moved *earlier* than the armed entry.
                let needs_arm = match slot.armed_until {
                    None => true,
                    Some(armed) => deadline < armed,
                };
                if needs_arm {
                    slot.conn.timer_epoch += 1;
                    let entry = TimerEntry {
                        id,
                        epoch: slot.conn.timer_epoch,
                    };
                    self.wheel.insert(deadline, entry);
                    slot.armed_until = Some(deadline);
                }
            }
        }
    }

    /// Remove and drop one connection (closing the socket deregisters
    /// it); wheel entries go stale and liveness counters roll back.
    fn close_conn(&mut self, id: u64) {
        if let Some(slot) = self.conns.remove(&id) {
            // lint:allow(swallowed-result): dropping the socket closes the fd, which deregisters it implicitly
            let _ = self.poll.deregister(slot.fd);
            if slot.shed {
                self.shed_live = self.shed_live.saturating_sub(1);
            } else {
                self.admitted = self.admitted.saturating_sub(1);
            }
        }
    }
}

/// Map a state machine's [`Want`] onto an epoll [`Interest`].
fn want_interest(want: Want) -> Interest {
    match want {
        Want::Read => Interest::READABLE,
        Want::Write => Interest::WRITABLE,
        Want::None => Interest::NONE,
    }
}

// Quiet the unused-import lint on ConnStream: the trait is used via
// the Conn<TcpStream> methods' bounds.
#[allow(unused)]
fn _assert_tcp_is_conn_stream<T: ConnStream>() {}
