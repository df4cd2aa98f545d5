//! Minimal readiness reactor — a hand-rolled `mio` subset, std-only.
//!
//! No async runtime or I/O crate exists in this build environment, so
//! the event-driven server ([`crate::server`]) carries its own
//! readiness layer: [`Poll`] drives the platform's readiness syscall
//! through direct C-ABI declarations (the symbols are in the libc that
//! `std` already links — no new dependency), [`Token`] and
//! [`Interest`] mirror their `mio` namesakes, [`Waker`] provides the
//! cross-thread wakeup fd that lets pool workers and `shutdown()`
//! interrupt a blocked [`Poll::poll`]. Deadlines are not kept here:
//! the event loop holds them in a heap and passes the earliest as the
//! [`Poll::poll`] timeout.
//!
//! **Backends.** One surface ([`Poll`], [`Events`], [`Interest`],
//! [`Event`], [`Waker`]), two build-time backends, exactly one per
//! platform:
//!
//! * **`epoll`** on Linux: the kernel keeps the interest set, so one
//!   wait costs the same whether 3 or 4,000 idle sockets are
//!   registered. This is what lets one loop park thousands of idle
//!   connections.
//! * **`poll(2)`** on every other Unix: the registration set is a
//!   userspace `pollfd` array plus tokens, handed to the kernel on every
//!   wait, so one call costs O(registered fds). A zero-timeout wait over
//!   N idle socketpairs on a 2-vCPU x86-64 Xeon Linux VM: `poll(2)`
//!   0.20 µs at N = 3, 3.3 µs at 200, 25.6 µs at 1,000 and 220 µs at
//!   4,000; `epoll_wait` 0.12 µs at every N. That is why it is not used
//!   where epoll exists.
//!
//! Registration methods take `&mut self` on both backends (the poll
//! backend edits its `pollfd` array; the event loop owns its `Poll`
//! anyway). The `poll(2)` backend is also compiled into Linux test
//! builds, so the unit tests below run every case against both.
//!
//! Registration is **level-triggered**: a socket with unread bytes (or
//! writable space) is reported on every [`Poll::poll`] until the
//! condition clears. The connection state machine therefore never
//! needs to drain-to-`WouldBlock` for correctness, only for
//! efficiency, which keeps its partial-read/partial-write logic easy
//! to verify — the property the 1-byte-at-a-time fuzz tests in
//! `server/conn.rs` pin down. An [`Event`] carries only its token: the
//! event loop learns what happened (bytes, EOF, an error) from the
//! connection's next read or write. Errors and hangups (`EPOLLERR`,
//! `EPOLLHUP`; `POLLERR`, `POLLHUP`, and `POLLNVAL` for a registered fd
//! that was closed) are always reported, whatever the interest.

use std::io;
use std::os::raw::c_int;
use std::os::unix::net::UnixStream;
use std::time::Instant;

#[cfg(target_os = "linux")]
pub(crate) use epoll::Poll;
#[cfg(not(target_os = "linux"))]
pub(crate) use poll_set::Poll;

/// Backend-neutral interest bits.
const READ: u8 = 0x1;
const WRITE: u8 = 0x2;

/// Caller-chosen identifier attached to a registration and echoed back
/// in every [`Event`] for that fd.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct Token(pub u64);

/// Which readiness conditions a registration subscribes to. An empty
/// interest keeps the fd registered (errors and hangups are always
/// reported) but delivers no read/write readiness — the state the
/// server parks a connection in while its query runs on the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interest {
    bits: u8,
}

impl Interest {
    /// No readiness subscription (errors/hangups still delivered).
    pub(crate) const NONE: Interest = Interest { bits: 0 };
    /// Readable readiness (includes peer half-close).
    pub(crate) const READABLE: Interest = Interest { bits: READ };
    /// Writable readiness.
    pub(crate) const WRITABLE: Interest = Interest { bits: WRITE };

    /// Whether this interest includes readable readiness.
    pub(crate) fn is_readable(self) -> bool {
        self.bits & READ != 0
    }

    /// Whether this interest includes writable readiness.
    pub(crate) fn is_writable(self) -> bool {
        self.bits & WRITE != 0
    }
}

/// One readiness notification from [`Poll::poll`]: the fd registered
/// under this token is readable, writable, at EOF or in error.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    token: Token,
}

impl Event {
    /// The token the ready fd was registered with.
    pub(crate) fn token(&self) -> Token {
        self.token
    }
}

/// Reusable buffer of readiness events for [`Poll::poll`].
pub(crate) struct Events {
    list: Vec<Event>,
    capacity: usize,
}

impl Events {
    /// An event buffer receiving at most `capacity` events per poll,
    /// clamped to `[1, 4096]` — a bigger batch per wait buys nothing,
    /// and the clamp keeps the preallocation bounded.
    // lint:allow(unclamped-prealloc): this is the definition, not a call — the body clamps the operator-chosen capacity to [1, 4096] on the next line
    pub(crate) fn with_capacity(capacity: usize) -> Events {
        let capacity = capacity.clamp(1, 4096);
        Events {
            list: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Events delivered by the most recent [`Poll::poll`].
    pub(crate) fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.list.iter().copied()
    }
}

/// The wait syscalls' timeout argument for `deadline`: milliseconds
/// left (`-1` = forever), rounded **up** so a wait never spins on a
/// sub-millisecond remainder, with far-future deadlines clamped to a
/// day.
fn timeout_ms(deadline: Option<Instant>) -> c_int {
    let Some(d) = deadline else {
        return -1;
    };
    let left = d.saturating_duration_since(Instant::now());
    let ms = left
        .as_millis()
        .saturating_add(u128::from(left.as_nanos() % 1_000_000 != 0));
    c_int::try_from(ms.min(86_400_000)).unwrap_or(c_int::MAX)
}

/// After a wait syscall failed: `Ok(true)` to retry an `EINTR` with
/// time left (the caller re-derives the timeout from `deadline`),
/// `Ok(false)` when the deadline passed meanwhile (zero events), and
/// the error otherwise — so callers never see spurious wakeups or
/// errors from signals.
fn retry_interrupted(deadline: Option<Instant>) -> io::Result<bool> {
    let err = io::Error::last_os_error();
    if err.kind() != io::ErrorKind::Interrupted {
        return Err(err);
    }
    Ok(deadline.is_none_or(|d| Instant::now() < d))
}

/// The Linux backend: an `epoll` instance holds the interest set.
#[cfg(target_os = "linux")]
mod epoll {
    use super::{retry_interrupted, timeout_ms, Event, Events, Interest, Token};
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::c_int;
    use std::time::{Duration, Instant};

    /// One `struct epoll_event`, ABI-compatible with the kernel's. On
    /// x86-64 the kernel declares it packed (a 12-byte struct); other
    /// architectures use natural alignment.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    // The epoll syscall wrappers from the libc that std links. Declared
    // by hand because no `libc` crate exists in this image; signatures
    // match epoll_create1(2), epoll_ctl(2), epoll_wait(2), close(2).
    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLRDHUP: u32 = 0x2000;

    /// Readable interest subscribes to peer half-close (`EPOLLRDHUP`)
    /// too, so a FIN wakes a reader even with no bytes behind it.
    fn epoll_bits(interest: Interest) -> u32 {
        let mut bits = 0;
        if interest.is_readable() {
            bits |= EPOLLIN | EPOLLRDHUP;
        }
        if interest.is_writable() {
            bits |= EPOLLOUT;
        }
        bits
    }

    /// An `epoll` instance: register fds with a [`Token`] and an
    /// [`Interest`], then [`Poll::poll`] for readiness.
    pub(crate) struct Poll {
        epfd: RawFd,
        /// Kernel-format landing buffer for `epoll_wait`, translated
        /// into the caller's [`Events`] after each wait.
        raw: Vec<EpollEvent>,
    }

    impl Poll {
        /// Create a new epoll instance (`EPOLL_CLOEXEC`).
        pub(crate) fn new() -> io::Result<Poll> {
            // SAFETY: epoll_create1 takes a flags word and returns an fd
            // or -1; no pointers cross the boundary.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poll {
                epfd,
                raw: Vec::new(),
            })
        }

        fn ctl(&self, op: c_int, fd: RawFd, interest: Interest, token: Token) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: epoll_bits(interest),
                data: token.0,
            };
            // SAFETY: `ev` outlives the call; the kernel copies it
            // before returning. For EPOLL_CTL_DEL the kernel ignores the
            // pointer (passing a valid one keeps pre-2.6.9 semantics
            // happy anyway).
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Start watching `fd` (level-triggered) under `token`.
        pub(crate) fn register(
            &mut self,
            fd: RawFd,
            token: Token,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, interest, token)
        }

        /// Change an existing registration's interest (and/or token).
        pub(crate) fn reregister(
            &mut self,
            fd: RawFd,
            token: Token,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, interest, token)
        }

        /// Stop watching `fd`. Deregister before closing: only epoll
        /// forgets a closed fd on its own.
        pub(crate) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, Interest::NONE, Token(0))
        }

        /// Block until at least one registered fd is ready, `timeout`
        /// elapses (`None` = forever), or a [`super::Waker`] fires.
        /// Returns the number of events written into `events`.
        pub(crate) fn poll(
            &mut self,
            events: &mut Events,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            events.list.clear();
            self.raw
                .resize(events.capacity, EpollEvent { events: 0, data: 0 });
            let max = c_int::try_from(self.raw.len()).unwrap_or(c_int::MAX);
            let deadline = timeout.map(|t| Instant::now() + t);
            let n = loop {
                // SAFETY: the buffer holds `raw.len()` initialized
                // EpollEvent slots and `max` never exceeds it.
                let rc = unsafe {
                    epoll_wait(self.epfd, self.raw.as_mut_ptr(), max, timeout_ms(deadline))
                };
                if rc < 0 {
                    if retry_interrupted(deadline)? {
                        continue;
                    }
                    break 0;
                }
                break usize::try_from(rc).unwrap_or(0);
            };
            events.list.extend(self.raw.iter().take(n).map(|ev| {
                // Copy out of the (potentially packed) struct before use.
                let data = ev.data;
                Event { token: Token(data) }
            }));
            Ok(events.list.len())
        }
    }

    impl Drop for Poll {
        fn drop(&mut self) {
            // SAFETY: we own the fd and drop it exactly once; no other
            // wrapper closes it, so the descriptor cannot be reused by a
            // concurrent open between here and the syscall.
            let rc = unsafe { close(self.epfd) };
            debug_assert!(
                rc == 0,
                "close(epfd {}) failed: {}",
                self.epfd,
                io::Error::last_os_error()
            );
        }
    }
}

/// The portable backend: a userspace `pollfd` set handed to `poll(2)`
/// on every wait. Compiled into Linux test builds as well, so its unit
/// tests run where CI does.
#[cfg(any(test, not(target_os = "linux")))]
mod poll_set {
    use super::{retry_interrupted, timeout_ms, Event, Events, Interest, Token};
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::{c_int, c_short};
    use std::time::{Duration, Instant};

    /// One `struct pollfd`; identical layout on every Unix.
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    /// `nfds_t` is `unsigned long` on these libcs and `unsigned int` on
    /// the BSDs, macOS and Android.
    #[cfg(any(target_os = "linux", target_os = "solaris", target_os = "illumos"))]
    type NfdsT = std::os::raw::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "solaris", target_os = "illumos")))]
    type NfdsT = std::os::raw::c_uint;

    // poll(2) from the libc that std links, declared by hand like the
    // epoll family (no `libc` crate in this image).
    extern "C" {
        #[link_name = "poll"]
        fn poll_fds(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
    }

    // The same values on Linux, macOS, the BSDs and illumos.
    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;

    /// There is no `POLLRDHUP` off Linux: a peer half-close arrives as
    /// `POLLIN` (the read returns EOF), so readable interest is
    /// `POLLIN` alone.
    fn poll_bits(interest: Interest) -> c_short {
        let mut bits = 0;
        if interest.is_readable() {
            bits |= POLLIN;
        }
        if interest.is_writable() {
            bits |= POLLOUT;
        }
        bits
    }

    fn not_registered() -> io::Error {
        io::Error::new(io::ErrorKind::NotFound, "fd is not registered")
    }

    /// A `poll(2)` registration set: register fds with a [`Token`] and
    /// an [`Interest`], then [`Poll::poll`] for readiness.
    pub(crate) struct Poll {
        /// The set handed to the kernel; `tokens` runs parallel to it.
        fds: Vec<PollFd>,
        tokens: Vec<Token>,
    }

    impl Poll {
        /// An empty registration set (no kernel object to create).
        pub(crate) fn new() -> io::Result<Poll> {
            Ok(Poll {
                fds: Vec::new(),
                tokens: Vec::new(),
            })
        }

        /// The registration for `fd`. A linear scan: every wait already
        /// costs O(registered fds), so an index would not change the
        /// backend's order.
        fn entry(&mut self, fd: RawFd) -> io::Result<(&mut PollFd, &mut Token)> {
            self.fds
                .iter_mut()
                .zip(self.tokens.iter_mut())
                .find(|(p, _)| p.fd == fd)
                .ok_or_else(not_registered)
        }

        /// Start watching `fd` (level-triggered) under `token`.
        pub(crate) fn register(
            &mut self,
            fd: RawFd,
            token: Token,
            interest: Interest,
        ) -> io::Result<()> {
            if self.fds.iter().any(|p| p.fd == fd) {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "fd is already registered",
                ));
            }
            self.fds.push(PollFd {
                fd,
                events: poll_bits(interest),
                revents: 0,
            });
            self.tokens.push(token);
            Ok(())
        }

        /// Change an existing registration's interest (and/or token).
        pub(crate) fn reregister(
            &mut self,
            fd: RawFd,
            token: Token,
            interest: Interest,
        ) -> io::Result<()> {
            let (entry, slot) = self.entry(fd)?;
            entry.events = poll_bits(interest);
            *slot = token;
            Ok(())
        }

        /// Stop watching `fd`. Deregister before closing: `poll(2)`
        /// keeps a closed fd in the set and reports `POLLNVAL` for it on
        /// every wait.
        pub(crate) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            let at = self
                .fds
                .iter()
                .position(|p| p.fd == fd)
                .ok_or_else(not_registered)?;
            self.fds.swap_remove(at);
            self.tokens.swap_remove(at);
            Ok(())
        }

        /// Block until at least one registered fd is ready, `timeout`
        /// elapses (`None` = forever), or a [`super::Waker`] fires.
        /// Returns the number of events written into `events`.
        pub(crate) fn poll(
            &mut self,
            events: &mut Events,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            events.list.clear();
            let nfds = NfdsT::try_from(self.fds.len())
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "too many fds"))?;
            let deadline = timeout.map(|t| Instant::now() + t);
            let n = loop {
                // SAFETY: `fds` holds exactly `nfds` initialized pollfd
                // structs; the kernel writes only their `revents` fields.
                let rc = unsafe { poll_fds(self.fds.as_mut_ptr(), nfds, timeout_ms(deadline)) };
                if rc < 0 {
                    if retry_interrupted(deadline)? {
                        continue;
                    }
                    break 0;
                }
                break usize::try_from(rc).unwrap_or(0);
            };
            // `n` counts the entries with nonzero `revents`; stop the
            // scan once they are all found (or the buffer is full).
            let ready = self
                .fds
                .iter()
                .zip(&self.tokens)
                .filter(|(p, _)| p.revents != 0)
                .take(n.min(events.capacity));
            events.list.extend(ready.map(|(_, &token)| Event { token }));
            Ok(events.list.len())
        }
    }
}

/// Cross-thread wakeup for a blocked [`Poll::poll`].
///
/// Implemented over a nonblocking `UnixStream` pair instead of an
/// `eventfd` so it is the same on every backend and the only raw
/// syscalls in this module are the readiness family: the read half is
/// registered with the poll (readable interest) and [`Waker::wake`]
/// writes one byte into the write half from any thread. Wakes coalesce
/// — a full pipe means a wake is already pending, which is exactly the
/// semantic wanted.
pub(crate) struct Waker {
    /// Write half; `wake()` is `&self` and the socket write is atomic
    /// for one byte, so clones of the Arc'd waker can fire concurrently.
    tx: UnixStream,
    /// Read half, registered with the poll; `drain()` empties it.
    rx: UnixStream,
}

impl Waker {
    /// Build a waker from a fresh nonblocking socketpair.
    pub(crate) fn new() -> io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker { tx, rx })
    }

    /// The fd to register with the poll under the waker's token.
    pub(crate) fn fd(&self) -> std::os::fd::RawFd {
        use std::os::fd::AsRawFd;
        self.rx.as_raw_fd()
    }

    /// Make the owning poll's next (or current) `poll` call return.
    /// Never blocks: a full pipe already guarantees a pending wake.
    pub(crate) fn wake(&self) {
        use std::io::Write;
        let _ = (&self.tx).write(&[1u8]);
    }

    /// Consume pending wake bytes so level-triggered readiness clears.
    pub(crate) fn drain(&self) {
        use std::io::Read;
        let mut sink = [0u8; 64];
        loop {
            match (&self.rx).read(&mut sink) {
                Ok(0) | Err(_) => return,
                Ok(_) => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    /// Run `$body` once per backend in this build, with `$poll` a fresh
    /// instance of it and `$backend` its name for failure messages:
    /// epoll and `poll(2)` on Linux, `poll(2)` alone elsewhere.
    macro_rules! each_backend {
        (|$poll:ident, $backend:ident| $body:block) => {{
            #[cfg(target_os = "linux")]
            {
                let $backend = "epoll";
                let mut $poll = epoll::Poll::new().unwrap();
                $body
            }
            {
                let $backend = "poll";
                let mut $poll = poll_set::Poll::new().unwrap();
                $body
            }
        }};
    }

    #[test]
    fn poll_reports_readable_unix_stream() {
        each_backend!(|poll, backend| {
            let (a, b) = UnixStream::pair().unwrap();
            b.set_nonblocking(true).unwrap();
            poll.register(b.as_raw_fd(), Token(7), Interest::READABLE)
                .unwrap();
            let mut events = Events::with_capacity(8);
            // Nothing to read yet: a short poll times out empty.
            let n = poll
                .poll(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert_eq!(n, 0, "{backend}");
            assert_eq!(events.iter().count(), 0, "{backend}");
            (&a).write_all(b"x").unwrap();
            let n = poll
                .poll(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(n, 1, "{backend}");
            let ev = events.iter().next().unwrap();
            assert_eq!(ev.token(), Token(7), "{backend}");
            let mut byte = [0u8; 1];
            (&b).read_exact(&mut byte).unwrap();
            assert_eq!(&byte, b"x", "{backend}");
        });
    }

    #[test]
    fn reregister_changes_interest() {
        each_backend!(|poll, backend| {
            let (a, b) = UnixStream::pair().unwrap();
            b.set_nonblocking(true).unwrap();
            (&a).write_all(b"y").unwrap();
            poll.register(b.as_raw_fd(), Token(1), Interest::NONE)
                .unwrap();
            let mut events = Events::with_capacity(4);
            // Interest NONE: pending bytes do not wake the poll.
            let n = poll
                .poll(&mut events, Some(Duration::from_millis(20)))
                .unwrap();
            assert_eq!(n, 0, "{backend}: empty interest must not deliver readable");
            poll.reregister(b.as_raw_fd(), Token(2), Interest::READABLE)
                .unwrap();
            let n = poll
                .poll(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(n, 1, "{backend}");
            assert_eq!(events.iter().next().unwrap().token(), Token(2), "{backend}");
            // Level-triggered: still reported until drained.
            let n = poll
                .poll(&mut events, Some(Duration::from_millis(20)))
                .unwrap();
            assert_eq!(
                n, 1,
                "{backend}: level-triggered readiness persists until read"
            );
            poll.deregister(b.as_raw_fd()).unwrap();
            let n = poll
                .poll(&mut events, Some(Duration::from_millis(20)))
                .unwrap();
            assert_eq!(n, 0, "{backend}: deregistered fd delivers nothing");
            assert!(
                poll.deregister(b.as_raw_fd()).is_err(),
                "{backend}: a second deregister is refused"
            );
        });
    }

    #[test]
    fn waker_wakes_a_blocked_poll_and_coalesces() {
        each_backend!(|poll, backend| {
            let waker = std::sync::Arc::new(Waker::new().unwrap());
            poll.register(waker.fd(), Token(0), Interest::READABLE)
                .unwrap();
            let mut events = Events::with_capacity(4);
            let w = std::sync::Arc::clone(&waker);
            let t = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                // Many wakes from another thread coalesce into >= 1 event.
                for _ in 0..1000 {
                    w.wake();
                }
            });
            let n = poll
                .poll(&mut events, Some(Duration::from_secs(10)))
                .unwrap();
            assert_eq!(n, 1, "{backend}");
            assert_eq!(events.iter().next().unwrap().token(), Token(0), "{backend}");
            t.join().unwrap();
            waker.drain();
            let n = poll
                .poll(&mut events, Some(Duration::from_millis(20)))
                .unwrap();
            assert_eq!(n, 0, "{backend}: drained waker is quiet");
        });
    }

    #[test]
    fn poll_timeout_rounds_up_not_down() {
        each_backend!(|poll, backend| {
            let mut events = Events::with_capacity(1);
            let start = Instant::now();
            let n = poll
                .poll(&mut events, Some(Duration::from_micros(1500)))
                .unwrap();
            assert_eq!(n, 0, "{backend}");
            // 1.5ms rounds up to 2ms, never down to 1ms-and-spin.
            assert!(start.elapsed() >= Duration::from_millis(1), "{backend}");
        });
    }

    #[test]
    fn peer_half_close_is_reported_readable() {
        // Off Linux there is no POLLRDHUP: the FIN must still wake a
        // reader (as POLLIN), so the state machine reads the EOF.
        each_backend!(|poll, backend| {
            let (a, b) = UnixStream::pair().unwrap();
            b.set_nonblocking(true).unwrap();
            poll.register(b.as_raw_fd(), Token(3), Interest::READABLE)
                .unwrap();
            a.shutdown(std::net::Shutdown::Write).unwrap();
            let mut events = Events::with_capacity(4);
            let n = poll
                .poll(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(n, 1, "{backend}");
            let ev = events.iter().next().unwrap();
            assert_eq!(
                ev.token(),
                Token(3),
                "{backend}: half-close must wake a reader"
            );
            let mut byte = [0u8; 1];
            assert_eq!((&b).read(&mut byte).unwrap(), 0, "{backend}: EOF");
        });
    }

    #[test]
    fn poll_backend_reports_a_closed_registered_fd_as_error() {
        // poll(2) keeps a closed fd in its set and answers POLLNVAL on
        // every wait; that must surface as an event for its token (the
        // owner's next read sees the error), never silence.
        // The fd is one no process can have open, so a concurrent test
        // cannot reuse the number between close and poll.
        let mut poll = poll_set::Poll::new().unwrap();
        let closed = std::os::fd::RawFd::MAX;
        poll.register(closed, Token(9), Interest::NONE).unwrap();
        let mut events = Events::with_capacity(4);
        let n = poll
            .poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        let ev = events.iter().next().unwrap();
        assert_eq!(ev.token(), Token(9), "POLLNVAL must surface as an event");
        poll.deregister(closed).unwrap();
        let n = poll
            .poll(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(n, 0, "deregistered, the closed fd is silent");
    }
}
