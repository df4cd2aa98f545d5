//! Hand-rolled **persistent** work-stealing thread pool.
//!
//! The build environment has no external crates (no rayon), so both the
//! parallel [`crate::auth::AuthenticatedIndex::build`] path and the
//! network server ([`crate::server`]) run on this std-only pool. Through
//! PR 3 the pool was *scoped*: every `scope`/`map` call spawned its OS
//! workers and joined them before returning — fine for a one-shot owner
//! build, but a per-call spawn/join tax for a long-running server. The
//! pool is now persistent:
//!
//! * **Workers live as long as the pool.** [`ThreadPool::new`] spawns
//!   `threads - 1` OS workers once; `scope` and `map` reuse them, and
//!   [`Drop`] drains outstanding work and joins. A `threads == 1` pool
//!   still spawns **no OS threads at all** — every task runs inline on
//!   the calling thread, the paper's sequential model byte for byte.
//! * **Submit queue feeding per-worker steal deques** — borrowed scope
//!   tasks are dealt round-robin onto one deque per worker (popped from
//!   the front by the owner, stolen from the back by siblings and by
//!   callers waiting on a scope), while [`ThreadPool::submit`] — the
//!   non-scoped entry point for long-lived callers such as server
//!   connection handlers — pushes `'static` tasks onto a shared inject
//!   queue that idle workers drain between scope tasks.
//! * **Scoped spawn without `Arc`** — tasks spawned through
//!   [`ThreadPool::scope`] may borrow the caller's stack (the index, the
//!   signing key, output buffers); `scope` does not return until every
//!   task it spawned has retired, and the caller *helps drain* the
//!   queues while it waits, so a burst of small scopes keeps all workers
//!   busy without any thread churn.
//!
//! Panics stay contained to their origin: a panicking **scope task**
//! poisons only its own scope (that scope's remaining queued tasks are
//! dropped unrun and the first payload is re-raised on the scope's
//! caller, the same contract as `std::thread::scope`), while a panicking
//! **submitted task** is caught and counted — a server worker never
//! takes the pool down. The outputs of [`ThreadPool::map`] are
//! **identical for every thread count**; only wall-clock time changes.
//!
//! # Example
//!
//! ```
//! use authsearch_core::pool::ThreadPool;
//!
//! // Index-ordered parallel map: the result is identical for any
//! // thread count, only wall-clock time changes.
//! let pool = ThreadPool::new(4);
//! let squares = pool.map(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//!
//! // Scoped spawn borrows the caller's stack without `Arc` — and the
//! // second scope reuses the workers the first one left parked.
//! let inputs = vec![2u64, 3, 5, 7];
//! let mut doubled = vec![0u64; inputs.len()];
//! pool.scope(|s| {
//!     for (d, &x) in doubled.iter_mut().zip(&inputs) {
//!         s.spawn(move || *d = 2 * x);
//!     }
//! });
//! assert_eq!(doubled, vec![4, 6, 10, 14]);
//!
//! // Non-scoped submission for long-lived callers (tasks own their
//! // state); completion is observed through the channel.
//! let (tx, rx) = std::sync::mpsc::channel();
//! pool.submit(move || tx.send(21 * 2).unwrap());
//! assert_eq!(rx.recv().unwrap(), 42);
//! ```

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// The machine's available parallelism (1 when it cannot be queried).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A queued unit of work. Scope tasks are wrapped (retirement counter,
/// panic capture) before erasure, so the queues hold one uniform type.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Lock a mutex, recovering the guard if a previous holder panicked.
///
/// The crate-wide poisoning policy: every structure guarded this way
/// (pool queues, server connection registries and completion queues)
/// keeps itself valid across each mutation, so a panic while holding the
/// lock never leaves torn data — recovery is always sound, and one
/// panicking worker cannot wedge the process.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// State shared between the pool handle, its workers, and helping
/// scope callers.
struct PoolCore {
    /// One steal deque per OS worker (empty when `threads == 1`): the
    /// owner pops the front, thieves pop the back.
    deques: Vec<Mutex<VecDeque<Task>>>,
    /// Shared inject queue: [`ThreadPool::submit`] pushes here, and
    /// scope spawns overflow here when the pool has no OS workers.
    inject: Mutex<VecDeque<Task>>,
    /// Round-robin dealing cursor for scope spawns.
    next: AtomicUsize,
    /// Pool is shutting down: workers drain every queue, then exit.
    shutdown: AtomicBool,
    /// Submitted (non-scope) tasks that panicked; see
    /// [`ThreadPool::submitted_panics`].
    submitted_panics: AtomicU64,
    /// Parking lot for idle workers.
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
}

impl PoolCore {
    /// Pop our own deque's front, else the inject queue, else steal from
    /// a sibling's back. `me` is the worker index, or `deques.len()` for
    /// a helping scope caller (no own deque; inject first, then steal).
    fn grab(&self, me: usize) -> Option<Task> {
        let n = self.deques.len();
        if me < n {
            if let Some(task) = lock_recover(&self.deques[me]).pop_front() {
                return Some(task);
            }
        }
        if let Some(task) = lock_recover(&self.inject).pop_front() {
            return Some(task);
        }
        for offset in 1..=n {
            let victim = (me + offset) % n.max(1);
            if victim == me || victim >= n {
                continue;
            }
            if let Some(task) = lock_recover(&self.deques[victim]).pop_back() {
                return Some(task);
            }
        }
        None
    }

    /// Run one task, containing any panic. Scope tasks re-raise on their
    /// scope's caller through [`ScopeState`]; a bare submitted task's
    /// panic is counted and swallowed so the worker survives.
    fn run_one(&self, task: Task) {
        if panic::catch_unwind(AssertUnwindSafe(task)).is_err() {
            self.submitted_panics.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Any queue non-empty? Used to re-check for work *under the idle
    /// lock* before parking (see [`PoolCore::work`]).
    fn has_work(&self) -> bool {
        if !lock_recover(&self.inject).is_empty() {
            return true;
        }
        self.deques.iter().any(|d| !lock_recover(d).is_empty())
    }

    /// Long-lived worker loop: run until shutdown *and* every queue has
    /// drained (graceful drop never strands a submitted task).
    fn work(&self, me: usize) {
        loop {
            if let Some(task) = self.grab(me) {
                self.run_one(task);
                continue;
            }
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            // Park until new work or shutdown. Every push notifies
            // *under `idle_lock`*, so re-checking the queues while
            // holding it closes the push-vs-park race: if we see empty
            // here, any later push's notification must land after our
            // wait begins. The long timeout is belt-and-braces only —
            // an idle persistent worker wakes ~4x/s, not at 1 kHz.
            let guard = lock_recover(&self.idle_lock);
            if self.has_work() || self.shutdown.load(Ordering::Acquire) {
                continue;
            }
            let _ = self
                .idle_cv
                .wait_timeout(guard, Duration::from_millis(250))
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Wake every parked worker (new work burst, or shutdown).
    fn notify_all(&self) {
        let _guard = lock_recover(&self.idle_lock);
        self.idle_cv.notify_all();
    }

    /// Wake one parked worker (single task pushed).
    fn notify_one(&self) {
        let _guard = lock_recover(&self.idle_lock);
        self.idle_cv.notify_one();
    }
}

/// Per-scope completion state, shared by the scope's caller and the
/// wrappers of every task the scope spawned.
struct ScopeState {
    /// Tasks spawned and not yet retired (run, or dropped by poisoning).
    pending: AtomicUsize,
    /// A task of this scope panicked: drop this scope's queued tasks
    /// instead of running them. Other scopes are unaffected.
    poisoned: AtomicBool,
    /// First panic payload, re-raised on the scope's caller.
    panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Wakes the caller blocked in [`ThreadPool::help_until_done`].
    done_lock: Mutex<()>,
    done_cv: Condvar,
}

impl ScopeState {
    fn new() -> Arc<ScopeState> {
        Arc::new(ScopeState {
            pending: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            panic_payload: Mutex::new(None),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
        })
    }

    /// Retire one task; the last retirement wakes the waiting caller.
    fn retire(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = lock_recover(&self.done_lock);
            self.done_cv.notify_all();
        }
    }
}

/// Handle for spawning borrowed tasks inside a [`ThreadPool::scope`].
pub struct Scope<'scope, 'env: 'scope> {
    core: &'scope PoolCore,
    state: &'scope Arc<ScopeState>,
    /// Invariance over `'scope` (the `std::thread::scope` trick): keeps a
    /// scope from being smuggled into a longer-lived one.
    _marker: PhantomData<&'scope mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Queue `f` to run on one of the pool's workers (or the caller,
    /// which helps drain while the scope waits). Tasks may borrow
    /// anything that outlives the enclosing [`ThreadPool::scope`] call.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        let state = Arc::clone(self.state);
        // Count before publishing: a worker that pops and retires the
        // task must never observe `pending` at zero first.
        state.pending.fetch_add(1, Ordering::AcqRel);
        let wrapped = move || {
            // `f` must be consumed (run or dropped) **before** `retire`:
            // the moment `pending` hits zero the scope caller may return
            // and free the `'env` stack `f`'s captures (and their `Drop`
            // impls) borrow.
            if state.poisoned.load(Ordering::Acquire) {
                drop(f);
            } else if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(f)) {
                state.poisoned.store(true, Ordering::Release);
                let mut slot = lock_recover(&state.panic_payload);
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            state.retire();
        };
        let boxed: Box<dyn FnOnce() + Send + 'env> = Box::new(wrapped);
        // SAFETY: the task (and everything its closure borrows from
        // `'env`) cannot outlive the enclosing `scope` call — `scope`
        // does not return, even by unwinding, until `pending` reaches
        // zero, and `pending` reaches zero only after this task has been
        // run *or dropped* by a worker. Erasing the lifetime is what
        // lets long-lived OS workers execute stack-borrowing tasks.
        let task: Task = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(boxed)
        };
        let n = self.core.deques.len();
        if n == 0 {
            // No OS workers: the caller drains the inject queue in
            // submission order after the scope body returns.
            lock_recover(&self.core.inject).push_back(task);
        } else {
            let slot = self.core.next.fetch_add(1, Ordering::Relaxed) % n;
            lock_recover(&self.core.deques[slot]).push_back(task);
            self.core.notify_one();
        }
    }
}

/// Waits for a scope's tasks even when the scope body panics, so
/// borrowed state is never freed while a worker still holds a task.
struct ScopeWaitGuard<'a> {
    pool: &'a ThreadPool,
    state: &'a Arc<ScopeState>,
}

impl Drop for ScopeWaitGuard<'_> {
    fn drop(&mut self) {
        self.pool.help_until_done(self.state);
    }
}

/// A persistent work-stealing pool (see the module docs).
///
/// `threads` counts the caller: a pool of `n` spawns `n - 1` OS workers
/// and the thread calling [`ThreadPool::scope`] / [`ThreadPool::map`]
/// helps drain while it waits, so `threads == 1` runs everything inline
/// with no OS threads spawned, ever.
pub struct ThreadPool {
    core: Arc<PoolCore>,
    workers: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .field("os_workers", &self.workers.len())
            .finish()
    }
}

impl ThreadPool {
    /// A pool of `threads` workers; `0` is clamped to `1`. The
    /// `threads - 1` OS workers are spawned here, once, and live until
    /// the pool is dropped.
    pub fn new(threads: usize) -> ThreadPool {
        let threads = threads.max(1);
        let core = Arc::new(PoolCore {
            deques: (0..threads - 1)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            inject: Mutex::new(VecDeque::new()),
            next: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            submitted_panics: AtomicU64::new(0),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
        });
        let workers = (0..threads - 1)
            .map(|i| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("authsearch-pool-{i}"))
                    .spawn(move || core.work(i))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool {
            core,
            workers,
            threads,
        }
    }

    /// A pool sized to [`available_parallelism`].
    pub fn auto() -> ThreadPool {
        ThreadPool::new(available_parallelism())
    }

    /// Number of workers (including the calling thread during a scope).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Panics from [`ThreadPool::submit`]-ed tasks caught so far (scope
    /// task panics re-raise on their caller instead and are not counted
    /// here). An ops counter: a serving process can alert on it.
    pub fn submitted_panics(&self) -> u64 {
        self.core.submitted_panics.load(Ordering::Relaxed)
    }

    /// Queue an owned (`'static`) task — the non-scoped entry point for
    /// long-lived callers such as server connection handlers. Completion
    /// is observed out of band (e.g. through a channel the task holds).
    ///
    /// On a `threads == 1` pool there are no OS workers to run queued
    /// tasks, so the task runs **inline, right here** — submission order
    /// and the no-spawn guarantee are both preserved. A panicking task
    /// is caught either way (counted in [`ThreadPool::submitted_panics`])
    /// so a bad request never takes a server worker down.
    pub fn submit<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        if self.workers.is_empty() {
            self.core.run_one(Box::new(f));
            return;
        }
        lock_recover(&self.core.inject).push_back(Box::new(f));
        self.core.notify_one();
    }

    /// Help execute queued tasks until `state.pending` reaches zero.
    /// The caller may run tasks from *other* scopes while it waits —
    /// that only helps overall throughput and cannot deadlock, because
    /// no task in this system blocks on another scope's completion.
    fn help_until_done(&self, state: &Arc<ScopeState>) {
        let me = self.core.deques.len(); // virtual index: no own deque
        loop {
            if state.pending.load(Ordering::Acquire) == 0 {
                return;
            }
            if let Some(task) = self.core.grab(me) {
                self.core.run_one(task);
                continue;
            }
            // Our remaining tasks are all *running* on workers (grab
            // found nothing queued), so park until a retirement wakes
            // us. `retire` notifies under `done_lock`, and we re-check
            // `pending` while holding it, so the wakeup cannot be lost;
            // the timeout is belt-and-braces.
            let guard = lock_recover(&state.done_lock);
            if state.pending.load(Ordering::Acquire) == 0 {
                return;
            }
            let _ = state
                .done_cv
                .wait_timeout(guard, Duration::from_millis(250))
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Run `f`, which may spawn borrowed tasks on the scope; returns once
    /// every spawned task has finished. The calling thread helps drain
    /// the queues while it waits — on a one-thread pool it simply runs
    /// every task inline, in submission order, after `f` returns.
    ///
    /// If any task of this scope panicked, the first payload is re-raised
    /// here after all of the scope's tasks have retired. Other scopes
    /// sharing the pool are unaffected, and the pool stays usable.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    {
        let state = ScopeState::new();
        let result = {
            // Wait for spawned tasks even if `f` itself unwinds — the
            // tasks borrow the caller's stack, which must stay alive
            // until every one of them has retired.
            let wait = ScopeWaitGuard {
                pool: self,
                state: &state,
            };
            let scope = Scope {
                core: &self.core,
                state: &state,
                _marker: PhantomData,
            };
            let out = f(&scope);
            drop(wait); // help drain until everything has retired
            out
        };
        if let Some(payload) = lock_recover(&state.panic_payload).take() {
            panic::resume_unwind(payload);
        }
        result
    }

    /// Index-ordered parallel map: `(0..n).map(f).collect()`, with the
    /// calls distributed over the pool in stealable contiguous chunks.
    ///
    /// The output is **identical for every thread count** — element `i`
    /// is always `f(i)` and lands at index `i` — which is what makes the
    /// parallel owner build bit-compatible with the sequential paper
    /// model. A one-thread pool short-circuits to the plain sequential
    /// loop.
    pub fn map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.threads == 1 || n <= 1 {
            return (0..n).map(f).collect();
        }
        let mut out: Vec<Option<T>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        let chunk = chunk_size(n, self.threads);
        {
            let slots = SlotWriter(out.as_mut_ptr());
            let f = &f;
            self.scope(|s| {
                let mut start = 0;
                while start < n {
                    let end = (start + chunk).min(n);
                    s.spawn(move || {
                        // Capture the whole wrapper, not its raw-pointer
                        // field (edition-2021 closures capture per field,
                        // which would bypass the `Send` impl).
                        let slots = slots;
                        for i in start..end {
                            let value = f(i);
                            // SAFETY: chunks partition 0..n, so index i
                            // is written by exactly this task, and the
                            // scope joins every task before `out` is
                            // read or dropped. Overwriting the `None`
                            // placeholder needs no drop.
                            unsafe { slots.0.add(i).write(Some(value)) };
                        }
                    });
                    start = end;
                }
            });
        }
        out.into_iter()
            .map(|v| v.expect("pool map task completed"))
            .collect()
    }
}

impl Drop for ThreadPool {
    /// Graceful shutdown: wake everyone, let the workers drain every
    /// queue (submitted tasks still run), and join them.
    fn drop(&mut self) {
        self.core.shutdown.store(true, Ordering::Release);
        self.core.notify_all();
        for handle in self.workers.drain(..) {
            // Worker bodies catch task panics and stash them in the
            // scope state, so a join error here is a pool bug, not a
            // task bug — surface it under test instead of swallowing.
            let joined = handle.join();
            debug_assert!(joined.is_ok(), "pool worker panicked outside a task");
        }
    }
}

/// Raw pointer into the map output, sendable because disjoint indices go
/// to disjoint tasks (see the SAFETY comment at the write site).
struct SlotWriter<T>(*mut Option<T>);

impl<T> Clone for SlotWriter<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SlotWriter<T> {}

// SAFETY: each task writes a disjoint range and the scope joins all
// tasks before the buffer is touched again.
unsafe impl<T: Send> Send for SlotWriter<T> {}

/// Chunk length targeting ~8 stealable units per worker, so the deques
/// stay long enough for stealing to smooth out uneven task costs.
fn chunk_size(n: usize, threads: usize) -> usize {
    n.div_ceil(threads * 8).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;

    #[test]
    fn map_matches_sequential_for_all_thread_counts() {
        let expect: Vec<u64> = (0..257)
            .map(|i| (i as u64).wrapping_mul(2654435761))
            .collect();
        for threads in [1, 2, 3, 4, 8] {
            let pool = ThreadPool::new(threads);
            let got = pool.map(257, |i| (i as u64).wrapping_mul(2654435761));
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn map_handles_degenerate_sizes() {
        let pool = ThreadPool::new(4);
        assert_eq!(pool.map(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.map(1, |i| i + 10), vec![10]);
        // Far fewer items than workers.
        assert_eq!(pool.map(2, |i| i), vec![0, 1]);
    }

    #[test]
    fn lock_recover_survives_poison() {
        // A panic while holding the lock poisons it; the guard is
        // recovered with the data intact, and the lock stays usable.
        let m = Mutex::new(vec![1u32]);
        let _ = panic::catch_unwind(AssertUnwindSafe(|| {
            let _guard = lock_recover(&m);
            panic!("deliberate poison");
        }));
        assert!(m.is_poisoned());
        lock_recover(&m).push(2);
        assert_eq!(*lock_recover(&m), vec![1, 2]);
    }

    #[test]
    fn scope_runs_every_spawned_task() {
        let pool = ThreadPool::new(4);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            for i in 0..100u64 {
                let counter = &counter;
                s.spawn(move || {
                    counter.fetch_add(i, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 99 * 100 / 2);
    }

    #[test]
    fn scope_tasks_can_borrow_mutable_disjoint_state() {
        let pool = ThreadPool::new(3);
        let mut out = vec![0u32; 64];
        pool.scope(|s| {
            for (i, slot) in out.iter_mut().enumerate() {
                s.spawn(move || *slot = i as u32 + 1);
            }
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u32 + 1));
    }

    #[test]
    fn single_thread_pool_spawns_inline_in_submission_order() {
        let pool = ThreadPool::new(1);
        let order = Mutex::new(Vec::new());
        pool.scope(|s| {
            for i in 0..16 {
                let order = &order;
                s.spawn(move || order.lock().unwrap().push(i));
            }
        });
        assert_eq!(*order.lock().unwrap(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(ThreadPool::new(0).threads(), 1);
    }

    #[test]
    fn workers_persist_across_scopes() {
        // The tentpole contract: consecutive scope/map calls reuse the
        // same OS workers instead of spawning fresh ones. Observe worker
        // thread ids across many scopes — the set must not grow beyond
        // the pool width (with fresh spawn/join per call it would
        // accumulate a new id per call).
        let pool = ThreadPool::new(3);
        let ids = Mutex::new(std::collections::HashSet::new());
        for _ in 0..32 {
            pool.scope(|s| {
                for _ in 0..8 {
                    let ids = &ids;
                    s.spawn(move || {
                        ids.lock().unwrap().insert(std::thread::current().id());
                    });
                }
            });
        }
        // Tasks run on the 2 OS workers and possibly the caller.
        assert!(ids.lock().unwrap().len() <= 3);
    }

    #[test]
    fn submit_runs_owned_tasks() {
        let pool = ThreadPool::new(4);
        let (tx, rx) = mpsc::channel();
        for i in 0..64u64 {
            let tx = tx.clone();
            pool.submit(move || tx.send(i).unwrap());
        }
        drop(tx);
        let mut got: Vec<u64> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn submit_on_single_thread_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        let (tx, rx) = mpsc::channel();
        pool.submit(move || tx.send(std::thread::current().id()).unwrap());
        // Ran inline: same thread, already completed.
        assert_eq!(rx.try_recv().unwrap(), std::thread::current().id());
    }

    #[test]
    fn submitted_panic_is_contained_and_counted() {
        let pool = ThreadPool::new(2);
        pool.submit(|| panic!("submitted task failure"));
        let (tx, rx) = mpsc::channel();
        pool.submit(move || tx.send(7u32).unwrap());
        // The worker survived the panic and keeps serving.
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), 7);
        assert_eq!(pool.submitted_panics(), 1);
        // Scopes still work on the same pool.
        assert_eq!(pool.map(4, |i| i), vec![0, 1, 2, 3]);
    }

    #[test]
    fn drop_drains_submitted_tasks() {
        let done = Arc::new(AtomicU64::new(0));
        {
            let pool = ThreadPool::new(3);
            for _ in 0..128 {
                let done = Arc::clone(&done);
                pool.submit(move || {
                    done.fetch_add(1, Ordering::Relaxed);
                });
            }
            // Pool dropped here: shutdown must drain, not discard.
        }
        assert_eq!(done.load(Ordering::Relaxed), 128);
    }

    #[test]
    fn worker_panic_propagates_and_pool_shuts_down() {
        let pool = ThreadPool::new(4);
        let ran = AtomicU64::new(0);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for i in 0..64u64 {
                    let ran = &ran;
                    s.spawn(move || {
                        if i == 7 {
                            panic!("pool task failure 7");
                        }
                        ran.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        let payload = caught.expect_err("panic must propagate to the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("pool task failure 7"), "payload: {msg:?}");
        // Poisoning dropped *at most* the tasks queued behind the panic;
        // everything retired and the scope still joined cleanly.
        assert!(ran.load(Ordering::Relaxed) <= 63);
        // The pool is reusable after a poisoned scope — the poison was
        // scoped, not pool-wide.
        assert_eq!(pool.map(4, |i| i), vec![0, 1, 2, 3]);
        // Scope panics are not "submitted task" panics.
        assert_eq!(pool.submitted_panics(), 0);
    }

    #[test]
    fn map_panic_propagates_original_payload() {
        let pool = ThreadPool::new(2);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            let _ = pool.map(32, |i| {
                if i == 13 {
                    panic!("unlucky 13");
                }
                i
            });
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("unlucky 13"), "payload: {msg:?}");
    }

    #[test]
    fn concurrent_scopes_from_many_threads_share_one_pool() {
        // Several caller threads each running scopes against one shared
        // pool. Poisoning one scope must not leak into the others.
        let pool = Arc::new(ThreadPool::new(4));
        let mut handles = Vec::new();
        for caller in 0..6u64 {
            let pool = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                let mut acc = 0u64;
                for round in 0..8u64 {
                    let out = pool.map(32, |i| caller * 1_000_000 + round * 1_000 + i as u64);
                    acc += out.iter().sum::<u64>();
                }
                acc
            }));
        }
        let mut totals: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        totals.sort_unstable();
        let expect: Vec<u64> = (0..6u64)
            .map(|caller| {
                (0..8u64)
                    .map(|round| {
                        (0..32u64)
                            .map(|i| caller * 1_000_000 + round * 1_000 + i)
                            .sum::<u64>()
                    })
                    .sum()
            })
            .collect();
        assert_eq!(totals, expect);
    }

    #[test]
    fn stealing_balances_uneven_tasks() {
        // One task is ~100x the others; with stealing the short tasks
        // finish on other workers. We can only assert completion and
        // correctness here (timing is machine-dependent).
        let pool = ThreadPool::new(4);
        let out = pool.map(64, |i| {
            let reps = if i == 0 { 100_000 } else { 1_000 };
            let mut acc = i as u64;
            for _ in 0..reps {
                acc = acc
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            acc
        });
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn auto_pool_matches_available_parallelism() {
        assert_eq!(ThreadPool::auto().threads(), available_parallelism());
    }
}
