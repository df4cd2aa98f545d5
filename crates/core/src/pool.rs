//! The crate's two executors, both std-only (the build environment has
//! no external crates, so no rayon):
//!
//! * [`map`] — an index-ordered parallel map on `std::thread::scope`,
//!   which the owner build ([`crate::auth::AuthenticatedIndex::build`])
//!   and the snapshot boot run their per-term and per-document folds
//!   through. It also runs per-query work at both ends of a TRA reply:
//!   the engine builds the encountered documents' proofs through it, and
//!   the verifier checks them through it, one thread per
//!   [`DOCS_PER_THREAD`] proofs. Its output is **identical for every width**;
//!   only wall-clock time changes.
//! * [`ThreadPool`] — long-lived workers draining one job queue, onto
//!   which the network server ([`crate::server`]) submits one job per
//!   request.
//!
//! At width 1 neither spawns a thread: everything runs on the calling
//! thread, the paper's sequential model.
//!
//! # Example
//!
//! ```
//! use authsearch_core::pool;
//!
//! // Index-ordered parallel map: the result is identical for any width.
//! let squares = pool::map(4, 8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! assert_eq!(pool::map(1, 8, |i| i * i), squares);
//! ```

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// The machine's available parallelism (1 when it cannot be queried),
/// read once per process: both ends of a TRA reply ask for it per query,
/// and the query reads CPU-quota files.
pub fn available_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Document proofs per thread: a TRA reply's document-MHT proofs fan out
/// to one thread per `DOCS_PER_THREAD` of them, so replies of fewer than
/// twice this many stay on the calling thread.
///
/// Chosen with `authbench` in separate processes on a 2-vCPU x86-64 host
/// (18 s runs, seed 7, three rounds in rotated order, medians). On
/// `tra-long` (~445 proofs per query) `verified_qps` read 201 serial,
/// 259 at 16, 277 at 32 and 270 at 64, and 32 led every round. On
/// `tra-churn` (median query: 115 proofs) 16, 32 and 64 read 591, 591
/// and 583 against 471 serial. A floor of 128 would leave that median
/// query serial.
pub const DOCS_PER_THREAD: usize = 32;

/// The width at which up to `threads` threads share `docs` document
/// proofs: one thread per [`DOCS_PER_THREAD`] proofs, at most `threads`,
/// at least 1.
pub(crate) fn doc_proof_width(threads: usize, docs: usize) -> usize {
    threads.min(docs / DOCS_PER_THREAD).max(1)
}

/// Lock a mutex, recovering the guard if a previous holder panicked.
///
/// The crate-wide poisoning policy: every structure guarded this way
/// (the pool's job queue, server connection registries and completion
/// queues) keeps itself valid across each mutation, so a panic while
/// holding the lock never leaves torn data — recovery is always sound,
/// and one panicking worker cannot wedge the process.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Index-ordered parallel map: `(0..n).map(f).collect()`, computed by the
/// calling thread and `threads - 1` scoped helper threads.
///
/// Each thread claims fixed chunks of `n.div_ceil(threads * 8)` indices
/// from one shared counter until none are left, so a slow chunk holds up
/// only the thread running it; the caller then stitches the chunks back
/// in index order. Element `i` is always `f(i)`, which is what makes the
/// parallel owner build bit-identical to the sequential paper model. At
/// width 1 (or for fewer than two items) this is the plain sequential
/// loop on the calling thread.
///
/// A panic in `f` is re-raised here with its original payload, after
/// every helper has been joined.
pub fn map<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(threads * 8);
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            // `Relaxed` suffices: the counter only hands out distinct
            // chunks, and the values reach the caller through `join`.
            let start = next.fetch_add(1, Ordering::Relaxed) * chunk;
            if start >= n {
                return done;
            }
            let values: Vec<T> = (start..n.min(start + chunk)).map(&f).collect();
            done.push((start, values));
        }
    };
    let mut chunks = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads).map(|_| s.spawn(claim)).collect();
        let mut chunks = claim();
        for helper in helpers {
            match helper.join() {
                Ok(done) => chunks.extend(done),
                Err(payload) => panic::resume_unwind(payload),
            }
        }
        chunks
    });
    chunks.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(n);
    for (_, values) in chunks {
        out.extend(values);
    }
    out
}

/// A queued job.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Run one job, catching a panic so the thread survives it.
fn run(job: Job) {
    // A job reports its own failure out of band (the server's
    // completion guard answers on unwind); only the thread needs saving.
    let _ = panic::catch_unwind(AssertUnwindSafe(job));
}

/// A worker's loop: take the next job, run it, repeat — until the queue
/// is closed and empty.
fn work(jobs: &Mutex<mpsc::Receiver<Job>>) {
    loop {
        // The guard is a temporary of this statement: it is released as
        // soon as `recv` returns, so jobs run with the queue unlocked.
        let next = lock_recover(jobs).recv();
        match next {
            Ok(job) => run(job),
            Err(mpsc::RecvError) => return,
        }
    }
}

/// `threads - 1` long-lived workers draining one job queue.
///
/// `threads` counts the caller, the same as [`map`]'s width: a pool of
/// `n` spawns `n - 1` OS workers once, in [`ThreadPool::new`], and they
/// live until the pool is dropped. A pool of 1 spawns no thread at all
/// and runs every job inline.
// lint:allow(unused-pub): reached only through `AuthenticatedIndex::serve_pool` (`serve_pool().threads()`)
pub struct ThreadPool {
    /// The queue's sending half; `None` when there are no workers.
    queue: Option<mpsc::Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
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
    /// A pool of `threads` workers; `0` is clamped to `1`.
    pub fn new(threads: usize) -> ThreadPool {
        let threads = threads.max(1);
        if threads == 1 {
            return ThreadPool {
                queue: None,
                workers: Vec::new(),
                threads,
            };
        }
        let (queue, jobs) = mpsc::channel::<Job>();
        let jobs = Arc::new(Mutex::new(jobs));
        let workers = (0..threads - 1)
            .map(|i| {
                let jobs = Arc::clone(&jobs);
                std::thread::Builder::new()
                    .name(format!("authsearch-pool-{i}"))
                    .spawn(move || work(&jobs))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool {
            queue: Some(queue),
            workers,
            threads,
        }
    }

    /// The pool's width, counting the caller.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Queue an owned (`'static`) job for the next idle worker.
    /// Completion is observed out of band (e.g. through a channel the job
    /// holds).
    ///
    /// On a `threads == 1` pool the job runs **inline, right here**, so
    /// submission order and the no-spawn guarantee both hold. A panicking
    /// job is caught either way, so a bad request never takes a server
    /// worker down.
    pub(crate) fn submit<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        let job: Job = Box::new(f);
        match &self.queue {
            Some(queue) => {
                // Sending fails only once every worker is gone; the job
                // then still runs, here.
                if let Err(mpsc::SendError(job)) = queue.send(job) {
                    run(job);
                }
            }
            None => run(job),
        }
    }
}

impl Drop for ThreadPool {
    /// Graceful shutdown: close the queue, let the workers run every job
    /// still in it, and join them.
    fn drop(&mut self) {
        drop(self.queue.take());
        for worker in self.workers.drain(..) {
            // Workers catch job panics, so a join error here is a pool
            // bug, not a job bug — surface it under test.
            let joined = worker.join();
            debug_assert!(joined.is_ok(), "pool worker panicked outside a job");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;
    use std::thread::ThreadId;
    use std::time::Duration;

    fn payload_text(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    #[test]
    fn map_matches_sequential_for_all_thread_counts() {
        let expect: Vec<u64> = (0..257)
            .map(|i| (i as u64).wrapping_mul(2654435761))
            .collect();
        for threads in [1, 2, 3, 4, 8] {
            let got = map(threads, 257, |i| (i as u64).wrapping_mul(2654435761));
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn map_handles_degenerate_sizes() {
        // Empty, single, and fewer items than threads, at every width.
        for threads in [1, 2, 3, 4, 8] {
            for n in 0..threads + 2 {
                let got = map(threads, n, |i| i + 10);
                assert_eq!(got, (10..10 + n).collect::<Vec<_>>(), "{threads}/{n}");
            }
        }
    }

    #[test]
    fn map_at_width_one_runs_on_the_caller() {
        let me = std::thread::current().id();
        let ids = map(1, 64, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == me));
    }

    #[test]
    fn doc_proof_width_is_one_thread_per_floor_of_proofs() {
        let f = DOCS_PER_THREAD;
        for (threads, docs, want) in [
            (4, 0, 1),
            (4, 2 * f - 1, 1),
            (4, 2 * f, 2),
            (4, 3 * f + 1, 3),
            (4, 100 * f, 4),
            (2, 100 * f, 2),
            (1, 100 * f, 1),
            (0, 100 * f, 1),
        ] {
            assert_eq!(doc_proof_width(threads, docs), want, "{threads}/{docs}");
        }
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
    fn zero_threads_clamps_to_one() {
        assert_eq!(ThreadPool::new(0).threads(), 1);
    }

    #[test]
    fn workers_persist_across_bursts() {
        // Consecutive bursts of submitted jobs reuse the same OS workers
        // instead of spawning fresh ones: across many bursts the set of
        // threads that ran a job never exceeds the pool's 2 workers, and
        // never includes the submitting thread.
        let pool = ThreadPool::new(3);
        let mut ids: HashSet<ThreadId> = HashSet::new();
        for _ in 0..32 {
            let (tx, rx) = mpsc::channel();
            for _ in 0..8 {
                let tx = tx.clone();
                pool.submit(move || tx.send(std::thread::current().id()).unwrap());
            }
            drop(tx);
            ids.extend(rx.iter());
        }
        assert!(ids.len() <= 2, "{ids:?}");
        assert!(!ids.contains(&std::thread::current().id()));
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
    fn single_thread_pool_spawns_inline_in_submission_order() {
        let pool = ThreadPool::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..16 {
            let job_order = Arc::clone(&order);
            pool.submit(move || lock_recover(&job_order).push(i));
            // Already done before `submit` returned.
            assert_eq!(lock_recover(&order).len(), i + 1);
        }
        assert_eq!(*lock_recover(&order), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn submitted_panic_is_contained() {
        let pool = ThreadPool::new(2);
        pool.submit(|| panic!("submitted task failure"));
        let (tx, rx) = mpsc::channel();
        pool.submit(move || tx.send(7u32).unwrap());
        // The only worker survived the panic and keeps serving.
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), 7);
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
        // A panic on a helper thread (not the caller) reaches the caller
        // with its payload, and every helper is joined before `map`
        // unwinds.
        let caller = std::thread::current().id();
        let helper_ran = AtomicUsize::new(0);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            map(4, 64, |i| {
                if std::thread::current().id() != caller {
                    helper_ran.fetch_add(1, Ordering::SeqCst);
                    panic!("helper failure at {i}");
                }
                // Hold the caller on its first chunk until a helper has
                // claimed one, so the panic always comes from a helper.
                while helper_ran.load(Ordering::SeqCst) == 0 {
                    std::thread::yield_now();
                }
                i
            })
        }));
        let payload = caught.expect_err("panic must propagate to the caller");
        let msg = payload_text(payload.as_ref());
        assert!(msg.starts_with("helper failure at "), "payload: {msg:?}");
        // Helpers stop at their first item, so at most three ran.
        assert!((1..=3).contains(&helper_ran.load(Ordering::SeqCst)));
    }

    #[test]
    fn map_panic_propagates_original_payload() {
        let pool = ThreadPool::new(2);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            let _ = map(2, 32, |i| {
                if i == 13 {
                    panic!("unlucky 13");
                }
                i
            });
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload_text(payload.as_ref());
        assert!(msg.contains("unlucky 13"), "payload: {msg:?}");
        // Nothing is left broken: the next map and submit both work.
        assert_eq!(map(2, 4, |i| i), vec![0, 1, 2, 3]);
        let (tx, rx) = mpsc::channel();
        pool.submit(move || tx.send(9u32).unwrap());
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), 9);
    }

    #[test]
    fn concurrent_maps_from_many_threads() {
        // Six caller threads each running maps at once.
        let handles: Vec<_> = (0..6u64)
            .map(|caller| {
                std::thread::spawn(move || {
                    (0..8u64)
                        .map(|round| {
                            map(4, 32, |i| caller * 1_000_000 + round * 1_000 + i as u64)
                                .iter()
                                .sum::<u64>()
                        })
                        .sum::<u64>()
                })
            })
            .collect();
        let totals: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
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
}
