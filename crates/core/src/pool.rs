//! The crate's one executor, std-only (the build environment has no
//! external crates, so no rayon): [`map`], an index-ordered parallel map
//! on `std::thread::scope`. The owner build
//! ([`crate::auth::AuthenticatedIndex::build`]), the snapshot boot and a
//! client taking a publication in run their per-term and per-document
//! folds through it. Its output is **identical for every width**; only
//! wall-clock time changes.
//!
//! At width 1 it spawns no thread: everything runs on the calling
//! thread, the paper's sequential model. Queries never fan out: the
//! network server ([`crate::server`]) runs each one to completion on its
//! event-loop thread, and a client verifies each reply on its own
//! thread.

use authsearch_crypto::counters;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The machine's available parallelism (1 when it cannot be queried),
/// read once per process: the query reads CPU-quota files.
pub(crate) fn available_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
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
pub(crate) fn map<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
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
        // Each helper hands back the hash work it did, so the caller's
        // `counters` count the whole map at every width.
        let helpers: Vec<_> = (1..threads)
            .map(|_| s.spawn(|| (claim(), counters::current())))
            .collect();
        let mut chunks = claim();
        for helper in helpers {
            match helper.join() {
                Ok((done, work)) => {
                    chunks.extend(done);
                    counters::add(work);
                }
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;

    fn payload_text(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    #[test]
    fn helpers_hand_their_hash_work_to_the_caller() {
        let work = |threads| {
            let before = counters::current();
            map(threads, 64, |i| authsearch_crypto::Digest::hash(&[i as u8]));
            (counters::current() - before).compressions
        };
        let want = if counters::ENABLED { 64 } else { 0 };
        for threads in [1, 4] {
            assert_eq!(work(threads), want, "threads={threads}");
        }
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
        // Nothing is left broken: the next map works.
        assert_eq!(map(2, 4, |i| i), vec![0, 1, 2, 3]);
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
