//! Per-thread counts of the crate's hash and signature work: SHA-256
//! compressions (one per 64-byte block, whichever kernel runs it) and
//! RSA signature checks.
//!
//! The counts exist only with the `count-work` cargo feature, which the
//! figure harness (`authsearch-bench`) enables to print the hash work a
//! query costs as exact counts. Without it every function here is a
//! no-op and [`current`] reads zero, so a build that does not ask for
//! the counts pays nothing for them.
//!
//! A count is kept per thread. Work fanned out to helper threads reaches
//! the caller's count only if the fan-out hands it back with [`add`], as
//! `authsearch_core::pool::map` does.

/// Work done on one thread since it started (see [`current`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounts {
    /// SHA-256 compression-function calls, one per 64-byte block.
    pub compressions: u64,
    /// RSA signature verifications.
    pub rsa_verifies: u64,
}

impl std::ops::Add for WorkCounts {
    type Output = WorkCounts;
    fn add(self, rhs: WorkCounts) -> WorkCounts {
        WorkCounts {
            compressions: self.compressions + rhs.compressions,
            rsa_verifies: self.rsa_verifies + rhs.rsa_verifies,
        }
    }
}

impl std::ops::Sub for WorkCounts {
    type Output = WorkCounts;
    fn sub(self, rhs: WorkCounts) -> WorkCounts {
        WorkCounts {
            compressions: self.compressions - rhs.compressions,
            rsa_verifies: self.rsa_verifies - rhs.rsa_verifies,
        }
    }
}

/// True when this build counts (the `count-work` feature).
pub const ENABLED: bool = cfg!(feature = "count-work");

#[cfg(feature = "count-work")]
mod imp {
    use super::WorkCounts;
    use std::cell::Cell;

    thread_local! {
        static COUNTS: Cell<WorkCounts> = const {
            Cell::new(WorkCounts { compressions: 0, rsa_verifies: 0 })
        };
    }

    pub(super) fn get() -> WorkCounts {
        COUNTS.with(Cell::get)
    }

    pub(super) fn set(counts: WorkCounts) {
        COUNTS.with(|c| c.set(counts));
    }
}

#[cfg(not(feature = "count-work"))]
mod imp {
    use super::WorkCounts;

    pub(super) fn get() -> WorkCounts {
        WorkCounts::default()
    }

    pub(super) fn set(_: WorkCounts) {}
}

/// The calling thread's counts so far; zero without the feature.
pub fn current() -> WorkCounts {
    imp::get()
}

/// Add `counts`, done on another thread on this one's behalf, to the
/// calling thread's counts.
pub fn add(counts: WorkCounts) {
    imp::set(imp::get() + counts);
}

/// Count `blocks` compressions.
#[inline(always)]
pub(crate) fn compressed(blocks: usize) {
    add(WorkCounts {
        compressions: blocks as u64,
        rsa_verifies: 0,
    });
}

/// Count one RSA signature check.
#[inline(always)]
pub(crate) fn rsa_verified() {
    add(WorkCounts {
        compressions: 0,
        rsa_verifies: 1,
    });
}

#[cfg(all(test, feature = "count-work"))]
mod tests {
    use super::*;
    use crate::{keys, Digest};
    use std::hint::black_box;

    #[test]
    fn every_compression_path_counts_once_per_block() {
        let key = keys::cached_keypair(keys::TEST_KEY_BITS);
        let signature = key.sign(b"message").unwrap();
        let hashed = |f: &dyn Fn() -> Digest| {
            let before = current();
            black_box(f());
            (current() - before).compressions
        };
        // The register-built kernels and the padded one-block path.
        assert_eq!(hashed(&|| Digest::leaf(&[1; 4])), 1);
        assert_eq!(hashed(&|| Digest::leaf(&[1; 54])), 1);
        assert_eq!(hashed(&|| Digest::combine(&Digest::ZERO, &Digest::ZERO)), 1);
        // Streaming: 55 bytes pad into one block, 56 into two, and a
        // whole block plus its padding is two.
        assert_eq!(hashed(&|| Digest::hash(&[0; 55])), 1);
        assert_eq!(hashed(&|| Digest::hash(&[0; 56])), 2);
        assert_eq!(hashed(&|| Digest::hash(&[0; 64])), 2);
        // A signature check hashes its message once.
        let before = current();
        key.public_key().verify(b"message", &signature).unwrap();
        assert_eq!(
            current() - before,
            WorkCounts {
                compressions: 1,
                rsa_verifies: 1
            }
        );
    }

    #[test]
    fn add_carries_another_threads_counts() {
        let helper = std::thread::spawn(|| {
            Digest::hash(b"elsewhere");
            current()
        })
        .join()
        .unwrap();
        assert_eq!(helper.compressions, 1);
        let before = current();
        add(helper);
        assert_eq!((current() - before).compressions, 1);
    }
}
