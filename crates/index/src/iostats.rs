//! I/O accounting: the access traces from which simulated disk time is
//! computed.

/// Counts of disk operations performed while processing one query.
///
/// `seeks` counts head repositionings (each paying seek + rotational
/// latency); `blocks` counts blocks transferred. A sequential scan of a
/// `b`-block list is 1 seek + `b` block transfers; a random fetch of a
/// document-MHT is 1 seek + however many blocks the structure spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Head repositionings.
    pub seeks: u64,
    /// Blocks transferred.
    pub blocks: u64,
}

impl IoStats {
    /// No I/O.
    pub fn new() -> IoStats {
        IoStats::default()
    }

    /// Record a sequential run: one seek, then `blocks` transfers.
    pub fn sequential_run(&mut self, blocks: u64) {
        if blocks > 0 {
            self.seeks += 1;
            self.blocks += blocks;
        }
    }

    /// Record a random access of `blocks` contiguous blocks.
    pub fn random_access(&mut self, blocks: u64) {
        self.sequential_run(blocks);
    }
}

impl std::ops::Add for IoStats {
    type Output = IoStats;
    fn add(self, rhs: IoStats) -> IoStats {
        IoStats {
            seeks: self.seeks + rhs.seeks,
            blocks: self.blocks + rhs.blocks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_run_counts_one_seek() {
        let mut s = IoStats::new();
        s.sequential_run(10);
        assert_eq!(
            s,
            IoStats {
                seeks: 1,
                blocks: 10
            }
        );
    }

    #[test]
    fn zero_block_run_is_free() {
        let mut s = IoStats::new();
        s.sequential_run(0);
        assert_eq!(s, IoStats::default());
    }

    #[test]
    fn merge_and_add() {
        let a = IoStats {
            seeks: 1,
            blocks: 2,
        };
        let b = IoStats {
            seeks: 3,
            blocks: 4,
        };
        let a = a + b;
        assert_eq!(
            a,
            IoStats {
                seeks: 4,
                blocks: 6
            }
        );
        assert_eq!(
            a + b,
            IoStats {
                seeks: 7,
                blocks: 10
            }
        );
    }
}
