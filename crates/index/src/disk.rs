//! Simulated disk model.
//!
//! The paper measures I/O time on a Seagate ST973401KC (73 GB, 10 kRPM
//! SAS) with 1-KByte blocks and caching disabled (§4.1). We replace the
//! physical disk with a parametric service-time model applied to the exact
//! block-access trace of each algorithm ([`IoStats`]): every head
//! repositioning pays average seek plus half-rotation latency, and every
//! block pays transfer time. The paper's findings are *ratios* between
//! algorithms (random-heavy TRA vs sequential TNRA; full-list MHT scans vs
//! cut-off CMHT reads), and those ratios depend only on the trace, which is
//! exact.

use crate::iostats::IoStats;

/// Disk service-time parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskModel {
    /// Average seek time in milliseconds.
    pub seek_ms: f64,
    /// Average rotational latency in milliseconds (half a revolution).
    pub rotational_ms: f64,
    /// Sustained transfer rate in MB/s.
    pub transfer_mb_per_s: f64,
    /// Block size in bytes.
    pub block_bytes: usize,
}

impl DiskModel {
    /// The paper's testbed disk: Seagate ST973401KC — 10,000 RPM
    /// (→ 3.0 ms average rotational latency), ~4.1 ms average read seek,
    /// ~79 MB/s sustained transfer; 1-KByte blocks.
    pub fn seagate_st973401kc() -> DiskModel {
        DiskModel {
            seek_ms: 4.1,
            rotational_ms: 3.0,
            transfer_mb_per_s: 79.0,
            block_bytes: 1024,
        }
    }

    /// Time to transfer one block, in seconds.
    pub(crate) fn block_transfer_secs(&self) -> f64 {
        self.block_bytes as f64 / (self.transfer_mb_per_s * 1_000_000.0)
    }

    /// Time to reposition the head once, in seconds.
    pub(crate) fn seek_secs(&self) -> f64 {
        (self.seek_ms + self.rotational_ms) / 1000.0
    }

    /// Simulated service time for an access trace, in seconds.
    pub fn service_time(&self, io: IoStats) -> f64 {
        io.seeks as f64 * self.seek_secs() + io.blocks as f64 * self.block_transfer_secs()
    }
}

impl Default for DiskModel {
    fn default() -> Self {
        DiskModel::seagate_st973401kc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_disk_constants() {
        let d = DiskModel::seagate_st973401kc();
        assert_eq!(d.block_bytes, 1024);
        // One random 1K block ≈ 7.1 ms dominated by positioning.
        let t = d.service_time(IoStats {
            seeks: 1,
            blocks: 1,
        });
        assert!(t > 0.007 && t < 0.008, "t={t}");
    }

    #[test]
    fn sequential_reads_are_cheap() {
        let d = DiskModel::default();
        // 1000 sequential blocks after one seek: ~13 ms transfer.
        let seq = d.service_time(IoStats {
            seeks: 1,
            blocks: 1000,
        });
        // 1000 random single blocks: ~7.1 s.
        let rand = d.service_time(IoStats {
            seeks: 1000,
            blocks: 1000,
        });
        assert!(rand / seq > 100.0, "ratio={}", rand / seq);
    }

    #[test]
    fn service_time_is_linear() {
        let d = DiskModel::default();
        let a = d.service_time(IoStats {
            seeks: 2,
            blocks: 10,
        });
        let b = d.service_time(IoStats {
            seeks: 4,
            blocks: 20,
        });
        assert!((b - 2.0 * a).abs() < 1e-12);
    }

    #[test]
    fn zero_io_is_zero_time() {
        assert_eq!(DiskModel::default().service_time(IoStats::new()), 0.0);
    }
}
