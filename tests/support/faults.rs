//! Deterministic fault-injection I/O: the adversarial sibling of the
//! simulated testbed disk.
//!
//! `authsearch_index::disk` models how long honest I/O *takes*;
//! `authsearch_index::iostats` counts what honest I/O *touches*. This module
//! models I/O that *misbehaves*: [`FaultyFile`] wraps any
//! `Read`/`Write`/`Seek` transport and injects, under a seedable plan,
//! the four storage failures the snapshot layer
//! (`authsearch_index::persist`) must survive —
//!
//! * **short reads** — `read` returns fewer bytes than asked (legal per
//!   the `Read` contract, and exactly what unbuffered pipes and network
//!   filesystems do), flushing out any decoder that assumes one call
//!   fills the buffer;
//! * **torn writes** — the write stream dies at a configured byte
//!   offset, with everything before the offset durable and nothing
//!   after: a process crash or power cut mid-write;
//! * **fsync failures** — `flush`/[`FaultyFile::sync`] report an error,
//!   the firmware-lied / thinly-provisioned-volume case;
//! * **bit flips** — one read byte comes back with a flipped bit, the
//!   silent-corruption case checksums exist for.
//!
//! Everything is a pure function of [`FaultConfig`] (including its
//! `seed`): the same plan over the same transport replays the same
//! faults, so every failing case in the harness is replayable.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, Read, Seek, SeekFrom, Write};

/// The fault plan of one [`FaultyFile`]. `Default` injects nothing —
/// each fault is opted into independently so tests isolate one failure
/// mode at a time (or compose several).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the deterministic RNG driving probabilistic faults
    /// (short-read lengths and the flipped bit's position).
    pub seed: u64,
    /// Probability that any single `read` call returns a strict prefix
    /// of what the transport had available (`0.0` = never).
    pub short_read_prob: f64,
    /// Total bytes the write stream accepts before the injected crash:
    /// bytes up to the offset reach the transport, the write that
    /// crosses it fails, and every later write fails too (the process
    /// is "dead"). `None` = writes never tear.
    pub torn_write_at: Option<u64>,
    /// Make `flush` and [`FaultyFile::sync`] fail.
    pub fail_sync: bool,
    /// Flip one bit of the byte at this absolute read offset (bit index
    /// drawn from the seed). `None` = reads come back honest.
    pub flip_read_bit_at: Option<u64>,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            seed: 0,
            short_read_prob: 0.0,
            torn_write_at: None,
            fail_sync: false,
            flip_read_bit_at: None,
        }
    }
}

/// What a [`FaultyFile`] actually did — the fault-side counterpart of
/// `authsearch_index::IoStats`'s honest block counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// `read` calls observed.
    pub reads: u64,
    /// `write` calls observed (successful ones).
    pub writes: u64,
    /// `flush`/`sync` calls observed.
    pub syncs: u64,
    /// Reads shortened below what was asked.
    pub short_reads: u64,
    /// Injected write crashes (at most 1).
    pub torn_writes: u64,
    /// Injected sync failures.
    pub failed_syncs: u64,
    /// Bits flipped on the read path (at most 1).
    pub bit_flips: u64,
}

/// A `Read`/`Write`/`Seek` transport with deterministic, seedable fault
/// injection. See the [module docs](self) for the fault catalogue.
#[derive(Debug)]
pub struct FaultyFile<F> {
    inner: F,
    config: FaultConfig,
    rng: StdRng,
    /// Absolute read-stream position (tracks seeks).
    read_pos: u64,
    /// Total bytes accepted by the write stream.
    written: u64,
    /// The torn-write crash has fired; all later writes fail.
    crashed: bool,
    /// The one configured bit flip has been delivered.
    flipped: bool,
    stats: FaultStats,
}

fn injected(what: &str) -> io::Error {
    io::Error::other(format!("injected fault: {what}"))
}

impl<F> FaultyFile<F> {
    /// Wrap `inner` under `config`'s fault plan.
    pub fn new(inner: F, config: FaultConfig) -> FaultyFile<F> {
        FaultyFile {
            inner,
            rng: StdRng::seed_from_u64(config.seed),
            config,
            read_pos: 0,
            written: 0,
            crashed: false,
            flipped: false,
            stats: FaultStats::default(),
        }
    }

    /// Counters of everything injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Unwrap the transport (e.g. to inspect the bytes a torn write
    /// actually persisted).
    pub fn into_inner(self) -> F {
        self.inner
    }

    /// Durability barrier: counts as a sync, fails under
    /// [`FaultConfig::fail_sync`]. (The `File`-level `sync_all` is not a
    /// trait method, so the harness models it here.)
    pub fn sync(&mut self) -> io::Result<()> {
        self.stats.syncs += 1;
        if self.config.fail_sync {
            self.stats.failed_syncs += 1;
            return Err(injected("fsync failure"));
        }
        Ok(())
    }
}

impl<F: Read> Read for FaultyFile<F> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stats.reads += 1;
        let mut limit = buf.len();
        if limit > 1 && self.config.short_read_prob > 0.0 {
            let p = self.config.short_read_prob.min(1.0);
            if self.rng.gen_bool(p) {
                self.stats.short_reads += 1;
                limit = self.rng.gen_range(1..limit);
            }
        }
        let n = self.inner.read(&mut buf[..limit])?;
        if let Some(off) = self.config.flip_read_bit_at {
            if !self.flipped && off >= self.read_pos && off < self.read_pos + n as u64 {
                let bit = (self.rng.gen::<u8>() % 8) as u32;
                buf[(off - self.read_pos) as usize] ^= 1u8 << bit;
                self.flipped = true;
                self.stats.bit_flips += 1;
            }
        }
        self.read_pos += n as u64;
        Ok(n)
    }
}

impl<F: Write> Write for FaultyFile<F> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.crashed {
            return Err(injected("write after crash"));
        }
        if let Some(limit) = self.config.torn_write_at {
            if self.written + buf.len() as u64 > limit {
                // Persist the prefix that "reached the platter", then
                // die: the caller's write_all sees the error with the
                // partial bytes already down — a torn write.
                let keep = (limit - self.written) as usize;
                if keep > 0 {
                    self.inner.write_all(&buf[..keep])?;
                    self.written += keep as u64;
                }
                self.crashed = true;
                self.stats.torn_writes += 1;
                return Err(injected("torn write (crash mid-stream)"));
            }
        }
        let n = self.inner.write(buf)?;
        self.written += n as u64;
        self.stats.writes += 1;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stats.syncs += 1;
        if self.config.fail_sync {
            self.stats.failed_syncs += 1;
            return Err(injected("fsync failure"));
        }
        self.inner.flush()
    }
}

impl<F: Seek> Seek for FaultyFile<F> {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        let new = self.inner.seek(pos)?;
        self.read_pos = new;
        Ok(new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn clean_plan_is_transparent() {
        let data: Vec<u8> = (0..=255u8).collect();
        let mut f = FaultyFile::new(Cursor::new(data.clone()), FaultConfig::default());
        let mut out = Vec::new();
        f.read_to_end(&mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(f.stats().short_reads, 0);
        assert_eq!(f.stats().bit_flips, 0);
    }

    #[test]
    fn short_reads_are_deterministic_and_lossless() {
        let data: Vec<u8> = (0..2048u32).flat_map(|i| i.to_le_bytes()).collect();
        let plan = FaultConfig {
            seed: 7,
            short_read_prob: 0.8,
            ..FaultConfig::default()
        };
        let run = |plan: FaultConfig| {
            let mut f = FaultyFile::new(Cursor::new(data.clone()), plan);
            let mut out = Vec::new();
            let mut frags = Vec::new();
            let mut buf = [0u8; 64];
            loop {
                let n = f.read(&mut buf).unwrap();
                if n == 0 {
                    break;
                }
                frags.push(n);
                out.extend_from_slice(&buf[..n]);
            }
            (out, frags, f.stats())
        };
        let (a, fa, sa) = run(plan);
        let (b, fb, sb) = run(plan);
        // Short reads fragment the stream but never lose bytes.
        assert_eq!(a, data);
        assert_eq!(b, data);
        assert!(sa.short_reads > 0, "plan injected nothing");
        assert_eq!(sa, sb, "same seed, same faults");
        assert_eq!(fa, fb, "same seed, same fragmentation");
        let (_, other_frags, _) = run(FaultConfig { seed: 8, ..plan });
        assert_ne!(fa, other_frags, "seeds decorrelate");
    }

    #[test]
    fn torn_write_persists_exact_prefix_then_dies() {
        let payload = vec![0xABu8; 1000];
        for cut in [0u64, 1, 17, 999] {
            let mut f = FaultyFile::new(
                Cursor::new(Vec::new()),
                FaultConfig {
                    torn_write_at: Some(cut),
                    ..FaultConfig::default()
                },
            );
            let err = f.write_all(&payload).unwrap_err();
            assert!(err.to_string().contains("torn write"), "{err}");
            // Once dead, always dead.
            assert!(f.write_all(b"x").is_err());
            assert_eq!(f.stats().torn_writes, 1);
            let persisted = f.into_inner().into_inner();
            assert_eq!(persisted.len() as u64, cut);
            assert!(persisted.iter().all(|&b| b == 0xAB));
        }
    }

    #[test]
    fn write_at_exactly_the_limit_survives() {
        let mut f = FaultyFile::new(
            Cursor::new(Vec::new()),
            FaultConfig {
                torn_write_at: Some(8),
                ..FaultConfig::default()
            },
        );
        f.write_all(&[1u8; 8]).unwrap();
        assert!(f.write_all(&[2u8; 1]).is_err());
        assert_eq!(f.into_inner().into_inner(), vec![1u8; 8]);
    }

    #[test]
    fn sync_failures_surface() {
        let mut f = FaultyFile::new(
            Cursor::new(Vec::new()),
            FaultConfig {
                fail_sync: true,
                ..FaultConfig::default()
            },
        );
        f.write_all(b"data").unwrap();
        assert!(f.flush().is_err());
        assert!(f.sync().is_err());
        assert_eq!(f.stats().failed_syncs, 2);
    }

    #[test]
    fn bit_flip_hits_its_offset_once() {
        let data = vec![0u8; 64];
        let plan = FaultConfig {
            seed: 3,
            flip_read_bit_at: Some(40),
            ..FaultConfig::default()
        };
        let mut f = FaultyFile::new(Cursor::new(data), plan);
        let mut out = Vec::new();
        f.read_to_end(&mut out).unwrap();
        assert_eq!(f.stats().bit_flips, 1);
        let changed: Vec<usize> = (0..64).filter(|&i| out[i] != 0).collect();
        assert_eq!(changed, vec![40]);
        assert_eq!(out[40].count_ones(), 1, "exactly one bit flipped");
        // Deterministic: same plan flips the same bit.
        let mut again = FaultyFile::new(Cursor::new(vec![0u8; 64]), plan);
        let mut out2 = Vec::new();
        again.read_to_end(&mut out2).unwrap();
        assert_eq!(out, out2);
    }

    #[test]
    fn seek_tracks_read_position_for_flips() {
        let data: Vec<u8> = (0..64u8).collect();
        let plan = FaultConfig {
            seed: 1,
            flip_read_bit_at: Some(10),
            ..FaultConfig::default()
        };
        let mut f = FaultyFile::new(Cursor::new(data), plan);
        // Skip past the flip offset: byte 10 is read at stream position
        // 10 even though the first read starts at 8.
        f.seek(SeekFrom::Start(8)).unwrap();
        let mut buf = [0u8; 8];
        f.read_exact(&mut buf).unwrap();
        assert_eq!(f.stats().bit_flips, 1);
        assert_ne!(buf[2], 10, "byte at absolute offset 10 was flipped");
    }
}
