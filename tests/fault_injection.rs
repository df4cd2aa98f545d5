//! Crash-safety under injected I/O faults: every failure the
//! [`faults`] harness (`tests/support/faults.rs`) can inject — torn writes at
//! every byte offset, failed fsyncs, short reads, bit flips — leaves
//! the snapshot store in one of exactly two states: the previous
//! snapshot loads, or loading returns a typed [`PersistError`]. Never a
//! panic, never silently-wrong data.

use authsearch_core::{AuthConfig, AuthenticatedIndex, DataOwner, Mechanism};
use authsearch_corpus::SyntheticConfig;
use authsearch_crypto::keys::TEST_KEY_BITS;
use authsearch_index::persist::{self, manifest_path, PersistError, SectionTag};
use std::fs;
use std::io::{Read, Write};
use std::path::PathBuf;

#[path = "support/faults.rs"]
mod faults;

use faults::{FaultConfig, FaultyFile};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("authsearch-faults-{name}"));
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every byte a (faulty) file yields, as `load_snapshot_file` reads a
/// snapshot whole with `fs::read` before parsing it.
fn read_all(file: &mut impl Read) -> Vec<u8> {
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes).unwrap();
    bytes
}

fn small_sections(tweak: u8) -> Vec<(SectionTag, Vec<u8>)> {
    vec![
        (*b"ONE ", (0..57u8).map(|b| b ^ tweak).collect()),
        (
            *b"TWO ",
            (0..113u8).map(|b| b.wrapping_add(tweak)).collect(),
        ),
        (*b"TRI ", vec![tweak; 29]),
    ]
}

/// The crash-at-every-offset drill: a writer that dies after exactly
/// `k` bytes of the tmp file, for every `k`, must never disturb the
/// committed snapshot — the tmp file is all that is lost.
#[test]
fn torn_write_at_every_offset_preserves_the_previous_snapshot() {
    let dir = temp_dir("torn");
    let path = dir.join("store.snap");
    let previous = small_sections(0);
    let prev_bytes = persist::encode_snapshot(&previous).unwrap();
    persist::save_snapshot_file(&path, &prev_bytes).unwrap();

    let next = persist::encode_snapshot(&small_sections(0xA5)).unwrap();
    let tmp = dir.join("store.snap.tmp");
    for k in 0..next.len() as u64 {
        let file = fs::File::create(&tmp).unwrap();
        let mut faulty = FaultyFile::new(
            file,
            FaultConfig {
                torn_write_at: Some(k),
                ..FaultConfig::default()
            },
        );
        let err = faulty.write_all(&next).expect_err("write must tear");
        assert!(err.to_string().contains("torn write"), "{err}");
        assert_eq!(faulty.stats().torn_writes, 1);
        drop(faulty);
        // Crash here: tmp never renamed. The committed pair is intact.
        let (sections, info) = persist::load_snapshot_file(&path).unwrap();
        assert_eq!(sections, previous, "offset {k}");
        assert_eq!(info.generation, 1);
    }
    fs::remove_dir_all(&dir).ok();
}

/// An fsync failure is a crash signal: the commit must be abandoned
/// (no rename), and the previous snapshot stays live.
#[test]
fn failed_fsync_aborts_the_commit() {
    let dir = temp_dir("fsync");
    let path = dir.join("store.snap");
    let previous = small_sections(1);
    persist::save_snapshot_file(&path, &persist::encode_snapshot(&previous).unwrap()).unwrap();

    let next = persist::encode_snapshot(&small_sections(2)).unwrap();
    let tmp = dir.join("store.snap.tmp");
    let file = fs::File::create(&tmp).unwrap();
    let mut faulty = FaultyFile::new(
        file,
        FaultConfig {
            fail_sync: true,
            ..FaultConfig::default()
        },
    );
    faulty.write_all(&next).unwrap();
    faulty.sync().expect_err("fsync must fail");
    // The protocol's reaction to a failed fsync: do not rename.
    let (sections, _) = persist::load_snapshot_file(&path).unwrap();
    assert_eq!(sections, previous);
    fs::remove_dir_all(&dir).ok();
}

/// A crash in the window between the data rename and the manifest
/// write: the new container is committed with a stale manifest. The
/// container proves itself through its section digests; the load
/// succeeds with an advisory generation of 0.
#[test]
fn crash_before_manifest_update_still_loads_the_new_data() {
    let dir = temp_dir("manifest-window");
    let path = dir.join("store.snap");
    let previous = small_sections(3);
    persist::save_snapshot_file(&path, &persist::encode_snapshot(&previous).unwrap()).unwrap();

    let next = small_sections(4);
    // Simulate: tmp written, fsynced, renamed over `path` — crash.
    fs::write(&path, persist::encode_snapshot(&next).unwrap()).unwrap();
    let (sections, info) = persist::load_snapshot_file(&path).unwrap();
    assert_eq!(sections, next, "the rename committed the new data");
    assert_eq!(info.generation, 0, "stale manifest demoted to advisory");
    fs::remove_dir_all(&dir).ok();
}

/// Short reads are a legal `Read` outcome, not corruption: a loader fed
/// one byte at a time must produce the identical container.
#[test]
fn short_reads_never_corrupt_a_load() {
    let dir = temp_dir("short-reads");
    let path = dir.join("store.snap");
    let sections = small_sections(5);
    persist::save_snapshot_file(&path, &persist::encode_snapshot(&sections).unwrap()).unwrap();

    for seed in 0..4u64 {
        let file = fs::File::open(&path).unwrap();
        let mut faulty = FaultyFile::new(
            file,
            FaultConfig {
                seed,
                short_read_prob: 0.8,
                ..FaultConfig::default()
            },
        );
        let back = persist::read_snapshot(&read_all(&mut faulty)).unwrap();
        assert_eq!(back, sections, "seed {seed}");
        assert!(faulty.stats().short_reads > 0, "probability 0.8 never hit");
    }
    fs::remove_dir_all(&dir).ok();
}

/// A bit flipped in transit on the read path (cable, controller, RAM)
/// is indistinguishable from tampering and must be caught the same way.
#[test]
fn bit_flip_on_the_read_path_is_a_typed_error() {
    let dir = temp_dir("read-flip");
    let path = dir.join("store.snap");
    let sections = small_sections(6);
    let bytes = persist::encode_snapshot(&sections).unwrap();
    persist::save_snapshot_file(&path, &bytes).unwrap();

    for at in 0..bytes.len() as u64 {
        let file = fs::File::open(&path).unwrap();
        let mut faulty = FaultyFile::new(
            file,
            FaultConfig {
                seed: at,
                flip_read_bit_at: Some(at),
                ..FaultConfig::default()
            },
        );
        match persist::read_snapshot(&read_all(&mut faulty)) {
            Err(PersistError::SectionDigest { .. }) | Err(PersistError::Corrupt(_)) => {}
            Err(other) => panic!("offset {at}: unexpected error class {other:?}"),
            Ok(back) => {
                // The only acceptable "success" would be a flip the
                // generator did not actually apply (offset past EOF
                // cannot happen here) — identical bytes are impossible.
                assert_ne!(back, sections, "offset {at}: flip vanished");
                panic!("offset {at}: corrupted container parsed");
            }
        }
    }
    fs::remove_dir_all(&dir).ok();
}

/// End to end on the full authenticated artifact: flip every byte of
/// the snapshot *file* and every byte of its manifest. Data flips are
/// always a typed load error (digest trailers, then boot signature
/// checks); manifest flips never cost availability (the sidecar is
/// advisory).
#[test]
fn every_bit_flip_in_the_authenticated_snapshot_is_caught() {
    let dir = temp_dir("auth-flip");
    let path = dir.join("auth.snap");
    let corpus = SyntheticConfig::tiny(12, 7).generate();
    let config = AuthConfig::new(Mechanism::TnraCmht);
    let auth = DataOwner::with_cached_key(TEST_KEY_BITS)
        .publish(&corpus, config)
        .auth;
    auth.save_snapshot(&path).unwrap();
    let pristine = fs::read(&path).unwrap();
    let pristine_manifest = fs::read(manifest_path(&path)).unwrap();

    for at in 0..pristine.len() {
        let mut evil = pristine.clone();
        evil[at] ^= 1 << (at % 8);
        fs::write(&path, &evil).unwrap();
        match AuthenticatedIndex::load_snapshot(&path, &config) {
            Err(PersistError::SectionDigest { .. })
            | Err(PersistError::Corrupt(_))
            | Err(PersistError::Stale(_))
            | Err(PersistError::Io(_)) => {}
            Ok(_) => panic!("byte {at}: tampered snapshot loaded"),
        }
    }
    fs::write(&path, &pristine).unwrap();

    for at in 0..pristine_manifest.len() {
        let mut evil = pristine_manifest.clone();
        evil[at] ^= 1 << (at % 8);
        fs::write(manifest_path(&path), &evil).unwrap();
        AuthenticatedIndex::load_snapshot(&path, &config)
            .expect("a corrupt advisory manifest must not cost availability");
    }
    fs::remove_dir_all(&dir).ok();
}
