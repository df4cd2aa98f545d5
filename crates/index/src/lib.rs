//! # authsearch-index
//!
//! The inverted-index substrate of the framework (paper §2.1):
//!
//! * [`okapi`] — the Okapi BM25 weights of Formula (1);
//! * `postings` — frequency-ordered impact lists `⟨d, w_{d,t}⟩`;
//! * [`dictionary`] — the [`InvertedIndex`] (dictionary + lists);
//! * [`builder`] — corpus → index construction (the Lucene stand-in);
//! * [`block`] — the 1-KByte block layout and the ρ / ρ′ capacities;
//! * [`disk`] — the simulated Seagate ST973401KC disk of the testbed;
//! * `iostats` — block-access traces fed into the disk model;
//! * [`codec`] — the one bounded byte reader and writer that every wire
//!   frame, verification object, snapshot section and index record is
//!   read and written through;
//! * [`persist`] — binary serialization for indexes and corpora, plus
//!   the crash-safe, digest-trailed v2 snapshot container.

#![warn(missing_docs)]

pub mod block;
pub mod builder;
pub mod codec;
pub mod dictionary;
pub mod disk;
pub(crate) mod iostats;
pub mod okapi;
pub mod persist;
pub(crate) mod postings;

pub use block::BlockLayout;
pub use builder::build_index;
pub use dictionary::{IndexError, InvertedIndex};
pub use disk::DiskModel;
pub use iostats::IoStats;
pub use okapi::OkapiParams;
pub use persist::{PersistError, SnapshotInfo};
pub use postings::{ImpactEntry, InvertedList};
