//! # biorank-store
//!
//! Durable world persistence for the BioRank serving layer: versioned,
//! checksummed binary snapshots of resident worlds and a directory
//! manifest of what is resident, rewritten whole on every admin op, so
//! a `biorank serve --data-dir` restart comes back warm instead of
//! rebuilding every world from scratch.
//!
//! Like the rest of the workspace this crate is dependency-free by
//! design (the container builds offline), so all encodings are
//! hand-rolled little-endian binary ([`Writer`]/[`Reader`]) with an
//! [XXH64](xxh::xxh64) integrity checksum.
//!
//! ## On-disk layout
//!
//! A data directory managed by [`WorldStore`] contains:
//!
//! ```text
//! <data-dir>/
//!   MANIFEST            container file, magic "BRMF" — resident-world manifest
//!   <world>.snap        container file, magic "BRSN" — per-world snapshot payload
//! ```
//!
//! World names are percent-escaped ([`escape_name`]) to form safe
//! snapshot file names. A `wal.log` left by an older release is
//! removed at open when empty and refused when not.
//!
//! ## Container files
//!
//! Both kinds are checksummed, versioned container files
//! ([`write_container`]/[`read_container`]; the layout is in
//! [`container`]), written atomically: temp file, fsync, rename,
//! directory fsync. A reader accepts only its kind's current version,
//! so an old snapshot is refused by name and its world restores cold;
//! any other damage is reported as [`StoreError::Corrupt`].
//!
//! ## Durability of admin ops
//!
//! [`WorldStore::open`] reads the manifest once. Each acknowledged
//! admin transition — a load or swap together with its LRU victims,
//! an evict — takes the manifest lock ([`WorldStore::begin`]) before
//! it changes the registry, then folds its [`WalOp`]s into that
//! in-memory manifest and rewrites the whole file through the atomic
//! container writer ([`ManifestTxn::commit`]) before the ack goes out.
//! So the file follows the registry in the order it changed, and a
//! crash leaves it before or after a transition, never between its
//! ops. A checkpoint writes every world's snapshot, then the manifest
//! as folded. The manifest names no snapshot files: recovery
//! ([`WorldStore::recover`]) gives each world its `<world>.snap` when
//! that file exists.
//!
//! ## Telemetry
//!
//! Store operations publish `store.{snapshot_write,snapshot_load,`
//! `manifest_write}` counters plus `store.snapshot_bytes` /
//! `store.load_ns` histograms into the
//! [`MetricsRegistry`](biorank_obs::MetricsRegistry) handed to
//! [`WorldStore::open`], so persistence activity shows up in the same
//! `metrics` admin op as the query path.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bytes;
pub mod container;
pub mod manifest;
pub mod store;
pub mod xxh;

pub use bytes::{Reader, Writer};
pub use container::{read_container, write_container, FileKind};
pub use manifest::{Manifest, ManifestEntry, StoredSpec, WalOp};
pub use store::{escape_name, ManifestTxn, RecoveredWorld, Recovery, WorldStore, MANIFEST_FILE};
pub use xxh::xxh64;

use std::fmt;

/// Errors produced by the persistence layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// Filesystem-level failure.
    Io(std::io::Error),
    /// A file or record failed structural or checksum validation.
    Corrupt(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io: {e}"),
            StoreError::Corrupt(msg) => write!(f, "store corrupt: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Corrupt(_) => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Shorthand result type for store operations.
pub type Result<T> = std::result::Result<T, StoreError>;
