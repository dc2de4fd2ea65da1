//! # biorank-store
//!
//! Durable world persistence for the BioRank serving layer: versioned,
//! checksummed binary snapshots of resident worlds, a directory
//! manifest of what is resident, and an append-only admin write-ahead
//! log so a `biorank serve --data-dir` restart comes back warm instead
//! of rebuilding every world from scratch.
//!
//! Like the rest of the workspace this crate is dependency-free by
//! design (the container builds offline; `vendor/serde` is a marker
//! stand-in with no codegen), so all encodings are hand-rolled
//! little-endian binary with an [XXH64](xxh::xxh64) integrity checksum.
//!
//! ## On-disk layout
//!
//! A data directory managed by [`WorldStore`] contains:
//!
//! ```text
//! <data-dir>/
//!   MANIFEST            container file, magic "BRMF" — resident-world manifest
//!   wal.log             append-only framed record log of admin ops
//!   <world>.snap        container file, magic "BRSN" — per-world snapshot payload
//! ```
//!
//! World names are percent-escaped ([`escape_name`]) to form safe
//! snapshot file names.
//!
//! ## Container file format
//!
//! Every container file ([`write_container`]/[`read_container`]) is:
//!
//! ```text
//! [magic: 4 bytes][version: u32 LE][len: u64 LE][xxh64(payload): u64 LE][payload: len bytes]
//! ```
//!
//! The version is per file kind: the manifest is at 1, snapshots at 2
//! (version 1 snapshots also carried the graph cache, which a snapshot
//! no longer holds). A reader accepts only its kind's current version,
//! so an old snapshot is refused by name — its world restores cold.
//!
//! Containers are written atomically: payload goes to `<name>.tmp`,
//! the file is fsync'd, renamed over the target, and the directory is
//! fsync'd — a crash mid-write never leaves a torn container behind.
//! A bad magic, unknown version, short file, or checksum mismatch is
//! reported as [`StoreError::Corrupt`].
//!
//! ## WAL record format
//!
//! The WAL (`wal.log`) is a sequence of self-delimiting records:
//!
//! ```text
//! [len: u32 LE][xxh64(payload): u64 LE][payload: len bytes]
//! ```
//!
//! each payload being one encoded [`WalOp`]. Appends are fsync'd
//! before the admin op is acknowledged. Replay
//! ([`WorldStore::recover`]) stops at the first torn or
//! checksum-failing record, so a crash mid-append loses at most the
//! unacknowledged tail — never previously acknowledged ops.
//! [`WorldStore::checkpoint`] compacts the log: it atomically rewrites
//! the manifest to the current registry state and truncates the WAL.
//!
//! ## Telemetry
//!
//! Store operations publish `store.{snapshot_write,snapshot_load,`
//! `wal_append,wal_replay,checkpoint}` counters plus
//! `store.snapshot_bytes` / `store.load_ns` histograms into the
//! [`MetricsRegistry`](biorank_obs::MetricsRegistry) handed to
//! [`WorldStore::open`], so persistence activity shows up in the same
//! `metrics` admin op as the query path.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bytes;
pub mod container;
pub mod manifest;
pub mod store;
pub mod wal;
pub mod xxh;

pub use bytes::{Reader, Writer};
pub use container::{read_container, write_container, FileKind};
pub use manifest::{Manifest, ManifestEntry, StoredSpec};
pub use store::{escape_name, RecoveredWorld, Recovery, WorldStore, MANIFEST_FILE, WAL_FILE};
pub use wal::WalOp;
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
