//! The checksummed container file format and its atomic writer.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic (per file kind, see [`FileKind`])
//! 4       4     format version (per kind: manifest 1, snapshot 2)
//! 8       8     payload length in bytes
//! 16      8     xxh64(payload, seed = CHECKSUM_SEED)
//! 24      len   payload
//! ```
//!
//! Writes go through a temp file + fsync + rename + directory fsync,
//! so a crash at any point leaves either the previous container or
//! the new one — never a torn hybrid. Reads verify magic, version,
//! length, and checksum before handing the payload back.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

use crate::{xxh64, StoreError};

/// Seed for the container payload checksum.
pub(crate) const CHECKSUM_SEED: u64 = 0xB10_5708E; // "BIO STORE"

const HEADER_LEN: usize = 24;

/// The kind of a container file, selecting its 4-byte magic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// A per-world snapshot (`BRSN`).
    Snapshot,
    /// The resident-world manifest (`BRMF`).
    Manifest,
}

impl FileKind {
    fn magic(self) -> [u8; 4] {
        match self {
            FileKind::Snapshot => *b"BRSN",
            FileKind::Manifest => *b"BRMF",
        }
    }

    /// The one format version this kind is written and read at. A
    /// snapshot is at 2 since it stopped carrying the graph cache.
    fn version(self) -> u32 {
        match self {
            FileKind::Snapshot => 2,
            FileKind::Manifest => 1,
        }
    }
}

/// Atomically writes `payload` as a container file at `path`:
/// temp file in the same directory, fsync, rename over the target,
/// fsync the directory. Returns the total file size in bytes.
pub fn write_container(path: &Path, kind: FileKind, payload: &[u8]) -> crate::Result<u64> {
    let mut framed = Vec::with_capacity(HEADER_LEN + payload.len());
    framed.extend_from_slice(&kind.magic());
    framed.extend_from_slice(&kind.version().to_le_bytes());
    framed.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    framed.extend_from_slice(&xxh64(payload, CHECKSUM_SEED).to_le_bytes());
    framed.extend_from_slice(payload);

    let dir = path.parent().ok_or_else(|| {
        StoreError::Corrupt(format!("container path {} has no parent", path.display()))
    })?;
    let tmp = path.with_extension("tmp");
    {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        f.write_all(&framed)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // Persist the rename itself: fsync the containing directory.
    File::open(dir)?.sync_all()?;
    Ok(framed.len() as u64)
}

/// Reads and verifies a container file, returning its payload.
pub fn read_container(path: &Path, kind: FileKind) -> crate::Result<Vec<u8>> {
    let mut raw = Vec::new();
    File::open(path)?.read_to_end(&mut raw)?;
    if raw.len() < HEADER_LEN {
        return Err(StoreError::Corrupt(format!(
            "{}: {} bytes is shorter than the container header",
            path.display(),
            raw.len()
        )));
    }
    if raw[0..4] != kind.magic() {
        return Err(StoreError::Corrupt(format!(
            "{}: bad magic {:?}",
            path.display(),
            &raw[0..4]
        )));
    }
    let version = u32::from_le_bytes(raw[4..8].try_into().unwrap());
    if version != kind.version() {
        return Err(StoreError::Corrupt(format!(
            "{}: unsupported format version {version}",
            path.display()
        )));
    }
    let len = u64::from_le_bytes(raw[8..16].try_into().unwrap());
    let sum = u64::from_le_bytes(raw[16..24].try_into().unwrap());
    let payload = &raw[HEADER_LEN..];
    if payload.len() as u64 != len {
        return Err(StoreError::Corrupt(format!(
            "{}: payload is {} bytes, header says {len}",
            path.display(),
            payload.len()
        )));
    }
    if xxh64(payload, CHECKSUM_SEED) != sum {
        return Err(StoreError::Corrupt(format!(
            "{}: checksum mismatch",
            path.display()
        )));
    }
    Ok(payload.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "biorank-store-container-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trip() {
        let dir = tmpdir("rt");
        let path = dir.join("world.snap");
        let payload = b"snapshot payload \x00\x01\x02".to_vec();
        let size = write_container(&path, FileKind::Snapshot, &payload).unwrap();
        assert_eq!(size, HEADER_LEN as u64 + payload.len() as u64);
        assert_eq!(read_container(&path, FileKind::Snapshot).unwrap(), payload);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Each kind round-trips at its own version (manifest 1, snapshot
    /// 2), and a version-1 snapshot — the layout that still carried
    /// the graph cache — is refused by name.
    #[test]
    fn versions_are_per_kind_and_old_snapshots_are_refused() {
        let dir = tmpdir("ver");
        for (kind, version) in [(FileKind::Manifest, 1u32), (FileKind::Snapshot, 2)] {
            let path = dir.join(format!("{version}"));
            write_container(&path, kind, b"payload").unwrap();
            assert_eq!(fs::read(&path).unwrap()[4..8], version.to_le_bytes());
            assert_eq!(read_container(&path, kind).unwrap(), b"payload");
        }
        let path = dir.join("old.snap");
        write_container(&path, FileKind::Snapshot, b"payload").unwrap();
        let mut raw = fs::read(&path).unwrap();
        raw[4..8].copy_from_slice(&1u32.to_le_bytes());
        fs::write(&path, &raw).unwrap();
        let err = read_container(&path, FileKind::Snapshot).unwrap_err();
        assert!(
            err.to_string().contains("unsupported format version 1"),
            "{err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn overwrite_replaces_previous_contents() {
        let dir = tmpdir("ow");
        let path = dir.join("m");
        write_container(&path, FileKind::Manifest, b"one").unwrap();
        write_container(&path, FileKind::Manifest, b"two").unwrap();
        assert_eq!(read_container(&path, FileKind::Manifest).unwrap(), b"two");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_kind_rejected() {
        let dir = tmpdir("kind");
        let path = dir.join("f");
        write_container(&path, FileKind::Snapshot, b"x").unwrap();
        assert!(matches!(
            read_container(&path, FileKind::Manifest),
            Err(StoreError::Corrupt(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_detected() {
        let dir = tmpdir("bits");
        let path = dir.join("f");
        write_container(&path, FileKind::Snapshot, b"important payload").unwrap();
        // Flip one payload bit on disk.
        let mut raw = fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0x10;
        fs::write(&path, &raw).unwrap();
        assert!(matches!(
            read_container(&path, FileKind::Snapshot),
            Err(StoreError::Corrupt(_))
        ));
        // Truncation is also caught.
        fs::write(&path, &raw[..raw.len() - 3]).unwrap();
        assert!(read_container(&path, FileKind::Snapshot).is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
