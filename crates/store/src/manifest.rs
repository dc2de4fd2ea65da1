//! The resident-world manifest: the one authoritative record of which
//! worlds a data directory holds, with their specs and generations.
//! Every admin op ([`WalOp`]) folds into it with [`Manifest::apply`],
//! and [`crate::WorldStore`] rewrites the whole file after each batch.

use std::collections::BTreeMap;

use crate::bytes::{Reader, Writer};

/// A world build spec as persisted on disk. This mirrors the serving
/// layer's `WorldSpec` without depending on it — the store crate sits
/// below the service and only needs a stable, encodable record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredSpec {
    /// World-generation seed.
    pub seed: u64,
    /// Whether the extended federation (full schema) is enabled.
    pub extended: bool,
    /// Per-layer result cache capacity.
    pub cache_capacity: u64,
}

impl StoredSpec {
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.u64(self.seed);
        w.bool(self.extended);
        w.u64(self.cache_capacity);
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> crate::Result<Self> {
        Ok(Self {
            seed: r.u64()?,
            extended: r.bool()?,
            cache_capacity: r.u64()?,
        })
    }
}

/// One admin operation on the registry, folded into the manifest by
/// [`Manifest::apply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// A world was loaded under `generation`.
    Load {
        /// Registry key.
        world: String,
        /// Build spec.
        spec: StoredSpec,
        /// Generation assigned at install.
        generation: u64,
    },
    /// A world was swapped to a new spec under `generation`.
    Swap {
        /// Registry key.
        world: String,
        /// The replacement spec.
        spec: StoredSpec,
        /// Generation assigned at install.
        generation: u64,
    },
    /// A world was evicted (explicitly or by LRU pressure).
    Evict {
        /// Registry key.
        world: String,
    },
}

/// One resident world in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// The spec the world was built from.
    pub spec: StoredSpec,
    /// The generation the world held when recorded.
    pub generation: u64,
    /// Snapshot file name inside the data directory: set by
    /// [`crate::WorldStore::recover`] when the world's file exists.
    /// Written ones decode but are ignored, so the byte format keeps
    /// the slot.
    pub snapshot: Option<String>,
}

/// The decoded manifest: the next generation to hand out plus every
/// resident world by name. A map, so the encoding is independent of
/// the order worlds were recorded in.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// The registry's next unassigned generation counter.
    pub next_generation: u64,
    /// Resident worlds by name.
    pub worlds: BTreeMap<String, ManifestEntry>,
}

impl Manifest {
    /// Encodes the manifest into a container payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.next_generation);
        w.u64(self.worlds.len() as u64);
        for (name, entry) in &self.worlds {
            w.str(name);
            entry.spec.encode(&mut w);
            w.u64(entry.generation);
            match &entry.snapshot {
                Some(file) => {
                    w.bool(true);
                    w.str(file);
                }
                None => w.bool(false),
            }
        }
        w.into_inner()
    }

    /// Decodes a manifest from a verified container payload.
    pub fn decode(payload: &[u8]) -> crate::Result<Self> {
        let mut r = Reader::new(payload);
        let next_generation = r.u64()?;
        let count = r.u64()?;
        let mut worlds = BTreeMap::new();
        for _ in 0..count {
            let name = r.str()?;
            let entry = ManifestEntry {
                spec: StoredSpec::decode(&mut r)?,
                generation: r.u64()?,
                snapshot: if r.bool()? { Some(r.str()?) } else { None },
            };
            worlds.insert(name, entry);
        }
        r.finish()?;
        Ok(Self {
            next_generation,
            worlds,
        })
    }

    /// Folds one op into the manifest. A world is recorded without a
    /// snapshot file: recovery finds that by name, and the loader
    /// verifies its spec.
    pub fn apply(&mut self, op: &WalOp) {
        match op {
            WalOp::Load {
                world,
                spec,
                generation,
            }
            | WalOp::Swap {
                world,
                spec,
                generation,
            } => {
                self.next_generation = self.next_generation.max(generation + 1);
                let entry = ManifestEntry {
                    spec: *spec,
                    generation: *generation,
                    snapshot: None,
                };
                self.worlds.insert(world.clone(), entry);
            }
            WalOp::Evict { world } => {
                self.worlds.remove(world);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        let entry =
            |seed, extended, cache_capacity, generation, snapshot: Option<&str>| ManifestEntry {
                spec: StoredSpec {
                    seed,
                    extended,
                    cache_capacity,
                },
                generation,
                snapshot: snapshot.map(Into::into),
            };
        Manifest {
            next_generation: 9,
            worlds: BTreeMap::from([
                (
                    "default".into(),
                    entry(0xB10_C0DE, true, 512, 1, Some("default.snap")),
                ),
                ("staging/w2".into(), entry(42, false, 0, 8, None)),
            ]),
        }
    }

    #[test]
    fn round_trip() {
        let m = sample();
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn empty_round_trip() {
        let m = Manifest::default();
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
    }

    /// Worlds recorded in any order encode to the same bytes.
    #[test]
    fn normalize_is_stable() {
        let reversed = Manifest {
            next_generation: 9,
            worlds: sample().worlds.into_iter().rev().collect(),
        };
        assert_eq!(reversed.encode(), sample().encode());
    }

    #[test]
    fn truncated_payload_rejected() {
        let raw = sample().encode();
        for cut in [0, 1, raw.len() / 2, raw.len() - 1] {
            assert!(Manifest::decode(&raw[..cut]).is_err(), "cut {cut} accepted");
        }
    }
}
