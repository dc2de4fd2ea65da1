//! Crash points of the manifest write. Each seeded case drives one
//! `WorldStore` through a generated run of admin transitions — loads,
//! swaps, evicts, a load batched with its LRU victims, snapshot saves
//! and checkpoints — the way the registry does. After every
//! acknowledged transition a fresh open must recover exactly the state
//! the reference fold in this file computes, and so must each
//! directory a crash inside that transition's write can leave: a
//! `MANIFEST.tmp` cut at every length beside the previous manifest,
//! and a complete one whose rename never happened.

#[path = "../../../tests/common/cases.rs"]
mod cases;

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use biorank_obs::MetricsRegistry;
use biorank_store::{
    escape_name, RecoveredWorld, Recovery, StoredSpec, WalOp, WorldStore, MANIFEST_FILE,
};

/// Case `i` runs seed `FIRST_SEED + i`; a failure names its seed,
/// and `RERUN = Some(seed)` runs that case alone.
const CASES: u64 = 96;
const FIRST_SEED: u64 = 0xC7A5_0000;
const RERUN: Option<u64> = None;

/// The reference: the acknowledged registry, and the worlds whose
/// snapshot file is on disk.
#[derive(Default)]
struct Model {
    registry: Recovery,
    saved: BTreeSet<String>,
}

impl Model {
    fn fold(&mut self, op: &WalOp) {
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
                let next = &mut self.registry.next_generation;
                *next = (*next).max(generation + 1);
                let entry = RecoveredWorld {
                    spec: *spec,
                    generation: *generation,
                    snapshot: None,
                };
                self.registry.worlds.insert(world.clone(), entry);
            }
            WalOp::Evict { world } => {
                self.registry.worlds.remove(world);
                self.saved.remove(world);
            }
        }
    }

    /// What `recover` must report: each world with its own snapshot
    /// file if and only if that file is on disk.
    fn expected(&self) -> Recovery {
        let mut want = self.registry.clone();
        for (name, world) in &mut want.worlds {
            let file = format!("{}.snap", escape_name(name));
            world.snapshot = self.saved.contains(name).then_some(file);
        }
        want
    }
}

fn recover(dir: &Path) -> Recovery {
    WorldStore::open(dir, &MetricsRegistry::new())
        .and_then(|store| store.recover())
        .unwrap_or_else(|e| panic!("open {}: {e}", dir.display()))
}

/// Puts the manifest from before the last write back (`None`: there
/// was none) beside a `MANIFEST.tmp` holding that write's bytes, cut
/// at every length, longest (the rename that never happened) first.
/// Each must recover `want`. Then restores the write.
fn crash_points(dir: &Path, before: Option<&[u8]>, want: &Recovery, name: &str) {
    let manifest = dir.join(MANIFEST_FILE);
    let after = fs::read(&manifest).unwrap();
    match before {
        Some(bytes) => fs::write(&manifest, bytes).unwrap(),
        None => fs::remove_file(&manifest).unwrap(),
    }
    let tmp = manifest.with_extension("tmp");
    fs::write(&tmp, &after).unwrap();
    let file = fs::OpenOptions::new().write(true).open(&tmp).unwrap();
    for cut in (0..=after.len()).rev() {
        file.set_len(cut as u64).unwrap();
        let len = after.len();
        let what = format!("MANIFEST.tmp holds {cut} of {len} bytes, never renamed");
        assert_eq!(&recover(dir), want, "{name}: {what}");
    }
    fs::remove_file(&tmp).unwrap();
    fs::write(&manifest, after).unwrap();
}

fn run_case(seed: u64, rng: &mut cases::Rng) {
    let dir = std::env::temp_dir().join(format!(
        "biorank-crash-points-{}-{seed:x}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    let store = WorldStore::open(&dir, &MetricsRegistry::new()).unwrap();
    let mut model = Model::default();
    let mut name = String::from("after");
    for generation in 1..=1 + rng.below(13) {
        // A '/' needs escaping, so snapshot file naming is exercised.
        let world = format!("w/{}", rng.below(4));
        let s = rng.below(10);
        let spec = StoredSpec {
            seed: s,
            extended: s.is_multiple_of(2),
            cache_capacity: s % 5 * 4,
        };
        let load = WalOp::Load {
            world: world.clone(),
            spec,
            generation,
        };
        let before = fs::read(dir.join(MANIFEST_FILE)).ok();
        let ops = match rng.below(7) {
            // A `world.save`: a snapshot file, no manifest write.
            0 => {
                name += &format!(" save {world:?};");
                store.save_snapshot(&world, b"payload").unwrap();
                model.saved.insert(world);
                Vec::new()
            }
            // A checkpoint: every world's snapshot, then the manifest
            // as folded, rewritten.
            1 => {
                name += " checkpoint;";
                for world in model.registry.worlds.keys() {
                    store.save_snapshot(world, b"payload").unwrap();
                    model.saved.insert(world.clone());
                }
                store.apply(&[]).unwrap();
                crash_points(&dir, before.as_deref(), &model.expected(), &name);
                Vec::new()
            }
            2 => vec![WalOp::Swap {
                world,
                spec,
                generation,
            }],
            3 => vec![WalOp::Evict { world }],
            // A load batched with up to two LRU victims.
            4 => {
                let victims = model.registry.worlds.keys().take(rng.below(3) as usize);
                let evict = |world: &String| WalOp::Evict {
                    world: world.clone(),
                };
                victims.map(evict).chain([load]).collect()
            }
            _ => vec![load],
        };
        if !ops.is_empty() {
            name += &format!(" {ops:?};");
            store.apply(&ops).unwrap();
            crash_points(&dir, before.as_deref(), &model.expected(), &name);
            for op in &ops {
                model.fold(op);
                if let WalOp::Evict { world } = op {
                    // The registry drops a victim's snapshot after the write.
                    store.remove_snapshot(world).unwrap();
                }
            }
        }
        assert_eq!(recover(&dir), model.expected(), "{name}");
        assert_eq!(store.recover().unwrap(), model.expected(), "{name}");
    }
    assert!(!dir.join("wal.log").exists(), "{name}: a wal.log appeared");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn any_prefix_recovers_consistently() {
    cases::run(CASES, FIRST_SEED, RERUN, run_case);
}
