//! Multi-world tenancy: a registry of named resident worlds.
//!
//! A production deployment serves many worlds at once — per-seed
//! snapshots, the compact vs extended federation, staging data warmed
//! up next to live data — and must swap one out without ever serving a
//! stale ranked answer. [`WorldManager`] owns that registry:
//!
//! * **Concurrent read, exclusive swap.** Resolving a world clones an
//!   `Arc<QueryEngine>` under a briefly-held registry lock; query
//!   execution itself never holds any tenancy lock, so a swap on one
//!   world cannot stall queries on another (or even in-flight queries
//!   on the same world — they complete against the engine they
//!   resolved).
//! * **Swap = fresh engine = cold caches.** [`WorldManager::swap`]
//!   builds the replacement engine *outside* the lock, then replaces
//!   the registry entry in one critical section and bumps the world's
//!   generation counter. Both cache layers of the replaced engine die
//!   with its last `Arc` — there is no window in which a post-swap
//!   request can observe a pre-swap cache entry, which is exactly what
//!   `tests/service_tenancy.rs` asserts. The swap runs no query on the
//!   replacement: concurrent first misses on one key after the swap
//!   share one computation through the engine's single-flight table.
//! * **LRU eviction under a resident budget.** Worlds are heavy (a
//!   generated world plus two cache layers), so at most
//!   [`WorldManager::budget`] stay resident; loading past the budget
//!   evicts the least-recently-resolved world. The default world is
//!   pinned and never evicted.
//! * **One install step.** Every way an engine becomes resident —
//!   `load`, `swap`, a background load, a warm-restart restore, the
//!   default world of `with_default` — goes through one private
//!   install: under the registry lock it makes room, assigns a fresh
//!   generation (a restore adopts its recorded one) and inserts;
//!   outside the lock it counts, refreshes the gauges, then writes
//!   every victim plus the op to the manifest in one durable write. So
//!   every LRU victim is counted on `tenancy.evict.lru` and durable,
//!   restores included — a reboot under a smaller budget never
//!   resurrects what it evicted, and a restore that cannot fit at all
//!   is recorded as evicted too. Both background paths share one
//!   spawner and its panic guard.
//!
//! Generations are drawn from one registry-wide monotonic counter
//! (assigned under the registry lock), so they survive eviction with
//! no per-name bookkeeping: `world.load` → `world.evict` →
//! `world.load` is observably a different generation, and a client
//! can always tell whether two responses could have come from the
//! same engine.

use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use biorank_mediator::Mediator;
use biorank_obs::{MetricsRegistry, MetricsSnapshot, SlowQueryEntry};
use biorank_rank::Strategy;
use biorank_schema::{biorank_schema_full, biorank_schema_with_ontology};
use biorank_sources::{World, WorldParams};
use biorank_store::{ManifestTxn, Recovery, StoreError, WalOp, WorldStore};

use crate::engine::{EngineStats, QueryEngine, DEFAULT_CACHE_CAPACITY};
use crate::persist;

/// The name of the world queries route to when they name none.
pub const DEFAULT_WORLD: &str = "default";

/// Default resident-world budget.
pub const DEFAULT_WORLD_BUDGET: usize = 4;

/// Everything needed to (re)build one world's engine: the generation
/// seed plus the federation configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorldSpec {
    /// Master world seed; equal seeds generate equal worlds.
    pub seed: u64,
    /// Integrate over the full 11-source federation instead of the
    /// paper's Fig. 1 subset.
    pub extended: bool,
    /// Per-layer LRU capacity of the world's engine caches.
    pub cache_capacity: usize,
}

impl Default for WorldSpec {
    fn default() -> Self {
        WorldSpec {
            seed: WorldParams::default().seed,
            extended: false,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
        }
    }
}

impl WorldSpec {
    /// Generates the world and wraps it in a fresh engine (fresh, cold
    /// caches). This is the expensive step; callers run it outside any
    /// registry lock.
    pub fn build(&self) -> QueryEngine {
        let world = World::generate(WorldParams {
            seed: self.seed,
            extended: self.extended,
            ..WorldParams::default()
        });
        let bundle = if self.extended {
            biorank_schema_full()
        } else {
            biorank_schema_with_ontology()
        };
        let hints = bundle.hints.clone();
        QueryEngine::with_cache_capacity(
            Mediator::new(bundle.schema, world.into_registry()),
            self.cache_capacity,
        )
        // The bundle's Theorem 3.2 compose hints feed the query
        // planner's schema-reducibility feature.
        .with_hints(hints)
    }

    /// A stable 64-bit fingerprint of this spec (XXH64 over its
    /// canonical binary encoding). Surfaced in `world.list` so an
    /// operator can confirm a restarted world was rebuilt from — or
    /// snapshot-restored to — exactly the pre-restart configuration;
    /// also embedded in snapshot payloads as a cheap drift check.
    pub fn spec_hash(&self) -> u64 {
        let mut w = biorank_store::Writer::new();
        w.u64(self.seed);
        w.bool(self.extended);
        w.u64(self.cache_capacity as u64);
        biorank_store::xxh64(&w.into_inner(), 0x5bec_6a54)
    }
}

/// Tenancy-level failures, rendered over the wire as error strings.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum TenancyError {
    /// A query or admin command named a world that is not resident.
    WorldNotFound(String),
    /// A query or admin command named a world whose background build
    /// has not finished yet.
    WorldLoading(String),
    /// `world.load` of an existing name with a different spec (use
    /// `world.swap` to replace a resident world).
    SpecMismatch(String),
    /// The resident budget is exhausted and no world is evictable.
    BudgetExhausted(usize),
    /// The default world cannot be evicted.
    DefaultPinned,
    /// The durability layer failed to record or restore an admin op
    /// (manifest write, snapshot write/read). The in-memory registry
    /// may be ahead of the manifest; the op itself completed.
    Persist(String),
}

impl fmt::Display for TenancyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TenancyError::WorldNotFound(name) => write!(f, "world {name:?} is not resident"),
            TenancyError::WorldLoading(name) => {
                write!(f, "world {name:?} is still loading")
            }
            TenancyError::SpecMismatch(name) => write!(
                f,
                "world {name:?} is already resident with a different spec; use world.swap"
            ),
            TenancyError::BudgetExhausted(budget) => write!(
                f,
                "resident-world budget ({budget}) exhausted and nothing is evictable"
            ),
            TenancyError::DefaultPinned => {
                write!(
                    f,
                    "the {DEFAULT_WORLD:?} world is pinned and cannot be evicted"
                )
            }
            TenancyError::Persist(msg) => write!(f, "persistence failed: {msg}"),
        }
    }
}

impl std::error::Error for TenancyError {}

fn persist_error(e: StoreError) -> TenancyError {
    TenancyError::Persist(e.to_string())
}

/// Residency state of a world in a `world.list` snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WorldState {
    /// Resident and serving queries.
    #[default]
    Ready,
    /// A background `world.load` is still building the engine.
    Loading,
}

impl WorldState {
    /// The canonical wire spelling.
    pub fn wire_name(&self) -> &'static str {
        match self {
            WorldState::Ready => "ready",
            WorldState::Loading => "loading",
        }
    }

    /// Parses the wire spelling.
    pub fn parse(name: &str) -> Option<WorldState> {
        Some(match name {
            "ready" => WorldState::Ready,
            "loading" => WorldState::Loading,
            _ => return None,
        })
    }
}

/// A snapshot of one resident (or loading) world, as reported by
/// `world.list`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorldInfo {
    /// Registry name.
    pub name: String,
    /// The spec the resident engine was built from (for a loading
    /// world: the spec being built).
    pub spec: WorldSpec,
    /// Generation of the resident engine, from the registry-wide
    /// monotonic counter (every load and swap draws a fresh one).
    /// A loading world has no engine yet and reports 0.
    pub generation: u64,
    /// Whether the world is serving or still building.
    pub state: WorldState,
    /// This world's planner strategy mix — its `planner.chosen.*`
    /// counters, indexed by [`biorank_rank::Strategy::index`]
    /// (exact, reduced, word, traversal) — so operators can read the
    /// per-world strategy distribution straight off `world.list`.
    /// All zero for loading worlds (no engine yet).
    pub planner_chosen: [u64; 4],
}

/// Per-world counters inside a [`ServiceStats`] report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorldStats {
    /// Registry name.
    pub name: String,
    /// Current generation.
    pub generation: u64,
    /// Cache counters of the world's engine.
    pub engine: EngineStats,
}

/// The `stats` wire command's payload: every resident world's cache
/// counters plus the tenancy configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceStats {
    /// Resident-world budget.
    pub budget: usize,
    /// Number of resident worlds.
    pub resident: usize,
    /// Whether a durable [`WorldStore`] backs this registry (`biorank
    /// serve --data-dir`): admin ops are written to the manifest and
    /// worlds survive a restart.
    pub durable: bool,
    /// Per-world counters, sorted by name.
    pub worlds: Vec<WorldStats>,
}

/// One resident world's full metrics snapshot inside a
/// [`MetricsReport`]. A world's registry lives (and dies) with its
/// engine, so a swapped world starts its counters from zero — exactly
/// like its caches.
#[derive(Clone, Debug, PartialEq)]
pub struct WorldMetrics {
    /// Registry name.
    pub name: String,
    /// Snapshot of the world engine's metrics registry.
    pub metrics: MetricsSnapshot,
}

/// The `metrics` wire command's payload: the service-level registry
/// (tenancy + server counters), every resident world's registry, and
/// the slow-query ring buffer.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsReport {
    /// Service-level counters, gauges, and histograms (tenancy
    /// operations, connection/request accounting).
    pub service: MetricsSnapshot,
    /// Per-world snapshots, sorted by name.
    pub worlds: Vec<WorldMetrics>,
    /// Most recent slow queries, oldest first.
    pub slow_queries: Vec<SlowQueryEntry>,
}

/// What [`WorldManager::open_durable`] booted.
pub struct DurableBoot {
    /// The store-backed registry, its default world resident.
    pub manager: Arc<WorldManager>,
    /// The manifest state the registry restores from.
    pub recovery: Recovery,
    /// Recovered worlds handed to a restore: all of them, less a
    /// recovered default whose spec the caller replaced.
    pub restored: usize,
}

#[derive(Clone)]
struct WorldEntry {
    engine: Arc<QueryEngine>,
    spec: WorldSpec,
    generation: u64,
    last_used: u64,
}

struct Registry {
    worlds: HashMap<String, WorldEntry>,
    /// Worlds whose background `world.load` build is still running.
    /// Disjoint from `worlds`: installation moves a name from here to
    /// there under one critical section.
    loading: HashMap<String, WorldSpec>,
    /// Registry-wide monotonic generation counter. Assigned under the
    /// lock, so later inserts always carry greater generations; being
    /// global (not per-name) it survives eviction with no per-name
    /// state to leak, and any re-load or swap of a name is observably
    /// newer than every earlier engine of that name.
    next_generation: u64,
}

impl Registry {
    fn bump(&mut self) -> u64 {
        self.next_generation += 1;
        self.next_generation
    }

    /// `Some` when `name` is resident: its generation if it holds
    /// `spec`, [`TenancyError::SpecMismatch`] if it holds another.
    fn resident(&self, name: &str, spec: WorldSpec) -> Option<Result<u64, TenancyError>> {
        self.worlds.get(name).map(|e| {
            if e.spec == spec {
                Ok(e.generation)
            } else {
                Err(TenancyError::SpecMismatch(name.to_string()))
            }
        })
    }

    /// The least-recently-resolved worlds that must go before
    /// `incoming` fits under `budget` (none when it is already
    /// resident), or `None` when the pinned default world leaves too
    /// few candidates.
    fn lru_victims(&self, budget: usize, incoming: &str) -> Option<Vec<String>> {
        if self.worlds.contains_key(incoming) {
            return Some(Vec::new());
        }
        let excess = (self.worlds.len() + 1).saturating_sub(budget);
        let mut candidates: Vec<(&String, u64)> = self
            .worlds
            .iter()
            .filter(|(name, _)| name.as_str() != DEFAULT_WORLD)
            .map(|(name, e)| (name, e.last_used))
            .collect();
        if candidates.len() < excess {
            return None;
        }
        candidates.sort_unstable_by_key(|&(_, last_used)| last_used);
        Some(
            candidates[..excess]
                .iter()
                .map(|(name, _)| (*name).clone())
                .collect(),
        )
    }

    /// Cheap pre-flight: would `incoming` fit right now? Checked
    /// before the expensive world build so an exhausted budget rejects
    /// in microseconds, not after generating (and discarding) a world;
    /// the install re-checks under its own lock.
    fn check_room(&self, budget: usize, incoming: &str) -> Result<(), TenancyError> {
        self.lru_victims(budget, incoming)
            .map(drop)
            .ok_or(TenancyError::BudgetExhausted(budget))
    }
}

/// How an engine comes to be installed: the one thing the callers of
/// the install step differ in.
#[derive(Clone, Copy)]
enum Install {
    /// `world.load`, synchronous or background: a fresh generation.
    Load,
    /// `world.swap`: a fresh generation, replacing any resident engine.
    Swap,
    /// A recovered world: adopts its recorded generation.
    Restore { generation: u64 },
}

impl Install {
    /// The counter and manifest op of an installed world. A restore
    /// has neither: it was counted when claimed, and it is already in
    /// the manifest.
    fn record(
        self,
        world: &str,
        spec: WorldSpec,
        generation: u64,
    ) -> Option<(&'static str, WalOp)> {
        let (world, spec) = (world.to_string(), persist::stored_spec(spec));
        match self {
            Install::Load => Some((
                "tenancy.load",
                WalOp::Load {
                    world,
                    spec,
                    generation,
                },
            )),
            Install::Swap => Some((
                "tenancy.swap",
                WalOp::Swap {
                    world,
                    spec,
                    generation,
                },
            )),
            Install::Restore { .. } => None,
        }
    }
}

/// A thread-safe registry of named resident worlds.
///
/// Share it with an `Arc`; every operation takes `&self`. The registry
/// lock is held only for map bookkeeping — world generation and query
/// execution always happen outside it.
///
/// Lock order: a change the manifest records (a load, swap or restore
/// with its victims, an evict, attaching the store) takes the store's
/// manifest lock first, then the registry lock, never the reverse; it
/// writes the manifest after dropping the registry lock. So the
/// manifest follows the registry in the order it changed, and no
/// manifest write runs under the registry lock. `resolve` takes only
/// the registry lock.
pub struct WorldManager {
    registry: Mutex<Registry>,
    budget: usize,
    clock: AtomicU64,
    /// Service-level metrics: tenancy operations live here, and the
    /// server registers its connection/request counters into the same
    /// registry so one `metrics` snapshot covers the whole service.
    metrics: Arc<MetricsRegistry>,
    /// Durable backing, when serving with `--data-dir`: every
    /// acknowledged load/swap/evict is written to the manifest here
    /// **after** the registry mutation and **before** the op returns,
    /// and [`save`](WorldManager::save) and
    /// [`checkpoint`](WorldManager::checkpoint) write per-world
    /// snapshots beside it.
    store: Option<Arc<WorldStore>>,
}

impl WorldManager {
    /// An empty manager with the given resident budget (clamped to at
    /// least 1).
    pub fn new(budget: usize) -> Self {
        WorldManager {
            registry: Mutex::new(Registry {
                worlds: HashMap::new(),
                loading: HashMap::new(),
                next_generation: 0,
            }),
            budget: budget.max(1),
            clock: AtomicU64::new(0),
            metrics: Arc::new(MetricsRegistry::new()),
            store: None,
        }
    }

    /// Attaches a durable [`WorldStore`]: every subsequent
    /// load/swap/evict is written to the manifest before it is
    /// acknowledged, and the worlds already resident (e.g. the default
    /// world of [`with_default`](WorldManager::with_default)) are
    /// written now, so they too survive a restart. A restore
    /// ([`restore_background`](WorldManager::restore_background))
    /// writes only the evictions it causes.
    pub fn with_store(mut self, store: Arc<WorldStore>) -> Result<Self, TenancyError> {
        self.store = Some(store);
        let txn = self.begin();
        let resident: Vec<WalOp> = self
            .lock()
            .worlds
            .iter()
            .map(|(name, entry)| WalOp::Load {
                world: name.clone(),
                spec: persist::stored_spec(entry.spec),
                generation: entry.generation,
            })
            .collect();
        self.log_ops(txn, &resident)?;
        Ok(self)
    }

    /// The attached durable store, if any.
    pub fn store(&self) -> Option<&Arc<WorldStore>> {
        self.store.as_ref()
    }

    /// Raises the registry's generation counter so freshly assigned
    /// generations never collide with ones recovered from a store
    /// (`next` is the store's "next unassigned" convention). Called
    /// once at boot, before any restore installs.
    pub fn set_generation_floor(&self, next: u64) {
        let mut reg = self.lock();
        reg.next_generation = reg.next_generation.max(next.saturating_sub(1));
    }

    fn lock(&self) -> MutexGuard<'_, Registry> {
        self.registry.lock().expect("world registry")
    }

    /// The manifest lock, when a store is attached: taken before the
    /// registry lock by every change the manifest records.
    fn begin(&self) -> Option<ManifestTxn<'_>> {
        self.store.as_deref().map(WorldStore::begin)
    }

    /// Commits `ops` to the manifest in one durable write, after the
    /// registry mutation they describe and outside its lock, then drops
    /// each evicted world's snapshot; with no store or no ops it writes
    /// nothing. A failure surfaces as [`TenancyError::Persist`]: the
    /// in-memory op stands, the caller's ack carries the error.
    fn log_ops(&self, txn: Option<ManifestTxn<'_>>, ops: &[WalOp]) -> Result<(), TenancyError> {
        let (Some(txn), Some(store)) = (txn.filter(|_| !ops.is_empty()), &self.store) else {
            return Ok(());
        };
        txn.commit(ops).map_err(persist_error)?;
        for op in ops {
            if let WalOp::Evict { world } = op {
                // Best-effort: a stale snapshot is also guarded against
                // at import time by the spec check.
                let _ = store.remove_snapshot(world);
            }
        }
        Ok(())
    }

    /// The service-level metrics registry. Tenancy counters land here;
    /// the server shares it for its own connection/request metrics.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Refreshes the `tenancy.resident` / `tenancy.loading` gauges;
    /// called after any registry mutation, outside the registry lock
    /// where convenient (gauges are last-write-wins by design).
    fn update_residency_gauges(&self, resident: usize, loading: usize) {
        self.metrics.gauge("tenancy.resident").set(resident as u64);
        self.metrics.gauge("tenancy.loading").set(loading as u64);
    }

    /// A manager whose [`DEFAULT_WORLD`] is an already-built engine —
    /// how a single-world `Server::bind` wraps its engine.
    pub fn with_default(engine: Arc<QueryEngine>, spec: WorldSpec, budget: usize) -> Self {
        let mgr = WorldManager::new(budget);
        mgr.install(None, mgr.lock(), DEFAULT_WORLD, spec, engine, Install::Load)
            .expect("an empty, storeless registry always installs");
        mgr
    }

    /// The resident-world budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Resolves a world name (`None` = [`DEFAULT_WORLD`]) to its
    /// engine, marking it most-recently-used. The returned `Arc` stays
    /// valid across concurrent swaps and evictions — callers execute
    /// against it without holding any lock.
    pub fn resolve(&self, world: Option<&str>) -> Result<Arc<QueryEngine>, TenancyError> {
        let name = world.unwrap_or(DEFAULT_WORLD);
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut reg = self.lock();
        let Some(entry) = reg.worlds.get_mut(name) else {
            return Err(if reg.loading.contains_key(name) {
                TenancyError::WorldLoading(name.to_string())
            } else {
                TenancyError::WorldNotFound(name.to_string())
            });
        };
        entry.last_used = stamp;
        Ok(Arc::clone(&entry.engine))
    }

    /// Ensures `name` is resident with `spec`, building it if absent.
    /// Returns the world's generation. Loading an already-resident
    /// world with the identical spec is a cheap no-op; with a
    /// different spec it is an error ([`TenancyError::SpecMismatch`])
    /// — replacement is `swap`'s job, never an accident of `load`.
    pub fn load(&self, name: &str, spec: WorldSpec) -> Result<u64, TenancyError> {
        {
            let reg = self.lock();
            if let Some(resident) = reg.resident(name, spec) {
                return resident;
            }
            // A sync load must not race a background build of the name.
            if reg.loading.contains_key(name) {
                return Err(TenancyError::WorldLoading(name.to_string()));
            }
            reg.check_room(self.budget, name)?;
        }
        // Build outside the lock: generation takes milliseconds and
        // must not block queries on resident worlds.
        let engine = Arc::new(spec.build());
        let txn = self.begin();
        let reg = self.lock();
        // Lost a build race? Keep the winner.
        if let Some(resident) = reg.resident(name, spec) {
            return resident;
        }
        self.install(txn, reg, name, spec, engine, Install::Load)
    }

    /// Starts loading `name` on a detached worker thread and returns
    /// immediately: the admin connection (and its worker slot) is free
    /// while the world generates. The world appears in
    /// [`list`](WorldManager::list) as `loading` until the worker
    /// installs it; queries naming it fail with
    /// [`TenancyError::WorldLoading`] until then.
    ///
    /// Returns `Ok(Some(generation))` when `name` is already resident
    /// with the identical spec (nothing to do), `Ok(None)` when a
    /// build is now (or was already) in flight for that spec. A
    /// mismatched spec is refused exactly like the synchronous
    /// [`load`](WorldManager::load). If the budget fills up while the
    /// build runs, the finished engine is discarded and the loading
    /// marker cleared — background loading is best-effort, and
    /// `world.list` tells the operator the outcome either way.
    pub fn load_background(
        self: &Arc<Self>,
        name: &str,
        spec: WorldSpec,
    ) -> Result<Option<u64>, TenancyError> {
        let reg = self.lock();
        if let Some(resident) = reg.resident(name, spec) {
            return resident.map(Some);
        }
        if let Some(pending) = reg.loading.get(name) {
            if *pending == spec {
                return Ok(None);
            }
            return Err(TenancyError::WorldLoading(name.to_string()));
        }
        reg.check_room(self.budget, name)?;
        self.spawn_install(reg, name, spec, Install::Load, move || spec.build());
        self.metrics.counter("tenancy.load_background").inc();
        Ok(None)
    }

    /// The one background path, behind both
    /// [`load_background`](WorldManager::load_background) and
    /// [`restore_background`](WorldManager::restore_background):
    /// claims `name` as loading (under `reg`), then runs `build` on a
    /// detached thread and installs its engine. The claim never
    /// outlives the thread: a build that panics installs nothing, an
    /// evict that removed the claim first cancels the install (see
    /// [`evict`](WorldManager::evict)), and a sync load or swap that
    /// installed the name meanwhile is kept.
    fn spawn_install(
        self: &Arc<Self>,
        mut reg: MutexGuard<'_, Registry>,
        name: &str,
        spec: WorldSpec,
        how: Install,
        build: impl FnOnce() -> QueryEngine + Send + 'static,
    ) {
        reg.loading.insert(name.to_string(), spec);
        let (resident, loading) = (reg.worlds.len(), reg.loading.len());
        drop(reg);
        self.update_residency_gauges(resident, loading);
        let mgr = Arc::clone(self);
        let name = name.to_string();
        std::thread::spawn(move || {
            // Build outside every lock, then clear the claim and
            // install (or give up) in one critical section.
            let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(build));
            let txn = mgr.begin();
            let mut reg = mgr.lock();
            let claimed = reg.loading.remove(&name).is_some();
            match built {
                Ok(engine) if claimed && !reg.worlds.contains_key(&name) => {
                    // No admin connection waits on a background
                    // install, so a failed write surfaces as telemetry.
                    if let Err(TenancyError::Persist(_)) =
                        mgr.install(txn, reg, &name, spec, Arc::new(engine), how)
                    {
                        mgr.metrics.counter("tenancy.persist_errors").inc();
                    }
                }
                _ => {
                    let (resident, loading) = (reg.worlds.len(), reg.loading.len());
                    drop(reg);
                    mgr.update_residency_gauges(resident, loading);
                }
            }
        });
    }

    /// The one way an engine becomes resident. Under the registry
    /// lock (`reg`, taken by the caller after the manifest lock `txn`
    /// and its own checks): make room, then assign a fresh generation
    /// or adopt a restore's recorded one, then insert. Outside it:
    /// counters and gauges, then commit every victim plus the op, if
    /// there is one, to the manifest at once. A restore that cannot
    /// fit is its own victim — evicted on arrival and recorded as
    /// such, so the next boot does not bring it back.
    /// Returns the installed generation.
    fn install(
        &self,
        txn: Option<ManifestTxn<'_>>,
        mut reg: MutexGuard<'_, Registry>,
        name: &str,
        spec: WorldSpec,
        engine: Arc<QueryEngine>,
        how: Install,
    ) -> Result<u64, TenancyError> {
        let (victims, generation) = match reg.lru_victims(self.budget, name) {
            Some(victims) => {
                for victim in &victims {
                    reg.worlds.remove(victim);
                }
                let generation = match how {
                    Install::Restore { generation } => {
                        reg.next_generation = reg.next_generation.max(generation);
                        generation
                    }
                    Install::Load | Install::Swap => reg.bump(),
                };
                let last_used = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
                reg.worlds.insert(
                    name.to_string(),
                    WorldEntry {
                        engine,
                        spec,
                        generation,
                        last_used,
                    },
                );
                (victims, Some(generation))
            }
            None if matches!(how, Install::Restore { .. }) => (vec![name.to_string()], None),
            None => return Err(TenancyError::BudgetExhausted(self.budget)),
        };
        let (resident, loading) = (reg.worlds.len(), reg.loading.len());
        drop(reg);
        let record = generation.and_then(|g| how.record(name, spec, g));
        if let Some((counter, _)) = &record {
            self.metrics.counter(counter).inc();
        }
        if !victims.is_empty() {
            self.metrics
                .counter("tenancy.evict.lru")
                .add(victims.len() as u64);
        }
        self.update_residency_gauges(resident, loading);
        let evicts = victims.into_iter().map(|world| WalOp::Evict { world });
        let ops: Vec<WalOp> = evicts.chain(record.map(|(_, op)| op)).collect();
        self.log_ops(txn, &ops)?;
        generation.ok_or(TenancyError::BudgetExhausted(self.budget))
    }

    /// Replaces (or creates) `name` with a freshly built engine and
    /// bumps its generation. The replaced engine's two cache layers
    /// are dropped with its last `Arc`, so every post-swap request
    /// recomputes — in-flight requests that already resolved the old
    /// engine finish against it, but can never repopulate the new one.
    ///
    /// `_warm` is ignored: the parameter stays only because the
    /// benchmark harness still passes it, and goes with the harness's
    /// next update.
    pub fn swap(&self, name: &str, spec: WorldSpec, _warm: usize) -> Result<u64, TenancyError> {
        self.lock().check_room(self.budget, name)?;
        let engine = Arc::new(spec.build());
        let txn = self.begin();
        self.install(txn, self.lock(), name, spec, engine, Install::Swap)
    }

    /// Evicts a resident world. The default world is pinned. Evicting
    /// a name that is still background-loading **cancels** the load:
    /// the marker is cleared here, and the worker discards its engine
    /// when it finds the claim gone at install time.
    pub fn evict(&self, name: &str) -> Result<(), TenancyError> {
        if name == DEFAULT_WORLD {
            return Err(TenancyError::DefaultPinned);
        }
        let txn = self.begin();
        let mut reg = self.lock();
        if reg.worlds.remove(name).is_some() || reg.loading.remove(name).is_some() {
            let (resident, loading) = (reg.worlds.len(), reg.loading.len());
            drop(reg);
            self.metrics.counter("tenancy.evict").inc();
            self.update_residency_gauges(resident, loading);
            let world = name.to_string();
            self.log_ops(txn, &[WalOp::Evict { world }])?;
            return Ok(());
        }
        Err(TenancyError::WorldNotFound(name.to_string()))
    }

    /// `world.save`: writes a durable snapshot of one resident world —
    /// its spec plus the result cache — as an atomic,
    /// checksummed container file in the data directory. Returns the
    /// world's generation and the snapshot size in bytes. Requires an
    /// attached store.
    pub fn save(&self, name: &str) -> Result<(u64, u64), TenancyError> {
        let store = self.require_store()?;
        let world = {
            let reg = self.lock();
            let Some(world) = reg.worlds.get(name) else {
                return Err(if reg.loading.contains_key(name) {
                    TenancyError::WorldLoading(name.to_string())
                } else {
                    TenancyError::WorldNotFound(name.to_string())
                });
            };
            world.clone()
        };
        Ok((world.generation, snapshot_world(store, name, &world)?))
    }

    /// `checkpoint`: snapshots every resident world like
    /// [`save`](WorldManager::save), then rewrites the manifest as
    /// folded, so a drain also carries an earlier failed write to
    /// disk. A restart after a checkpoint reloads every world from its
    /// snapshot. Returns `(worlds, total snapshot bytes)`. Requires an
    /// attached store.
    pub fn checkpoint(&self) -> Result<(usize, u64), TenancyError> {
        let store = self.require_store()?;
        let worlds = self.lock().worlds.clone();
        let mut total_bytes = 0u64;
        for (name, world) in &worlds {
            total_bytes += snapshot_world(store, name, world)?;
        }
        store.apply(&[]).map_err(persist_error)?;
        Ok((worlds.len(), total_bytes))
    }

    /// Warm-restart install: rebuilds a recovered world on a detached
    /// worker thread under its **recorded** generation (no counter
    /// bump, no manifest write of its own — it is already recorded),
    /// then replays the snapshot payload's result
    /// entries into the fresh engine so it answers bit-identically
    /// from its first request. A payload whose embedded spec
    /// mismatches `spec` is skipped (cold caches) — the stale-snapshot
    /// guard. The world lists as `loading` until installed, exactly
    /// like a background load, and installs like one: the worlds it
    /// evicts — or the world itself, when nothing is evictable — are
    /// counted and written to the manifest.
    pub fn restore_background(
        self: &Arc<Self>,
        name: &str,
        spec: WorldSpec,
        generation: u64,
        snapshot: Option<Vec<u8>>,
    ) -> Result<(), TenancyError> {
        let reg = self.lock();
        if reg.worlds.contains_key(name) || reg.loading.contains_key(name) {
            return Err(TenancyError::SpecMismatch(name.to_string()));
        }
        let metrics = Arc::clone(&self.metrics);
        self.spawn_install(
            reg,
            name,
            spec,
            Install::Restore { generation },
            move || {
                let engine = spec.build();
                if let Some(payload) = snapshot {
                    // A corrupt or stale payload serves cold rather than
                    // wrong.
                    let outcome = match persist::import_snapshot(&engine, &payload, spec) {
                        Ok(_) => "tenancy.restore.snapshot",
                        Err(_) => "tenancy.restore.cold",
                    };
                    metrics.counter(outcome).inc();
                }
                engine
            },
        );
        self.metrics.counter("tenancy.restore").inc();
        Ok(())
    }

    /// The durable boot behind `biorank serve --data-dir`: opens (or
    /// creates) `dir`, reads its manifest, attaches the
    /// store, raises the generation floor, and restores every
    /// recovered world in the background — warm from its snapshot
    /// when that loads, cold when it does not. `default` is the
    /// default world's spec: a recovered default with another spec is
    /// skipped and rebuilt from `default` (the caller's spec wins), as
    /// is a missing one. Returns once the default world resolves;
    /// other worlds may still be restoring.
    pub fn open_durable(
        dir: impl AsRef<Path>,
        default: WorldSpec,
        budget: usize,
    ) -> Result<DurableBoot, TenancyError> {
        let dir = dir.as_ref();
        let store_err = |what: &str, e: StoreError| {
            TenancyError::Persist(format!("{what} data dir {}: {e}", dir.display()))
        };
        let manager = WorldManager::new(budget);
        let store =
            Arc::new(WorldStore::open(dir, manager.metrics()).map_err(|e| store_err("open", e))?);
        let recovery = store.recover().map_err(|e| store_err("recover", e))?;
        let manager = Arc::new(manager.with_store(Arc::clone(&store))?);
        manager.set_generation_floor(recovery.next_generation);
        let mut restored = 0;
        for (name, world) in &recovery.worlds {
            let spec = persist::world_spec(world.spec).map_err(|e| store_err("recover", e))?;
            if name == DEFAULT_WORLD && spec != default {
                continue;
            }
            // A missing or corrupt snapshot downgrades to a cold
            // rebuild of the recorded spec, never a boot failure.
            let snapshot = world
                .snapshot
                .as_deref()
                .and_then(|f| store.load_snapshot(f).ok());
            manager.restore_background(name, spec, world.generation, snapshot)?;
            restored += 1;
        }
        // Wait for the default: a restored one installs on its worker
        // thread (the pinned default always fits); a skipped or missing
        // one — or one whose restore panicked — loads from `default`.
        loop {
            match manager.resolve(None) {
                Ok(_) => break,
                Err(TenancyError::WorldLoading(_)) => {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
                Err(TenancyError::WorldNotFound(_)) => {
                    manager.load(DEFAULT_WORLD, default)?;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(DurableBoot {
            manager,
            recovery,
            restored,
        })
    }

    fn require_store(&self) -> Result<&Arc<WorldStore>, TenancyError> {
        self.store.as_ref().ok_or_else(|| {
            TenancyError::Persist("no data directory attached (serve with --data-dir)".into())
        })
    }

    /// Snapshot of every resident and loading world, sorted by name.
    pub fn list(&self) -> Vec<WorldInfo> {
        // Clone the engines out of the lock, then read their planner
        // counters unlocked — metric reads must not nest inside the
        // registry lock.
        let (ready, loading) = {
            let reg = self.lock();
            (
                reg.worlds
                    .iter()
                    .map(|(name, e)| (name.clone(), e.spec, e.generation, Arc::clone(&e.engine)))
                    .collect::<Vec<_>>(),
                reg.loading
                    .iter()
                    .map(|(name, spec)| (name.clone(), *spec))
                    .collect::<Vec<_>>(),
            )
        };
        let mut out: Vec<WorldInfo> = ready
            .into_iter()
            .map(|(name, spec, generation, engine)| {
                let mut planner_chosen = [0u64; 4];
                for strategy in Strategy::ALL {
                    planner_chosen[strategy.index()] = engine
                        .metrics()
                        .counter(&format!("planner.chosen.{}", strategy.wire_name()))
                        .get();
                }
                WorldInfo {
                    name,
                    spec,
                    generation,
                    state: WorldState::Ready,
                    planner_chosen,
                }
            })
            .chain(loading.into_iter().map(|(name, spec)| WorldInfo {
                name,
                spec,
                generation: 0,
                state: WorldState::Loading,
                planner_chosen: [0; 4],
            }))
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// The `stats` payload: per-world cache counters, sorted by name.
    pub fn stats(&self) -> ServiceStats {
        // Clone the engines out of the lock, then read their counters
        // unlocked — `QueryEngine::stats` itself takes cache-shard
        // locks and must not nest inside the registry lock.
        let engines: Vec<(String, u64, Arc<QueryEngine>)> = {
            let reg = self.lock();
            reg.worlds
                .iter()
                .map(|(name, e)| (name.clone(), e.generation, Arc::clone(&e.engine)))
                .collect()
        };
        let mut worlds: Vec<WorldStats> = engines
            .into_iter()
            .map(|(name, generation, engine)| WorldStats {
                name,
                generation,
                engine: engine.stats(),
            })
            .collect();
        worlds.sort_by(|a, b| a.name.cmp(&b.name));
        ServiceStats {
            budget: self.budget,
            resident: worlds.len(),
            durable: self.store.is_some(),
            worlds,
        }
    }

    /// Per-world metrics snapshots, sorted by name. Like
    /// [`stats`](WorldManager::stats), engines are cloned out of the
    /// registry lock and snapshotted unlocked. `reset` zeroes each
    /// world's registry *after* its snapshot is taken, so a
    /// `metrics {reset: true}` reads and clears atomically enough for
    /// interval scraping.
    pub fn world_metrics(&self, reset: bool) -> Vec<WorldMetrics> {
        let engines: Vec<(String, Arc<QueryEngine>)> = {
            let reg = self.lock();
            reg.worlds
                .iter()
                .map(|(name, e)| (name.clone(), Arc::clone(&e.engine)))
                .collect()
        };
        let mut worlds: Vec<WorldMetrics> = engines
            .into_iter()
            .map(|(name, engine)| {
                let metrics = engine.metrics_snapshot();
                if reset {
                    engine.metrics().reset();
                }
                WorldMetrics { name, metrics }
            })
            .collect();
        worlds.sort_by(|a, b| a.name.cmp(&b.name));
        worlds
    }
}

/// Exports one world's snapshot and writes it as `name`'s file, outside
/// the registry lock: a snapshot of a busy world must not stall
/// resolves on other worlds. Returns the file's size in bytes.
fn snapshot_world(store: &WorldStore, name: &str, world: &WorldEntry) -> Result<u64, TenancyError> {
    let payload = persist::export_snapshot(&world.engine, world.spec);
    let (_file, bytes) = store.save_snapshot(name, &payload).map_err(persist_error)?;
    Ok(bytes)
}

// Tenancy is the concurrency boundary of the service; prove at compile
// time it can cross threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<WorldManager>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheStats;

    fn tiny(seed: u64) -> WorldSpec {
        WorldSpec {
            seed,
            extended: false,
            cache_capacity: 8,
        }
    }

    #[test]
    fn resolve_unknown_world_errors() {
        let mgr = WorldManager::new(2);
        assert_eq!(
            mgr.resolve(None).err(),
            Some(TenancyError::WorldNotFound(DEFAULT_WORLD.to_string()))
        );
        assert_eq!(
            mgr.resolve(Some("nope")).err(),
            Some(TenancyError::WorldNotFound("nope".to_string()))
        );
    }

    #[test]
    fn load_is_idempotent_and_spec_guarded() {
        let mgr = WorldManager::new(2);
        let g1 = mgr.load("a", tiny(1)).expect("load");
        assert_eq!(mgr.load("a", tiny(1)).expect("reload"), g1);
        assert_eq!(
            mgr.load("a", tiny(2)),
            Err(TenancyError::SpecMismatch("a".to_string()))
        );
        assert!(mgr.resolve(Some("a")).is_ok());
    }

    #[test]
    fn swap_bumps_generation_and_replaces_engine() {
        let mgr = WorldManager::new(2);
        let g1 = mgr.load("a", tiny(1)).expect("load");
        let before = mgr.resolve(Some("a")).expect("resolve");
        let g2 = mgr.swap("a", tiny(2), 0).expect("swap");
        assert!(g2 > g1);
        let after = mgr.resolve(Some("a")).expect("resolve");
        assert!(
            !Arc::ptr_eq(&before, &after),
            "swap must install a fresh engine"
        );
    }

    #[test]
    fn generation_survives_eviction() {
        let mgr = WorldManager::new(3);
        let g1 = mgr.load("a", tiny(1)).expect("load");
        mgr.evict("a").expect("evict");
        let g2 = mgr.load("a", tiny(1)).expect("reload");
        assert!(g2 > g1, "re-load must be observably a new generation");
    }

    #[test]
    fn lru_eviction_respects_budget_and_pin() {
        let mgr = WorldManager::new(2);
        mgr.load(DEFAULT_WORLD, tiny(0)).expect("default");
        mgr.load("a", tiny(1)).expect("a");
        // Touch "a", then load "b": the budget is 2, "default" is
        // pinned, so "a" (the only evictable world) goes.
        mgr.resolve(Some("a")).expect("touch a");
        mgr.load("b", tiny(2)).expect("b");
        let names: Vec<String> = mgr.list().into_iter().map(|w| w.name).collect();
        assert_eq!(names, vec!["b".to_string(), DEFAULT_WORLD.to_string()]);
        assert!(mgr.resolve(Some("a")).is_err());
    }

    #[test]
    fn swap_onto_a_new_name_counts_its_victims() {
        let mgr = WorldManager::new(1);
        mgr.load("a", tiny(1)).expect("a");
        mgr.swap("b", tiny(2), 0).expect("swap evicts a");
        assert!(mgr.resolve(Some("a")).is_err());
        assert_eq!(mgr.metrics().counter("tenancy.evict.lru").get(), 1);
    }

    /// A recovered world with no room — every resident world pinned —
    /// is evicted on arrival, counted, and written to the manifest, so
    /// the next boot does not bring it back.
    #[test]
    fn restore_that_cannot_fit_is_logged_as_an_eviction() {
        let dir =
            std::env::temp_dir().join(format!("biorank-tenancy-restore-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A previous life left "aux" durable.
        WorldStore::open(&dir, &MetricsRegistry::new())
            .expect("open store")
            .append(&WalOp::Load {
                world: "aux".into(),
                spec: persist::stored_spec(tiny(1)),
                generation: 7,
            })
            .expect("log aux");
        let mgr = WorldManager::with_default(Arc::new(tiny(0).build()), tiny(0), 1);
        let store = Arc::new(WorldStore::open(&dir, mgr.metrics()).expect("reopen store"));
        let mgr = Arc::new(mgr.with_store(Arc::clone(&store)).expect("attach"));
        mgr.restore_background("aux", tiny(1), 7, None)
            .expect("claim");
        // with_store wrote the default world; the discard is the
        // second write.
        for _ in 0..600 {
            if mgr.metrics().counter("store.manifest_write").get() == 2 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert_eq!(mgr.metrics().counter("tenancy.evict.lru").get(), 1);
        let names: Vec<String> = mgr.list().into_iter().map(|w| w.name).collect();
        assert_eq!(names, vec![DEFAULT_WORLD.to_string()]);
        let recovered = store.recover().expect("recover");
        assert!(!recovered.worlds.contains_key("aux"), "{recovered:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A load that evicts several worlds is one durable transition:
    /// the victims and the load reach the manifest in one write.
    #[test]
    fn a_load_and_all_its_victims_are_one_manifest_write() {
        let dir =
            std::env::temp_dir().join(format!("biorank-tenancy-victims-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut mgr = WorldManager::new(3);
        for (seed, name) in (1..).zip(["a", "b", "c"]) {
            mgr.load(name, tiny(seed)).expect("load");
        }
        mgr.budget = 2; // under three resident: the next load evicts two
        let store = WorldStore::open(&dir, mgr.metrics()).expect("open store");
        let mgr = mgr.with_store(Arc::new(store)).expect("attach");
        let writes = || mgr.metrics().counter("store.manifest_write").get();
        assert_eq!(writes(), 1, "three resident worlds, one write");
        mgr.load("d", tiny(4)).expect("load d");
        assert_eq!(mgr.metrics().counter("tenancy.evict.lru").get(), 2);
        assert_eq!(writes(), 2, "a load and its two victims, one write");
        let on_disk = WorldStore::open(&dir, &MetricsRegistry::new())
            .and_then(|s| s.recover())
            .expect("reopen");
        assert_eq!(on_disk.worlds.into_keys().collect::<Vec<_>>(), ["c", "d"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The lock order, pinned: an evict takes the manifest lock before
    /// the registry lock. While the manifest lock is held elsewhere the
    /// evict has changed nothing (and resolves still run), and it
    /// completes once that lock is released.
    #[test]
    fn an_evict_waits_for_the_manifest_lock_before_the_registry_lock() {
        let dir =
            std::env::temp_dir().join(format!("biorank-tenancy-order-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mgr = WorldManager::new(3);
        mgr.load("a", tiny(1)).expect("load a");
        let store = Arc::new(WorldStore::open(&dir, mgr.metrics()).expect("open store"));
        let mgr = Arc::new(mgr.with_store(Arc::clone(&store)).expect("attach"));
        let before = mgr.list();
        let txn = store.begin();
        let evictor = Arc::clone(&mgr);
        let evict = std::thread::spawn(move || evictor.evict("a"));
        std::thread::sleep(std::time::Duration::from_millis(100));
        assert_eq!(mgr.list(), before, "the evict ran ahead of the manifest");
        assert!(mgr.resolve(Some("a")).is_ok());
        assert!(!evict.is_finished());
        drop(txn);
        evict.join().expect("evict thread").expect("evict");
        assert!(mgr.list().iter().all(|w| w.name != "a"));
        assert!(!store.recover().expect("recover").worlds.contains_key("a"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn default_world_cannot_be_evicted() {
        let mgr = WorldManager::new(1);
        mgr.load(DEFAULT_WORLD, tiny(0)).expect("default");
        assert_eq!(mgr.evict(DEFAULT_WORLD), Err(TenancyError::DefaultPinned));
        // Budget 1 fully pinned: nothing can make room.
        assert_eq!(
            mgr.load("a", tiny(1)),
            Err(TenancyError::BudgetExhausted(1))
        );
    }

    #[test]
    fn stats_report_per_world_counters() {
        let mgr = WorldManager::new(2);
        mgr.load("a", tiny(1)).expect("a");
        let engine = mgr.resolve(Some("a")).expect("resolve");
        let req = crate::engine::QueryRequest::protein_functions(
            "GALT",
            crate::engine::RankerSpec::new(crate::engine::Method::InEdge),
        );
        engine.execute(&req).expect("cold");
        engine.execute(&req).expect("warm");
        let stats = mgr.stats();
        assert_eq!(stats.resident, 1);
        assert_eq!(stats.budget, 2);
        let w = &stats.worlds[0];
        assert_eq!(w.name, "a");
        assert_eq!(w.engine.results.hits, 1);
        assert_eq!(w.engine.results.misses, 1);
        assert!((w.engine.results.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hit_rate_is_zero_without_lookups() {
        // The zero-division guard `admin stats` rendering relies on.
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    fn wait_ready(mgr: &Arc<WorldManager>, name: &str) {
        for _ in 0..600 {
            if mgr.resolve(Some(name)).is_ok() {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        panic!("world {name:?} never became ready");
    }

    #[test]
    fn background_load_installs_from_a_worker_thread() {
        let mgr = Arc::new(WorldManager::new(3));
        assert_eq!(mgr.load_background("bg", tiny(5)).expect("start"), None);
        // Until the worker installs it, the world lists as loading and
        // queries naming it get the dedicated error.
        let listed = mgr.list();
        if let Some(info) = listed.iter().find(|w| w.name == "bg") {
            if info.state == WorldState::Loading {
                assert_eq!(info.generation, 0);
                assert_eq!(info.spec, tiny(5));
                assert!(matches!(
                    mgr.resolve(Some("bg")),
                    Err(TenancyError::WorldLoading(_))
                ));
                // A sync load of a loading name must not race the
                // worker; starting the same build again is a no-op.
                assert!(matches!(
                    mgr.load("bg", tiny(5)),
                    Err(TenancyError::WorldLoading(_))
                ));
                assert_eq!(
                    mgr.load_background("bg", tiny(5)).expect("idempotent"),
                    None
                );
                assert!(matches!(
                    mgr.load_background("bg", tiny(6)),
                    Err(TenancyError::WorldLoading(_))
                ));
            }
        }
        wait_ready(&mgr, "bg");
        let info = mgr
            .list()
            .into_iter()
            .find(|w| w.name == "bg")
            .expect("installed");
        assert_eq!(info.state, WorldState::Ready);
        assert!(info.generation > 0);
        // Re-loading in the background when already resident reports
        // the generation instead of rebuilding.
        assert_eq!(
            mgr.load_background("bg", tiny(5)).expect("resident"),
            Some(info.generation)
        );
        assert!(matches!(
            mgr.load_background("bg", tiny(7)),
            Err(TenancyError::SpecMismatch(_))
        ));
    }

    #[test]
    fn evicting_a_loading_world_cancels_the_load() {
        let mgr = Arc::new(WorldManager::new(3));
        mgr.load_background("c", tiny(9)).expect("start");
        // Whether we catch the build in flight (clears the marker, the
        // worker discards its engine) or after install (removes the
        // resident world), eviction must leave the name gone for good.
        mgr.evict("c").expect("evict cancels or removes");
        assert!(matches!(
            mgr.resolve(Some("c")),
            Err(TenancyError::WorldNotFound(_))
        ));
        // Give the worker ample time to finish building; it must not
        // resurrect the evicted name.
        for _ in 0..20 {
            std::thread::sleep(std::time::Duration::from_millis(50));
            assert!(
                mgr.list().into_iter().all(|w| w.name != "c"),
                "cancelled load must not install"
            );
        }
    }

    #[test]
    fn swap_installs_the_replacement_cold() {
        let mgr = WorldManager::new(2);
        mgr.load("a", tiny(1)).expect("load");
        let req = crate::engine::QueryRequest::protein_functions(
            "GALT",
            crate::engine::RankerSpec::new(crate::engine::Method::InEdge),
        );
        // Make GALT/InEdge the hot key of the outgoing engine.
        let old = mgr.resolve(Some("a")).expect("resolve");
        old.execute(&req).expect("cold");
        assert!(old.execute(&req).expect("repeat").cached_scores);
        drop(old);

        // A nonzero `warm` is accepted and ignored: the swap runs no
        // query on the replacement engine.
        mgr.swap("a", tiny(1), 8).expect("swap");
        let fresh = mgr.resolve(Some("a")).expect("resolve new");
        assert_eq!(fresh.metrics().counter("queries").get(), 0);
        assert!(!fresh.execute(&req).expect("hot query").cached_scores);
        let counters = mgr.metrics().snapshot().counters;
        assert_eq!(counters.get("tenancy.swap"), Some(&1));
        assert!(
            counters.keys().all(|name| !name.contains("warm")),
            "{counters:?}"
        );
    }
}
