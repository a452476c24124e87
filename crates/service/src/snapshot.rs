//! Named, immutable collection snapshots shared across sessions — and the
//! memory governance that decides which of them stay resident.
//!
//! A [`Snapshot`] bundles a pre-indexed [`Collection`] with its entity and
//! set names; a [`Registry`] maps snapshot names to *slots*. A slot may be
//! `registered` (a rebuild recipe only — fixture spec or file path, no
//! bytes resident), `loaded` (snapshot built and shared), or `unloaded`
//! (previously loaded, evicted by the governor, rebuildable on demand).
//! Snapshots are strictly immutable after construction — sessions hold
//! [`SnapshotHandle`] clones, so the service never copies set data and a
//! collection can be swapped or unloaded in the registry without
//! disturbing sessions already running over the old version. The derived
//! indexes the bitmap kernels rely on — the `EntityPostings` bitmaps,
//! per-set fingerprint and size tables — are built once inside the
//! [`Collection`] and therefore shared by every session over the snapshot:
//! a thousand concurrent sessions split against one postings index.
//!
//! The [`MemoryGovernor`] (DESIGN.md §13) enforces a global byte budget
//! over everything the registry accounts: loaded collections, their plan
//! caches, and the session bytes the service reports into
//! [`Registry::admit`]. Under pressure a deterministic degradation ladder
//! engages in documented order — shrink plan caches toward their
//! per-collection floors, unload cold snapshots (never one with live
//! session leases), and finally shed the new `create` — so the service
//! degrades and sheds instead of being OOM-killed, and established
//! sessions are never touched.

use setdisc_core::entity::{EntityId, SetId};
use setdisc_core::io::{parse_collection, NamedCollection};
use setdisc_core::Collection;
use setdisc_plan::PlanCache;
use setdisc_synth::copyadd::{generate_copy_add, CopyAddConfig};
use setdisc_util::mem::HeapSize as _;
use setdisc_util::{faults, obs, FxHashMap};
use std::collections::VecDeque;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// An immutable named collection: the unit sessions snapshot.
///
/// Besides the shared indexes the collection itself carries, a snapshot can
/// hold one shared [`PlanCache`] — installed explicitly from a persisted
/// plan file, or created lazily by the service on the first cacheable
/// session — so every session over the snapshot reads and extends the same
/// question plan.
pub struct Snapshot {
    name: String,
    named: NamedCollection,
    plan: OnceLock<Arc<PlanCache>>,
}

impl Snapshot {
    /// Snapshot from a parsed [`NamedCollection`].
    pub fn new(name: impl Into<String>, named: NamedCollection) -> Arc<Self> {
        Arc::new(Self {
            name: name.into(),
            named,
            plan: OnceLock::new(),
        })
    }

    /// Snapshot from a bare [`Collection`] (synthetic fixtures): entities
    /// render as `e<id>` and sets as `S<id>`.
    pub fn from_collection(name: impl Into<String>, collection: Collection) -> Arc<Self> {
        Self::new(
            name,
            NamedCollection {
                collection,
                entities: setdisc_core::EntityInterner::new(),
                set_names: Vec::new(),
                duplicates_dropped: 0,
            },
        )
    }

    /// Snapshot parsed from the `setdisc_core::io` text format.
    pub fn parse(name: impl Into<String>, text: &str) -> Result<Arc<Self>, String> {
        let named = parse_collection(text).map_err(|e| e.to_string())?;
        Ok(Self::new(name, named))
    }

    /// The registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shared collection.
    pub fn collection(&self) -> &Collection {
        &self.named.collection
    }

    /// Accounted heap bytes of the collection side: sets, inverted index,
    /// postings bitmaps, fingerprint/size tables, and every label
    /// (deterministic and exact per `util::mem`).
    pub fn collection_bytes(&self) -> usize {
        self.name.capacity() + self.named.heap_bytes()
    }

    /// Accounted heap bytes of the installed plan cache (0 when none).
    pub fn plan_bytes(&self) -> usize {
        self.plan.get().map_or(0, |c| c.heap_bytes())
    }

    /// Human label for a set id (`S<id>` when the source had no names).
    pub fn set_label(&self, id: SetId) -> String {
        self.named
            .set_names
            .get(id.0 as usize)
            .cloned()
            .unwrap_or_else(|| id.to_string())
    }

    /// Human label for an entity id (`e<id>` when unnamed).
    pub fn entity_label(&self, id: EntityId) -> String {
        self.named.entities.display(id)
    }

    /// Resolves an entity token. Named collections (anything parsed from
    /// text) resolve strictly through the interner — an unknown token is an
    /// error, never a silent numeric guess. Only unnamed collections
    /// (synthetic fixtures with an empty interner) accept the `e<id>`
    /// notation their labels render as, validated against the universe.
    pub fn resolve_entity(&self, token: &str) -> Option<EntityId> {
        if !self.named.entities.is_empty() {
            return self.named.entities.get(token);
        }
        let num = token.strip_prefix('e')?.parse::<u32>().ok()?;
        (num < self.named.collection.universe()).then_some(EntityId(num))
    }

    /// The shared plan cache, if one is installed.
    pub fn plan_cache(&self) -> Option<Arc<PlanCache>> {
        self.plan.get().cloned()
    }

    /// Installs a pre-built (typically persisted-and-reloaded) plan cache.
    /// Fails when the cache was built for a different collection, or when a
    /// cache is already installed — sessions may be serving from it, and a
    /// snapshot's cache, like its collection, never changes once observed.
    pub fn install_plan_cache(&self, cache: Arc<PlanCache>) -> Result<(), String> {
        if !cache.matches(self.collection()) {
            return Err(format!(
                "plan cache was built for a different collection than {:?}",
                self.name
            ));
        }
        self.plan
            .set(cache)
            .map_err(|_| format!("snapshot {:?} already has a plan cache", self.name))
    }

    /// The shared plan cache, creating an empty one bounded to `capacity`
    /// nodes on first use (the service's lazy default when no persisted
    /// plan was loaded).
    pub fn plan_cache_or_init(&self, capacity: usize) -> Arc<PlanCache> {
        Arc::clone(
            self.plan
                .get_or_init(|| Arc::new(PlanCache::for_collection(self.collection(), capacity))),
        )
    }
}

/// A cheap owning handle to a snapshot's collection — the
/// [`setdisc_core::engine::CollectionRef`] the service's sessions are built
/// over (deref target is the [`Collection`], clone is an `Arc` bump).
#[derive(Clone)]
pub struct SnapshotHandle(pub Arc<Snapshot>);

impl Deref for SnapshotHandle {
    type Target = Collection;

    fn deref(&self) -> &Collection {
        self.0.collection()
    }
}

/// A live-session lease on a registry slot. Held by every session entry;
/// while any lease is outstanding, the degradation ladder will not unload
/// the slot's snapshot, so a session's shared plan cache and postings
/// index stay resident until it drains. Dropping the entry (close, idle
/// eviction, quarantine, contradiction) releases the lease automatically.
pub struct SnapshotLease {
    count: Arc<AtomicUsize>,
}

impl SnapshotLease {
    fn take(count: &Arc<AtomicUsize>) -> Self {
        count.fetch_add(1, Ordering::Relaxed);
        Self {
            count: Arc::clone(count),
        }
    }
}

impl Drop for SnapshotLease {
    fn drop(&mut self) {
        self.count.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Why [`Registry::acquire`] could not hand out a snapshot.
#[derive(Debug, PartialEq, Eq)]
pub enum AcquireError {
    /// Memory pressure (an armed `registry.load` / `snapshot.build` fault,
    /// standing in for a failed allocation) refused materialization; the
    /// caller should shed with the structured `overloaded` shape.
    Pressure(String),
    /// The slot's rebuild source failed (I/O or parse error).
    Build(String),
}

/// One row of [`Registry::list`]: name, shape, and governance state.
/// Shape is the last built shape — `(0, 0)` for a slot that was registered
/// but never materialized.
#[derive(Debug, Clone)]
pub struct SnapshotInfo {
    /// Registry name.
    pub name: String,
    /// Number of sets (0 when never built).
    pub sets: usize,
    /// Distinct entities (0 when never built).
    pub entities: usize,
    /// `registered`, `loaded`, or `unloaded`.
    pub state: &'static str,
    /// Accounted collection bytes currently resident (0 unless loaded).
    pub bytes: usize,
    /// Accounted plan-cache bytes currently resident (0 unless loaded and
    /// a cache exists).
    pub plan_bytes: usize,
    /// Outstanding session leases (sessions created over the loaded
    /// snapshot and not yet closed or evicted).
    pub live_sessions: usize,
}

/// Bounded governor event log capacity (oldest dropped first).
const EVENT_CAPACITY: usize = 64;

/// The per-collection plan-cache floor the ladder shrinks toward: one
/// resident node per cache shard, the structural minimum
/// [`PlanCache::shrink_to`] clamps to. Shrinking below it would leave
/// some shards permanently empty without freeing anything.
const PLAN_CACHE_FLOOR: usize = 16;

/// Byte-budget enforcement state: the budget itself, counters for each
/// rung of the degradation ladder, and a bounded event log the chaos
/// suite asserts ladder *order* against.
///
/// A budget of 0 disables governance entirely (the seed behavior).
/// Counters are statistics, not synchronization.
pub struct MemoryGovernor {
    budget: AtomicUsize,
    plan_shrinks: AtomicU64,
    unloads: AtomicU64,
    sheds: AtomicU64,
    events: Mutex<VecDeque<String>>,
}

impl MemoryGovernor {
    fn new() -> Self {
        Self {
            budget: AtomicUsize::new(0),
            plan_shrinks: AtomicU64::new(0),
            unloads: AtomicU64::new(0),
            sheds: AtomicU64::new(0),
            events: Mutex::new(VecDeque::new()),
        }
    }

    /// The global byte budget (0 = ungoverned).
    pub fn budget(&self) -> usize {
        self.budget.load(Ordering::Relaxed)
    }

    /// Sets the global byte budget (0 disables governance).
    pub fn set_budget(&self, bytes: usize) {
        self.budget.store(bytes, Ordering::Relaxed);
    }

    /// Plan-cache shrink steps the ladder has taken.
    pub fn plan_shrinks(&self) -> u64 {
        self.plan_shrinks.load(Ordering::Relaxed)
    }

    /// Snapshots the ladder has unloaded.
    pub fn unloads(&self) -> u64 {
        self.unloads.load(Ordering::Relaxed)
    }

    /// Creates shed because the ladder could not reach the budget (or a
    /// load was refused under injected allocation pressure).
    pub fn sheds(&self) -> u64 {
        self.sheds.load(Ordering::Relaxed)
    }

    /// The retained event log, oldest first (bounded; for tests and
    /// postmortems, not a stable wire surface).
    pub fn events(&self) -> Vec<String> {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    fn note(&self, event: String) {
        let mut log = self.events.lock().unwrap_or_else(|e| e.into_inner());
        if log.len() == EVENT_CAPACITY {
            log.pop_front();
        }
        log.push_back(event);
    }
}

/// How a registry slot rebuilds its snapshot after an unload.
enum SlotSource {
    /// Built-in fixture spec — deterministic, rebuildable at any time.
    Fixture(String),
    /// Text-format collection file, re-read on materialization.
    File(std::path::PathBuf),
    /// Directly inserted snapshot: no rebuild recipe, never unloaded.
    Direct,
}

/// One named registry entry: rebuild source, resident snapshot (if any),
/// cached shape, byte accounting, lease count, and last-use stamp.
struct Slot {
    source: SlotSource,
    built: Option<Arc<Snapshot>>,
    shape: Option<(usize, usize)>,
    bytes: usize,
    leases: Arc<AtomicUsize>,
    last_use: u64,
    was_loaded: bool,
}

impl Slot {
    fn state(&self) -> &'static str {
        if self.built.is_some() {
            "loaded"
        } else if self.was_loaded {
            "unloaded"
        } else {
            "registered"
        }
    }

    fn plan_bytes(&self) -> usize {
        self.built.as_ref().map_or(0, |b| b.plan_bytes())
    }
}

/// Thread-safe name → snapshot-slot map with memory governance.
pub struct Registry {
    slots: RwLock<FxHashMap<String, Slot>>,
    clock: AtomicU64,
    governor: MemoryGovernor,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// Empty, ungoverned registry (budget 0 = unlimited).
    pub fn new() -> Self {
        Self {
            slots: RwLock::new(FxHashMap::default()),
            clock: AtomicU64::new(0),
            governor: MemoryGovernor::new(),
        }
    }

    /// The memory governor (budget, ladder counters, event log).
    pub fn governor(&self) -> &MemoryGovernor {
        &self.governor
    }

    /// Sets the global byte budget (0 disables governance).
    pub fn set_budget(&self, bytes: usize) {
        self.governor.set_budget(bytes);
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn write_slots(&self) -> std::sync::RwLockWriteGuard<'_, FxHashMap<String, Slot>> {
        self.slots.write().expect("registry lock poisoned")
    }

    fn read_slots(&self) -> std::sync::RwLockReadGuard<'_, FxHashMap<String, Slot>> {
        self.slots.read().expect("registry lock poisoned")
    }

    /// Inserts a loaded snapshot under its own name. Name collisions
    /// *replace* the previous slot — the explicit, logged policy (a
    /// redeploy overwrites, it does not error) — and sessions already
    /// holding the old snapshot keep running over it undisturbed; their
    /// leases belong to the replaced slot and expire with them. Directly
    /// inserted snapshots carry no rebuild recipe, so the degradation
    /// ladder never unloads them.
    pub fn insert(&self, snapshot: Arc<Snapshot>) {
        self.insert_slot(snapshot, SlotSource::Direct);
    }

    fn insert_slot(&self, snapshot: Arc<Snapshot>, source: SlotSource) {
        let name = snapshot.name().to_string();
        let shape = (
            snapshot.collection().len(),
            snapshot.collection().distinct_entities(),
        );
        let slot = Slot {
            source,
            bytes: snapshot.collection_bytes(),
            built: Some(snapshot),
            shape: Some(shape),
            leases: Arc::new(AtomicUsize::new(0)),
            last_use: self.tick(),
            was_loaded: true,
        };
        if let Some(old) = self.write_slots().insert(name.clone(), slot) {
            obs::warn(&format!(
                "registry: replaced snapshot {name:?} ({} live sessions keep the old version)",
                old.leases.load(Ordering::Relaxed)
            ));
        }
    }

    /// Registers a fixture spec *without building it* (the spec is
    /// validated, nothing is allocated): the slot starts `registered` and
    /// is materialized lazily by the first `create` that names it.
    /// Returns the registry name (the spec itself). Replaces any previous
    /// slot under the same name, logged as in [`Registry::insert`].
    pub fn register_fixture(&self, spec: &str) -> Result<String, String> {
        parse_fixture_spec(spec)?;
        self.register_slot(spec.to_string(), SlotSource::Fixture(spec.to_string()));
        Ok(spec.to_string())
    }

    /// Registers a collection file *without reading it* beyond an
    /// existence check; parsed lazily on the first `create`. Replaces any
    /// previous slot under the same name, logged.
    pub fn register_file(&self, name: &str, path: &std::path::Path) -> Result<(), String> {
        std::fs::metadata(path).map_err(|e| format!("cannot stat {}: {e}", path.display()))?;
        self.register_slot(name.to_string(), SlotSource::File(path.to_path_buf()));
        Ok(())
    }

    fn register_slot(&self, name: String, source: SlotSource) {
        let slot = Slot {
            source,
            built: None,
            shape: None,
            bytes: 0,
            leases: Arc::new(AtomicUsize::new(0)),
            last_use: self.tick(),
            was_loaded: false,
        };
        if self.write_slots().insert(name.clone(), slot).is_some() {
            obs::warn(&format!(
                "registry: replaced snapshot {name:?} with a lazy registration"
            ));
        }
    }

    /// Looks up a *loaded* snapshot by name (no materialization — the
    /// read-only path `status` and the plan tooling use; `create` goes
    /// through [`Registry::acquire`]).
    pub fn get(&self, name: &str) -> Option<Arc<Snapshot>> {
        self.read_slots().get(name).and_then(|s| s.built.clone())
    }

    /// The snapshot for a `create`: materializes a `registered`/`unloaded`
    /// slot from its source and takes a session lease that shields the
    /// slot from the degradation ladder until the lease drops. The armed
    /// chaos sites fire here: `registry.load` gates admission of the load
    /// itself, `snapshot.build` the build allocation — either refusal
    /// surfaces as [`AcquireError::Pressure`] and the slot stays unbuilt.
    ///
    /// `Ok(None)` means the name is unknown. Materialization holds the
    /// registry lock (a deliberate simplification: one cold load at a
    /// time; warm acquires on other collections queue behind it).
    pub fn acquire(
        &self,
        name: &str,
    ) -> Result<Option<(Arc<Snapshot>, SnapshotLease)>, AcquireError> {
        let stamp = self.tick();
        let mut slots = self.write_slots();
        let Some(slot) = slots.get_mut(name) else {
            return Ok(None);
        };
        slot.last_use = stamp;
        if slot.built.is_none() {
            if faults::alloc_pressure("registry.load") {
                self.governor.sheds.fetch_add(1, Ordering::Relaxed);
                self.governor.note(format!("shed load {name}"));
                return Err(AcquireError::Pressure(format!(
                    "memory pressure: collection {name:?} cannot be loaded right now"
                )));
            }
            let snapshot = match build_slot(name, &slot.source) {
                Ok(s) => s,
                Err(e) => {
                    if matches!(e, AcquireError::Pressure(_)) {
                        self.governor.sheds.fetch_add(1, Ordering::Relaxed);
                        self.governor.note(format!("shed build {name}"));
                    }
                    return Err(e);
                }
            };
            slot.bytes = snapshot.collection_bytes();
            slot.shape = Some((
                snapshot.collection().len(),
                snapshot.collection().distinct_entities(),
            ));
            slot.was_loaded = true;
            slot.built = Some(snapshot);
        }
        let snapshot = Arc::clone(slot.built.as_ref().expect("just built"));
        let lease = SnapshotLease::take(&slot.leases);
        Ok(Some((snapshot, lease)))
    }

    /// Materializes a slot without keeping a lease (the `serve` binary's
    /// warm plan boot uses this to build snapshots it wants to attach a
    /// persisted plan cache to).
    pub fn materialize(&self, name: &str) -> Result<(), String> {
        match self.acquire(name) {
            Ok(Some(_)) => Ok(()),
            Ok(None) => Err(format!("unknown collection {name:?}")),
            Err(AcquireError::Pressure(e)) | Err(AcquireError::Build(e)) => Err(e),
        }
    }

    /// Admission check for a new session: `session_bytes` is the session
    /// table's accounted total *including* the candidate entry. Within
    /// budget (or ungoverned) this returns true untouched; over budget
    /// the degradation ladder runs — plan-cache shrinks, then
    /// cold-snapshot unloads — and only if the budget is still
    /// unreachable does it return false (counted as a shed; the caller
    /// replies `overloaded`).
    pub fn admit(&self, session_bytes: usize) -> bool {
        let budget = self.governor.budget();
        if budget == 0 || self.run_ladder(session_bytes, budget) {
            return true;
        }
        self.governor.sheds.fetch_add(1, Ordering::Relaxed);
        self.governor.note("shed create".to_string());
        false
    }

    /// Post-shed cleanup: re-walks the ladder without counting a shed, so
    /// a refused create's freshly materialized snapshot (now lease-free)
    /// is released promptly instead of squatting over the budget until
    /// the next create.
    pub fn reclaim(&self, session_bytes: usize) {
        let budget = self.governor.budget();
        if budget != 0 {
            let _ = self.run_ladder(session_bytes, budget);
        }
    }

    /// The degradation ladder. Rung 1: halve plan-cache capacities (bytes
    /// follow via eviction) toward [`PLAN_CACHE_FLOOR`], name-sorted,
    /// until under budget or every cache is at its floor. Rung 2: unload
    /// cold snapshots — coldest last-use first, name tie-break — skipping
    /// leased slots (live sessions) and direct inserts (no rebuild
    /// recipe). Returns false when both rungs are exhausted and the total
    /// still exceeds the budget.
    fn run_ladder(&self, session_bytes: usize, budget: usize) -> bool {
        fn total(slots: &FxHashMap<String, Slot>, session_bytes: usize) -> usize {
            slots
                .values()
                .map(|s| s.bytes + s.plan_bytes())
                .sum::<usize>()
                + session_bytes
        }
        let mut slots = self.write_slots();
        if total(&slots, session_bytes) <= budget {
            return true;
        }
        loop {
            let mut names: Vec<String> = slots
                .iter()
                .filter(|(_, s)| {
                    s.built
                        .as_ref()
                        .and_then(|b| b.plan_cache())
                        .is_some_and(|c| c.capacity() > PLAN_CACHE_FLOOR)
                })
                .map(|(n, _)| n.clone())
                .collect();
            if names.is_empty() {
                break;
            }
            names.sort();
            for name in names {
                let Some(cache) = slots
                    .get(&name)
                    .and_then(|s| s.built.as_ref())
                    .and_then(|b| b.plan_cache())
                else {
                    continue;
                };
                let cap = cache.capacity();
                if cap <= PLAN_CACHE_FLOOR {
                    continue;
                }
                let target = (cap / 2).max(PLAN_CACHE_FLOOR);
                cache.shrink_to(target);
                self.governor.plan_shrinks.fetch_add(1, Ordering::Relaxed);
                self.governor
                    .note(format!("plan.shrink {name} {cap}->{target}"));
                if total(&slots, session_bytes) <= budget {
                    return true;
                }
            }
        }
        while let Some(name) = slots
            .iter()
            .filter(|(_, s)| {
                s.built.is_some()
                    && s.leases.load(Ordering::Relaxed) == 0
                    && !matches!(s.source, SlotSource::Direct)
            })
            .min_by(|a, b| a.1.last_use.cmp(&b.1.last_use).then_with(|| a.0.cmp(b.0)))
            .map(|(n, _)| n.clone())
        {
            let slot = slots.get_mut(&name).expect("selected above");
            let freed = slot.bytes + slot.plan_bytes();
            slot.built = None;
            slot.bytes = 0;
            self.governor.unloads.fetch_add(1, Ordering::Relaxed);
            self.governor.note(format!("unload {name} {freed}"));
            if total(&slots, session_bytes) <= budget {
                return true;
            }
        }
        false
    }

    /// Accounted bytes of every loaded collection.
    pub fn collections_bytes(&self) -> usize {
        self.read_slots().values().map(|s| s.bytes).sum()
    }

    /// Accounted bytes of every loaded snapshot's plan cache.
    pub fn plan_cache_bytes(&self) -> usize {
        self.read_slots().values().map(Slot::plan_bytes).sum()
    }

    /// Every *loaded* snapshot, name-sorted (the service-status path —
    /// shape *and* plan-cache statistics come from the snapshots
    /// themselves; registered/unloaded slots have neither resident).
    pub fn snapshots(&self) -> Vec<Arc<Snapshot>> {
        let mut out: Vec<Arc<Snapshot>> = self
            .read_slots()
            .values()
            .filter_map(|s| s.built.clone())
            .collect();
        out.sort_by(|a, b| a.name().cmp(b.name()));
        out
    }

    /// Every slot with shape, governance state, and byte accounting,
    /// name-sorted.
    pub fn list(&self) -> Vec<SnapshotInfo> {
        let slots = self.read_slots();
        let mut out: Vec<SnapshotInfo> = slots
            .iter()
            .map(|(name, slot)| {
                let (sets, entities) = slot.shape.unwrap_or((0, 0));
                SnapshotInfo {
                    name: name.clone(),
                    sets,
                    entities,
                    state: slot.state(),
                    bytes: slot.bytes,
                    plan_bytes: slot.plan_bytes(),
                    live_sessions: slot.leases.load(Ordering::Relaxed),
                }
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Loads a text-format collection file under `name` (eagerly; the
    /// slot is unload-eligible and re-reads the file on rematerialize).
    pub fn load_file(&self, name: &str, path: &std::path::Path) -> Result<(), String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        self.insert_slot(Snapshot::parse(name, &text)?, SlotSource::File(path.into()));
        Ok(())
    }

    /// Installs a built-in fixture eagerly and returns its registry name.
    /// The slot keeps its spec as the rebuild source, so the governor may
    /// unload it when cold and rebuild it deterministically on demand.
    ///
    /// Specs: `figure1` (the paper's 7-set example) or
    /// `copyadd:<n_sets>:<overlap>:<seed>` (the §5.2.2 copy-add generator
    /// with set sizes 20–30). Fixture generation is deterministic, so a
    /// load-harness client can install the same spec locally and know the
    /// server's set contents without transferring them.
    pub fn install_fixture(&self, spec: &str) -> Result<String, String> {
        let snapshot = fixture(spec)?;
        let name = snapshot.name().to_string();
        self.insert_slot(snapshot, SlotSource::Fixture(spec.to_string()));
        Ok(name)
    }
}

/// Materializes a slot from its rebuild source, passing the
/// `snapshot.build` chaos gate first.
fn build_slot(name: &str, source: &SlotSource) -> Result<Arc<Snapshot>, AcquireError> {
    if faults::alloc_pressure("snapshot.build") {
        return Err(AcquireError::Pressure(format!(
            "memory pressure: building collection {name:?} was aborted"
        )));
    }
    match source {
        SlotSource::Fixture(spec) => fixture(spec).map_err(AcquireError::Build),
        SlotSource::File(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| AcquireError::Build(format!("cannot read {}: {e}", path.display())))?;
            Snapshot::parse(name, &text).map_err(AcquireError::Build)
        }
        SlotSource::Direct => Err(AcquireError::Build(format!(
            "snapshot {name:?} has no rebuild source"
        ))),
    }
}

/// A parsed fixture spec (validation without construction — what lazy
/// registration checks up front).
enum FixtureSpec {
    Figure1,
    CopyAdd {
        n_sets: usize,
        overlap: f64,
        seed: u64,
    },
}

fn parse_fixture_spec(spec: &str) -> Result<FixtureSpec, String> {
    if spec == "figure1" {
        return Ok(FixtureSpec::Figure1);
    }
    if let Some(rest) = spec.strip_prefix("copyadd:") {
        let parts: Vec<&str> = rest.split(':').collect();
        let [n, alpha, seed] = parts.as_slice() else {
            return Err(format!(
                "bad copyadd spec {spec:?} (want copyadd:<n>:<alpha>:<seed>)"
            ));
        };
        let n_sets: usize = n.parse().map_err(|_| format!("bad set count {n:?}"))?;
        let overlap: f64 = alpha
            .parse()
            .map_err(|_| format!("bad overlap {alpha:?}"))?;
        let seed: u64 = seed.parse().map_err(|_| format!("bad seed {seed:?}"))?;
        if n_sets < 2 || !(0.0..1.0).contains(&overlap) {
            return Err(format!("copyadd spec {spec:?} out of range"));
        }
        return Ok(FixtureSpec::CopyAdd {
            n_sets,
            overlap,
            seed,
        });
    }
    Err(format!(
        "unknown fixture {spec:?} (want figure1 or copyadd:<n>:<alpha>:<seed>)"
    ))
}

/// Builds a fixture snapshot from a spec string (see
/// [`Registry::install_fixture`]).
pub fn fixture(spec: &str) -> Result<Arc<Snapshot>, String> {
    match parse_fixture_spec(spec)? {
        FixtureSpec::Figure1 => Snapshot::parse("figure1", FIGURE1_TEXT),
        FixtureSpec::CopyAdd {
            n_sets,
            overlap,
            seed,
        } => {
            let collection = generate_copy_add(&CopyAddConfig {
                n_sets,
                size_range: (20, 30),
                overlap,
                seed,
            });
            Ok(Snapshot::from_collection(spec, collection))
        }
    }
}

/// Figure 1 of the paper in the text format (entities a..k).
const FIGURE1_TEXT: &str = "\
S1: a b c d
S2: a d e
S3: a b c d f
S4: a b c g h
S5: a b h i
S6: a b j k
S7: a b g
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_fixture_matches_paper_shape() {
        let r = Registry::new();
        let name = r.install_fixture("figure1").unwrap();
        let snap = r.get(&name).unwrap();
        assert_eq!(snap.collection().len(), 7);
        assert_eq!(snap.collection().distinct_entities(), 11);
        assert_eq!(snap.set_label(SetId(0)), "S1");
        let d = snap.resolve_entity("d").unwrap();
        assert_eq!(snap.collection().sets_containing(d).len(), 3);
        assert_eq!(snap.entity_label(d), "d");
        // Named collections must not fall back to numeric guessing: "e2"
        // is not an interned name here, even though EntityId(2) exists.
        assert_eq!(snap.resolve_entity("e2"), None);
        assert_eq!(snap.resolve_entity("zzz"), None);
    }

    #[test]
    fn copyadd_fixture_is_deterministic() {
        let a = fixture("copyadd:40:0.8:3").unwrap();
        let b = fixture("copyadd:40:0.8:3").unwrap();
        assert_eq!(a.collection().len(), b.collection().len());
        for (id, set) in a.collection().iter() {
            assert_eq!(set.fingerprint(), b.collection().set(id).fingerprint());
        }
        // Unnamed entities resolve through the e<id> notation.
        assert_eq!(a.resolve_entity("e0"), Some(EntityId(0)));
        assert_eq!(a.resolve_entity("e999999"), None);
        assert_eq!(a.entity_label(EntityId(0)), "e0");
    }

    #[test]
    fn bad_fixture_specs_error() {
        for bad in [
            "nope",
            "copyadd:1:0.5:0",
            "copyadd:10:1.5:0",
            "copyadd:10:0.5",
            "copyadd:x:0.5:0",
        ] {
            assert!(fixture(bad).is_err(), "{bad}");
            assert!(Registry::new().register_fixture(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn registry_replacement_keeps_old_arcs_alive() {
        let r = Registry::new();
        r.install_fixture("figure1").unwrap();
        let old = r.get("figure1").unwrap();
        // A lease on the old snapshot must not bleed into the new slot.
        let (_snap, old_lease) = r.acquire("figure1").unwrap().unwrap();
        // Replace under the same name with a different collection — the
        // pinned collision policy: replace (with a log line), never error.
        r.insert(Snapshot::parse("figure1", "x: p q\ny: q r\n").unwrap());
        let new = r.get("figure1").unwrap();
        assert_eq!(old.collection().len(), 7, "old snapshot untouched");
        assert_eq!(new.collection().len(), 2);
        assert_eq!(r.list().len(), 1);
        assert_eq!(
            r.list()[0].live_sessions,
            0,
            "old leases do not count against the replacement"
        );
        drop(old_lease);
    }

    #[test]
    fn lazy_registration_materializes_on_first_acquire() {
        let r = Registry::new();
        r.register_fixture("copyadd:10:0.5:1").unwrap();
        let info = &r.list()[0];
        assert_eq!(info.state, "registered");
        assert_eq!((info.sets, info.entities), (0, 0), "shape unknown");
        assert_eq!(info.bytes, 0, "nothing resident");
        assert!(r.get("copyadd:10:0.5:1").is_none(), "get never builds");
        assert!(r.snapshots().is_empty(), "status sees loaded slots only");

        let (snap, lease) = r.acquire("copyadd:10:0.5:1").unwrap().unwrap();
        assert_eq!(snap.collection().len(), 10);
        let info = &r.list()[0];
        assert_eq!(info.state, "loaded");
        assert_eq!(info.sets, 10);
        assert!(info.bytes > 0);
        assert_eq!(info.live_sessions, 1);
        drop(lease);
        assert_eq!(r.list()[0].live_sessions, 0);
        // Unknown names are a clean miss, not an error.
        assert!(matches!(r.acquire("nope"), Ok(None)));
    }

    #[test]
    fn register_file_defers_the_read_and_rebuilds_after_unload() {
        let dir = std::env::temp_dir().join(format!("setdisc_reg_file_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.txt");
        std::fs::remove_file(&path).ok();
        assert!(
            Registry::new().register_file("tiny", &path).is_err(),
            "missing file refused at registration"
        );
        std::fs::write(&path, "a: x y\nb: y z\n").unwrap();
        let r = Registry::new();
        r.register_file("tiny", &path).unwrap();
        assert_eq!(r.list()[0].state, "registered");
        let (snap, lease) = r.acquire("tiny").unwrap().unwrap();
        assert_eq!(snap.collection().len(), 2);
        drop(lease);
        // Force an unload through the governor, then rematerialize.
        r.set_budget(1);
        assert!(r.admit(0), "unloading the cold file slot meets the budget");
        assert_eq!(r.list()[0].state, "unloaded");
        r.set_budget(0);
        let (again, _lease) = r.acquire("tiny").unwrap().unwrap();
        assert_eq!(again.collection().len(), 2, "rebuilt from the file");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ladder_spares_leased_snapshots_and_sheds_when_exhausted() {
        let r = Registry::new();
        r.install_fixture("figure1").unwrap();
        let bytes = r.collections_bytes();
        assert!(bytes > 0);
        r.set_budget(bytes / 2);
        // With a live lease the only unload candidate is protected: the
        // ladder is exhausted and the create is shed.
        let (_snap, lease) = r.acquire("figure1").unwrap().unwrap();
        assert!(!r.admit(0));
        assert_eq!(r.governor().sheds(), 1);
        assert_eq!(r.governor().unloads(), 0);
        assert_eq!(r.list()[0].state, "loaded", "leased snapshot survives");
        // Lease released: the same pressure unloads the cold snapshot
        // instead of shedding.
        drop(lease);
        assert!(r.admit(0));
        assert_eq!(r.governor().unloads(), 1);
        assert_eq!(r.list()[0].state, "unloaded");
        assert_eq!(r.collections_bytes(), 0);
        // Rematerialization is deterministic.
        let (snap, _lease) = r.acquire("figure1").unwrap().unwrap();
        assert_eq!(snap.collection().len(), 7);
    }

    #[test]
    fn direct_inserts_are_never_unloaded() {
        let r = Registry::new();
        r.insert(Snapshot::parse("direct", "x: p q\ny: q r\n").unwrap());
        r.set_budget(1);
        assert!(!r.admit(0), "nothing unloadable: over-budget sheds");
        assert_eq!(r.list()[0].state, "loaded");
        assert_eq!(r.governor().unloads(), 0);
    }

    #[test]
    fn ladder_shrinks_plans_before_unloading() {
        use setdisc_plan::{PlanKey, PlanNode, StrategyKey};
        use setdisc_util::Fingerprint;
        let r = Registry::new();
        r.install_fixture("figure1").unwrap();
        let snap = r.get("figure1").unwrap();
        let cache = snap.plan_cache_or_init(1 << 12);
        let strategy = StrategyKey {
            family: 0,
            metric: 0,
            k: 2,
            beam: 0,
            weight_fp: 0,
        };
        for i in 0..512u64 {
            cache.insert(
                PlanKey {
                    strategy,
                    fp: Fingerprint::of(i),
                    len: 7,
                },
                PlanNode {
                    entity: EntityId((i % 11) as u32),
                    bound: 17,
                    informative: 5,
                    evaluated: 2,
                    yes: (Fingerprint::of(1), 3),
                    no: (Fingerprint::of(2), 4),
                },
            );
        }
        // Budget admits the collection and ~60% of the plan bytes: rung 1
        // (shrink toward the floor) must fire and suffice, rung 2 must
        // not — the snapshot itself stays loaded.
        r.set_budget(r.collections_bytes() + r.plan_cache_bytes() * 6 / 10);
        let (_s, _lease) = r.acquire("figure1").unwrap().unwrap();
        assert!(r.admit(0));
        assert!(r.governor().plan_shrinks() > 0, "rung 1 engaged");
        assert_eq!(r.governor().unloads(), 0, "rung 2 never reached");
        assert!(cache.capacity() < 1 << 12, "capacity actually lowered");
        assert_eq!(r.list()[0].state, "loaded");
        let events = r.governor().events();
        assert!(
            events.iter().all(|e| e.starts_with("plan.shrink")),
            "{events:?}"
        );
    }

    #[test]
    fn plan_cache_installs_once_and_validates_collection() {
        let snap = fixture("figure1").unwrap();
        assert!(snap.plan_cache().is_none());
        assert_eq!(snap.plan_bytes(), 0);
        let lazy = snap.plan_cache_or_init(128);
        assert!(Arc::ptr_eq(&lazy, &snap.plan_cache_or_init(999)));
        // A second install is rejected — the lazy cache is already live.
        let fresh = Arc::new(PlanCache::for_collection(snap.collection(), 64));
        assert!(snap.install_plan_cache(fresh).is_err());
        // A cache for a different collection never attaches.
        let other = fixture("copyadd:10:0.5:1").unwrap();
        let mismatched = Arc::new(PlanCache::for_collection(other.collection(), 64));
        let snap2 = fixture("figure1").unwrap();
        assert!(snap2.install_plan_cache(mismatched).is_err());
        let matching = Arc::new(PlanCache::for_collection(snap2.collection(), 64));
        snap2.install_plan_cache(Arc::clone(&matching)).unwrap();
        assert!(Arc::ptr_eq(&snap2.plan_cache().unwrap(), &matching));
        assert!(Arc::ptr_eq(&snap2.plan_cache_or_init(128), &matching));
    }

    #[test]
    fn registry_snapshots_are_name_sorted() {
        let r = Registry::new();
        r.install_fixture("figure1").unwrap();
        r.install_fixture("copyadd:10:0.5:1").unwrap();
        let snaps = r.snapshots();
        assert_eq!(
            snaps.iter().map(|s| s.name()).collect::<Vec<_>>(),
            vec!["copyadd:10:0.5:1", "figure1"]
        );
    }

    #[test]
    fn handle_derefs_to_collection() {
        let snap = fixture("figure1").unwrap();
        let handle = SnapshotHandle(Arc::clone(&snap));
        assert_eq!(handle.len(), 7);
        let again = handle.clone();
        assert_eq!(again.universe(), snap.collection().universe());
    }

    #[test]
    fn collection_bytes_are_deterministic_and_cover_the_payload() {
        let a = fixture("copyadd:40:0.8:3").unwrap();
        let b = fixture("copyadd:40:0.8:3").unwrap();
        assert_eq!(a.collection_bytes(), b.collection_bytes());
        let elements: usize = a.collection().iter().map(|(_, s)| s.len()).sum();
        assert!(
            a.collection_bytes() >= elements * 4,
            "accounting must at least cover the raw element storage"
        );
    }

    #[test]
    fn postings_index_is_shared_not_rebuilt() {
        // Every handle clone must see the same postings index instance —
        // a dense entity's slab slice resolves to the same memory.
        let snap = fixture("copyadd:80:0.8:3").unwrap();
        let a = SnapshotHandle(Arc::clone(&snap));
        let b = a.clone();
        let e = (0..a.universe())
            .map(EntityId)
            .find(|&e| a.postings().dense(e).is_some())
            .expect("a dense entity exists at n=80");
        assert_eq!(
            a.postings().dense(e).unwrap().as_ptr(),
            b.postings().dense(e).unwrap().as_ptr(),
            "postings slab shared through the Arc"
        );
    }
}
