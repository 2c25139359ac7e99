//! A sharded LRU cache of calibrated [`ContentionModel`]s — the memory
//! behind the `memcontend serve` prediction service.
//!
//! Calibrating a model means running two benchmark sweeps; answering a
//! prediction query with a calibrated model is a handful of float
//! operations. A long-lived service therefore wants to pay the sweep cost
//! once per *(platform, bench configuration, calibration placements)* and
//! amortise it over every subsequent query. [`ModelRegistry`] provides
//! exactly that:
//!
//! * **Sharded**: keys hash onto a fixed set of shards, each behind its
//!   own `Mutex`, so concurrent batch workers querying different
//!   platforms never serialise on one lock.
//! * **Populate-once**: a miss holds its shard's lock while the builder
//!   closure calibrates, so N workers racing for the same cold key run
//!   one calibration, not N — the rest block briefly and then hit.
//! * **LRU-bounded**: each shard evicts its least-recently-used entry
//!   when full, so a what-if workload scanning many machine
//!   configurations cannot grow the process without bound.
//! * **Warm-loadable**: entries can be seeded from persisted model text
//!   files ([`crate::persist::model_from_text`]) at startup, skipping the
//!   calibration sweeps entirely.
//!
//! Hit/miss/eviction counts are kept in atomics (cheap enough to be
//! always-on) and mirrored to the `mc-obs` recorder when one is
//! installed, under `registry.hit` / `registry.miss` /
//! `registry.eviction` tagged with the platform.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mc_topology::NumaId;

use crate::error::McError;
use crate::placement::ContentionModel;

/// Identity of a cached model: which machine, measured how, calibrated
/// from which placement pair.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RegistryKey {
    /// Platform name (or a pseudo-platform such as `file:path` for models
    /// loaded from disk).
    pub platform: String,
    /// Benchmark-configuration tag (`"default"`, `"exact"`, `"file"`, …) —
    /// models calibrated under different configurations never alias.
    pub config: String,
    /// The two calibration placements `((comp, comm) local, (comp, comm)
    /// remote)` the model was (or would be) instantiated from.
    pub placements: ((NumaId, NumaId), (NumaId, NumaId)),
}

impl RegistryKey {
    /// Key for a platform calibrated from the given placements under a
    /// named benchmark configuration.
    pub fn new(
        platform: impl Into<String>,
        config: impl Into<String>,
        placements: ((NumaId, NumaId), (NumaId, NumaId)),
    ) -> Self {
        RegistryKey {
            platform: platform.into(),
            config: config.into(),
            placements,
        }
    }

    fn shard_of(&self, shards: usize) -> usize {
        let mut hasher = DefaultHasher::new();
        self.hash(&mut hasher);
        (hasher.finish() % shards as u64) as usize
    }
}

struct Entry {
    key: RegistryKey,
    model: Arc<ContentionModel>,
    /// Logical LRU timestamp (registry-wide monotonic tick).
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    entries: Vec<Entry>,
}

/// Snapshot of a registry's counters, for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegistryStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build (or failed building) a model.
    pub misses: u64,
    /// Entries displaced by the LRU bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub len: usize,
}

impl RegistryStats {
    /// Fraction of lookups answered from the cache, in `[0, 1]`; `0.0`
    /// before any lookup (a cold registry has no hit rate worth 1.0).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Sharded LRU cache of calibrated models. See the module docs.
pub struct ModelRegistry {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Default shard count: enough that a handful of batch workers rarely
/// collide, small enough that a tiny capacity still spreads sensibly.
const DEFAULT_SHARDS: usize = 8;

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelRegistry")
            .field("shards", &self.shards.len())
            .field("capacity_per_shard", &self.capacity_per_shard)
            .finish_non_exhaustive()
    }
}

impl ModelRegistry {
    /// A registry holding at most `capacity` models, spread over the
    /// default shard count. A capacity below the shard count still grants
    /// every shard room for one entry (the bound is approximate by design;
    /// an exact global bound would need a global lock).
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, DEFAULT_SHARDS)
    }

    /// A registry with an explicit shard count (mostly for tests; the
    /// default is right for service use).
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let capacity_per_shard = capacity.div_ceil(shards).max(1);
        ModelRegistry {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            capacity_per_shard,
            clock: AtomicU64::new(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &RegistryKey) -> std::sync::MutexGuard<'_, Shard> {
        self.shards[key.shard_of(self.shards.len())]
            .lock()
            .unwrap_or_else(|p| p.into_inner())
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    fn record(&self, counter: &str, platform: &str) {
        if let Some(rec) = mc_obs::recorder() {
            rec.add(
                counter,
                &[(mc_obs::tags::PLATFORM, mc_obs::TagValue::Str(platform))],
                1,
            );
        }
    }

    /// Look up a model without populating on miss. Counts a hit or a miss.
    pub fn get(&self, key: &RegistryKey) -> Option<Arc<ContentionModel>> {
        let tick = self.tick();
        let mut shard = self.shard(key);
        match shard.entries.iter_mut().find(|e| e.key == *key) {
            Some(entry) => {
                entry.last_used = tick;
                let model = Arc::clone(&entry.model);
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.record("registry.hit", &key.platform);
                Some(model)
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.record("registry.miss", &key.platform);
                None
            }
        }
    }

    /// Look up a model, calibrating it with `build` on miss. Returns the
    /// model and whether the lookup was a cache hit.
    ///
    /// The shard lock is held *across* `build`: concurrent callers racing
    /// for the same cold key calibrate once and the losers observe a hit.
    /// The flip side — a slow build briefly blocks other keys on the same
    /// shard — is the right trade for this workload, where a duplicated
    /// calibration sweep costs far more than a blocked lookup.
    pub fn get_or_insert_with(
        &self,
        key: &RegistryKey,
        build: impl FnOnce() -> Result<ContentionModel, McError>,
    ) -> Result<(Arc<ContentionModel>, bool), McError> {
        let tick = self.tick();
        let mut shard = self.shard(key);
        if let Some(entry) = shard.entries.iter_mut().find(|e| e.key == *key) {
            entry.last_used = tick;
            let model = Arc::clone(&entry.model);
            drop(shard);
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.record("registry.hit", &key.platform);
            return Ok((model, true));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.record("registry.miss", &key.platform);
        let model = Arc::new(build()?);
        self.insert_locked(&mut shard, key.clone(), Arc::clone(&model));
        Ok((model, false))
    }

    /// Seed an entry without counting a miss — the warm-load path. An
    /// existing entry for the key is replaced.
    pub fn warm(&self, key: RegistryKey, model: ContentionModel) {
        let mut shard = self.shard(&key);
        shard.entries.retain(|e| e.key != key);
        self.insert_locked(&mut shard, key, Arc::new(model));
    }

    fn insert_locked(&self, shard: &mut Shard, key: RegistryKey, model: Arc<ContentionModel>) {
        if shard.entries.len() >= self.capacity_per_shard {
            // Evict the least-recently-used entry of this shard.
            if let Some(lru) = shard
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
            {
                let evicted = shard.entries.swap_remove(lru);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                self.record("registry.eviction", &evicted.key.platform);
            }
        }
        shard.entries.push(Entry {
            key,
            model,
            last_used: self.tick(),
        });
    }

    /// Number of models currently resident.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|p| p.into_inner()).entries.len())
            .sum()
    }

    /// Whether the registry holds no models.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> RegistryStats {
        RegistryStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len: self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_membench::{calibration_placements, calibration_sweeps, BenchConfig};
    use mc_topology::platforms;

    fn key_for(name: &str) -> RegistryKey {
        let p = platforms::by_name(name).unwrap();
        RegistryKey::new(name, "default", calibration_placements(&p))
    }

    fn build_for(name: &str) -> Result<ContentionModel, McError> {
        let p = platforms::by_name(name).unwrap();
        let (local, remote) = calibration_sweeps(&p, BenchConfig::default());
        ContentionModel::calibrate(&p.topology, &local, &remote).map_err(McError::from)
    }

    #[test]
    fn misses_build_then_hits_reuse() {
        let reg = ModelRegistry::new(4);
        let key = key_for("henri");
        let (m1, hit1) = reg.get_or_insert_with(&key, || build_for("henri")).unwrap();
        assert!(!hit1);
        let (m2, hit2) = reg
            .get_or_insert_with(&key, || panic!("must not rebuild"))
            .unwrap();
        assert!(hit2);
        assert!(Arc::ptr_eq(&m1, &m2));
        let stats = reg.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 1, 1));
    }

    #[test]
    fn distinct_configs_do_not_alias() {
        let reg = ModelRegistry::new(4);
        let p = platforms::henri();
        let placements = calibration_placements(&p);
        let k_default = RegistryKey::new("henri", "default", placements);
        let k_exact = RegistryKey::new("henri", "exact", placements);
        reg.get_or_insert_with(&k_default, || build_for("henri"))
            .unwrap();
        let (_, hit) = reg
            .get_or_insert_with(&k_exact, || {
                let (local, remote) = calibration_sweeps(&p, BenchConfig::exact());
                ContentionModel::calibrate(&p.topology, &local, &remote).map_err(McError::from)
            })
            .unwrap();
        assert!(!hit, "a different bench config is a different model");
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn failed_builds_are_not_cached() {
        let reg = ModelRegistry::new(4);
        let key = key_for("henri");
        let err = reg.get_or_insert_with(&key, || {
            Err(McError::from(
                crate::calibrate::CalibrationError::EmptySweep,
            ))
        });
        assert!(err.is_err());
        assert_eq!(reg.len(), 0);
        // The key stays populatable after a failure.
        let (_, hit) = reg.get_or_insert_with(&key, || build_for("henri")).unwrap();
        assert!(!hit);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn lru_evicts_the_stalest_entry() {
        // One shard, room for two: touching "a" before inserting "c" must
        // evict "b", the least recently used.
        let reg = ModelRegistry::with_shards(2, 1);
        let model = build_for("henri").unwrap();
        let (ka, kb, kc) = (key_for("henri"), key_for("dahu"), key_for("diablo"));
        reg.warm(ka.clone(), model.clone());
        reg.warm(kb.clone(), model.clone());
        assert!(reg.get(&ka).is_some());
        reg.warm(kc.clone(), model);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.stats().evictions, 1);
        assert!(reg.get(&ka).is_some(), "recently used survives");
        assert!(reg.get(&kb).is_none(), "stalest entry evicted");
        assert!(reg.get(&kc).is_some());
    }

    #[test]
    fn warm_from_text_loads_a_persisted_model() {
        let reg = ModelRegistry::new(4);
        let model = build_for("henri").unwrap();
        let text = crate::persist::model_to_text(&model);
        let key = key_for("henri");
        reg.warm(key.clone(), crate::persist::model_from_text(&text).unwrap());
        let (cached, hit) = reg
            .get_or_insert_with(&key, || panic!("warm entry must hit"))
            .unwrap();
        assert!(hit);
        let a = model.predict(4, NumaId::new(0), NumaId::new(1));
        let b = cached.predict(4, NumaId::new(0), NumaId::new(1));
        assert!((a.comp - b.comp).abs() < 1e-9);
        assert!((a.comm - b.comm).abs() < 1e-9);
        // Malformed text is an error before anything is warmed.
        assert!(crate::persist::model_from_text("[meta]\nx = NaN\n").is_err());
    }

    #[test]
    fn concurrent_cold_lookups_build_once() {
        use std::sync::atomic::AtomicUsize;
        let reg = ModelRegistry::new(4);
        let key = key_for("henri");
        let builds = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    reg.get_or_insert_with(&key, || {
                        builds.fetch_add(1, Ordering::Relaxed);
                        build_for("henri")
                    })
                    .unwrap();
                });
            }
        });
        assert_eq!(
            builds.load(Ordering::Relaxed),
            1,
            "populate-once: racing workers must not duplicate calibration"
        );
        let stats = reg.stats();
        assert_eq!(stats.hits + stats.misses, 8);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn hit_rate_tracks_the_counters() {
        let reg = ModelRegistry::new(4);
        assert_eq!(reg.stats().hit_rate(), 0.0, "cold registry");
        let key = key_for("henri");
        reg.get_or_insert_with(&key, || build_for("henri")).unwrap();
        assert_eq!(reg.stats().hit_rate(), 0.0, "one miss");
        for _ in 0..3 {
            reg.get(&key).unwrap();
        }
        assert!((reg.stats().hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn zero_capacity_still_holds_one_entry_per_shard() {
        let reg = ModelRegistry::with_shards(0, 1);
        let key = key_for("henri");
        reg.warm(key.clone(), build_for("henri").unwrap());
        assert_eq!(reg.len(), 1);
        assert!(reg.get(&key).is_some());
    }
}
