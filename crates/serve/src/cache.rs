//! The sharded LRU result cache.
//!
//! Identical requests are served without re-running the simulator: a
//! completed run's rendered [`SimResult`] JSON is stored under
//! `(workload, config fingerprint, policy)` and handed back as a cheap
//! `Arc<str>` clone — byte-identical to the freshly computed response by
//! construction, so cache hits are invisible to the determinism
//! guarantee.
//!
//! Keying: [`MachineConfig::fingerprint`] covers every semantic config
//! field, strictly refining [`MachineConfig::predictor_key`] — two
//! requests whose configs share a predictor key (and therefore share a
//! `PreparedTrace`) still cache separately whenever any field that can
//! change the result differs. The policy must be part of the key too:
//! the baseline and every spawn policy run the same workload under
//! fingerprint-distinct configs *or* the same config with different
//! spawn tables.
//!
//! The map is split into [`SHARDS`] shards, each behind its own mutex,
//! hashed by key, so concurrent connection handlers do not serialize on
//! one lock. Eviction is LRU per shard (a global LRU would need a global
//! lock); capacity is divided evenly across shards.
//!
//! [`SimResult`]: polyflow_sim::SimResult
//! [`MachineConfig::fingerprint`]: polyflow_sim::MachineConfig::fingerprint
//! [`MachineConfig::predictor_key`]: polyflow_sim::MachineConfig::predictor_key

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A result-cache key: one simulation cell, or one program's lint
/// report. [`Request::key`](crate::protocol::Request::key) builds it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The program's content fingerprint.
    pub workload: String,
    /// Policy label (the protocol's `policy` field: `superscalar`,
    /// `loop`, …, `postdoms`, `rec_pred`), or `verify` for a lint report.
    pub policy: String,
    /// [`MachineConfig::fingerprint`] of the effective configuration;
    /// empty for a lint report.
    ///
    /// [`MachineConfig::fingerprint`]: polyflow_sim::MachineConfig::fingerprint
    pub config: String,
}

/// The key as the router hashes it onto its ring:
/// `{workload}|{policy}|{config}`.
impl std::fmt::Display for CacheKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}|{}|{}", self.workload, self.policy, self.config)
    }
}

/// Cache shard count (power of two; shard = key hash masked).
pub const SHARDS: usize = 8;

/// Monotone per-shard LRU clock plus the entries.
#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<CacheKey, (Arc<str>, u64)>,
    clock: u64,
}

/// Cache statistics snapshot (monotone counters since process start,
/// except `entries` which is the current population).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries displaced by capacity (not overwrites).
    pub evictions: u64,
    /// Entries inserted.
    pub inserts: u64,
    /// Current number of cached results.
    pub entries: u64,
}

/// A sharded LRU map from [`CacheKey`] to rendered result JSON.
#[derive(Debug)]
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    inserts: AtomicU64,
}

impl ResultCache {
    /// A cache holding at most `capacity` results (rounded up to a
    /// multiple of [`SHARDS`]; a zero capacity disables caching — every
    /// lookup misses and nothing is stored).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity: capacity.div_ceil(SHARDS),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<str>> {
        let mut shard = self.shard(key).lock().unwrap();
        shard.clock += 1;
        let clock = shard.clock;
        match shard.entries.get_mut(key) {
            Some((v, used)) => {
                *used = clock;
                let v = Arc::clone(v);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or refreshes) `key`, evicting the shard's least recently
    /// used entry if it is full. Returns the stored value (callers keep
    /// serving the `Arc` they inserted).
    pub fn insert(&self, key: CacheKey, value: Arc<str>) -> Arc<str> {
        if self.per_shard_capacity == 0 {
            return value;
        }
        let mut shard = self.shard(&key).lock().unwrap();
        shard.clock += 1;
        let clock = shard.clock;
        if !shard.entries.contains_key(&key) && shard.entries.len() >= self.per_shard_capacity {
            if let Some(lru) = shard
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone())
            {
                shard.entries.remove(&lru);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.inserts.fetch_add(1, Ordering::Relaxed);
        shard.entries.insert(key, (Arc::clone(&value), clock));
        value
    }

    /// The live entries, least-recently-used first within each shard
    /// (shards in index order). This is the compaction snapshot: writing
    /// it back to the journal in this order makes a warm start replay
    /// recency-faithfully per shard. Deterministic for a given cache
    /// state.
    pub fn snapshot(&self) -> Vec<(CacheKey, Arc<str>)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().unwrap();
            let mut entries: Vec<(&CacheKey, &(Arc<str>, u64))> = shard.entries.iter().collect();
            entries.sort_by_key(|(_, (_, used))| *used);
            out.extend(
                entries
                    .into_iter()
                    .map(|(k, (v, _))| (k.clone(), Arc::clone(v))),
            );
        }
        out
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().unwrap().entries.len() as u64)
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: usize) -> CacheKey {
        CacheKey {
            workload: format!("w{n}"),
            policy: "postdoms".to_string(),
            config: "cfg".to_string(),
        }
    }

    /// A single-shard cache so LRU order is directly observable.
    fn single_shard(capacity_per_shard: usize) -> ResultCache {
        let mut c = ResultCache::new(0);
        c.per_shard_capacity = capacity_per_shard;
        c.shards = vec![Mutex::new(Shard::default())];
        c
    }

    #[test]
    fn hit_miss_and_counters() {
        let c = ResultCache::new(16);
        assert!(c.get(&key(1)).is_none());
        c.insert(key(1), Arc::from("r1"));
        assert_eq!(c.get(&key(1)).as_deref(), Some("r1"));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.entries), (1, 1, 1, 1));
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn lru_eviction_order() {
        let c = single_shard(3);
        for n in [1, 2, 3] {
            c.insert(key(n), Arc::from(format!("r{n}").as_str()));
        }
        // Touch 1 so 2 becomes the LRU, then overflow.
        assert!(c.get(&key(1)).is_some());
        c.insert(key(4), Arc::from("r4"));
        assert!(c.get(&key(2)).is_none(), "2 was least recently used");
        for n in [1, 3, 4] {
            assert!(c.get(&key(n)).is_some(), "{n} must survive");
        }
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().entries, 3);

        // Continue evicting strictly in recency order: current recency
        // after the gets above is 1, 3, 4 (oldest first).
        c.insert(key(5), Arc::from("r5"));
        assert!(c.get(&key(1)).is_none(), "1 is next out");
        c.insert(key(6), Arc::from("r6"));
        assert!(c.get(&key(3)).is_none(), "then 3");
    }

    #[test]
    fn reinsert_refreshes_not_evicts() {
        let c = single_shard(2);
        c.insert(key(1), Arc::from("a"));
        c.insert(key(2), Arc::from("b"));
        c.insert(key(1), Arc::from("a2")); // refresh, no eviction
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.get(&key(1)).as_deref(), Some("a2"));
        assert!(c.get(&key(2)).is_some());
    }

    #[test]
    fn snapshot_orders_lru_first() {
        let c = single_shard(8);
        for n in [1, 2, 3] {
            c.insert(key(n), Arc::from(format!("r{n}").as_str()));
        }
        c.get(&key(1)); // 1 becomes most recent
        let snap = c.snapshot();
        let order: Vec<String> = snap.iter().map(|(k, _)| k.workload.clone()).collect();
        assert_eq!(order, ["w2", "w3", "w1"]);
        assert_eq!(&*snap[2].1, "r1");
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let c = ResultCache::new(0);
        c.insert(key(1), Arc::from("r1"));
        assert!(c.get(&key(1)).is_none());
        assert_eq!(c.stats().entries, 0);
    }

    #[test]
    fn distinct_key_components_do_not_collide() {
        let c = ResultCache::new(64);
        let base = CacheKey {
            workload: "twolf".into(),
            policy: "postdoms".into(),
            config: "A".into(),
        };
        let by_policy = CacheKey {
            policy: "loop".into(),
            ..base.clone()
        };
        let by_config = CacheKey {
            config: "B".into(),
            ..base.clone()
        };
        c.insert(base.clone(), Arc::from("1"));
        c.insert(by_policy.clone(), Arc::from("2"));
        c.insert(by_config.clone(), Arc::from("3"));
        assert_eq!(c.get(&base).as_deref(), Some("1"));
        assert_eq!(c.get(&by_policy).as_deref(), Some("2"));
        assert_eq!(c.get(&by_config).as_deref(), Some("3"));
    }
}
