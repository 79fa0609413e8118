//! A sharded, exact-LRU plan cache.
//!
//! Keys are the composite `Planner::cache_key()` strings (distribution ×
//! cost-model bits × solver config, plus the simulate options appended by
//! the server), so a hit is guaranteed to be bit-identical to recomputing:
//! every input that can change the plan is in the key, and distributions
//! without a faithful key opt out of caching entirely.
//!
//! Sharding bounds lock contention under concurrent clients: a key maps to
//! one shard by FNV-1a hash, and each shard is an independent exact-LRU
//! map guarded by its own mutex. Recency is a per-shard logical tick
//! bumped on every touch — eviction removes the entry with the smallest
//! tick, which is exact LRU within the shard.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use reservation_strategies::Plan;

#[derive(Debug)]
struct Entry {
    plan: Arc<Plan>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<String, Entry>,
    tick: u64,
}

impl Shard {
    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// A fixed-capacity plan cache, sharded by key hash, with exact LRU
/// eviction inside each shard.
#[derive(Debug)]
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
}

impl PlanCache {
    /// A cache holding up to `capacity` plans spread over `shards` shards
    /// (each shard holds `ceil(capacity / shards)`, minimum 1).
    ///
    /// Degenerate arguments are clamped, never panicked on, and each
    /// clamp logs a warning so a misconfigured deployment is visible:
    /// zero `shards` is clamped to 1, and zero `capacity` disables the
    /// cache entirely (every lookup misses and inserts are dropped).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = if shards == 0 {
            rsj_obs::warn!("PlanCache configured with 0 shards; clamping to 1");
            1
        } else {
            shards
        };
        let per_shard_capacity = if capacity == 0 {
            rsj_obs::warn!("PlanCache configured with 0 capacity; caching is disabled");
            0
        } else {
            capacity.div_ceil(shards).max(1)
        };
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity,
        }
    }

    fn shard_for(&self, key: &str) -> &Mutex<Shard> {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in key.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Looks up `key`, bumping its recency on a hit.
    pub fn get(&self, key: &str) -> Option<Arc<Plan>> {
        let mut shard = self.shard_for(key).lock().expect("cache shard poisoned");
        let tick = shard.touch();
        let entry = shard.map.get_mut(key)?;
        entry.last_used = tick;
        Some(Arc::clone(&entry.plan))
    }

    /// Inserts (or refreshes) `key`, evicting the shard's least recently
    /// used entry if the shard is full.
    pub fn insert(&self, key: String, plan: Arc<Plan>) {
        if self.per_shard_capacity == 0 {
            return;
        }
        let mut shard = self.shard_for(&key).lock().expect("cache shard poisoned");
        let tick = shard.touch();
        if !shard.map.contains_key(&key) && shard.map.len() >= self.per_shard_capacity {
            // Exact LRU within the shard: evict the stalest tick.
            if let Some(stalest) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                shard.map.remove(&stalest);
            }
        }
        shard.map.insert(
            key,
            Entry {
                plan,
                last_used: tick,
            },
        );
    }

    /// Number of cached plans across all shards.
    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    /// A point-in-time copy of every cached `(key, plan)` pair, in
    /// unspecified order. Shards are locked one at a time, so the copy is
    /// consistent per shard but not across shards — exactly the guarantee
    /// a snapshot compaction needs (any plan it misses is still in the
    /// journal tail).
    pub(crate) fn entries(&self) -> Vec<(String, Arc<Plan>)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard poisoned");
            out.extend(
                shard
                    .map
                    .iter()
                    .map(|(k, e)| (k.clone(), Arc::clone(&e.plan))),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(tag: &str) -> Arc<Plan> {
        Arc::new(Plan {
            distribution: tag.to_string(),
            solver: "mean_by_mean".to_string(),
            sequence: vec![1.0],
            complete: false,
            expected_cost: 1.0,
            omniscient_cost: 1.0,
            normalized_cost: 1.0,
            coverage_gap: 0.0,
            digest: tag.to_string(),
            simulation: None,
        })
    }

    #[test]
    fn evicts_in_lru_order() {
        // One shard so the eviction order is fully observable.
        let cache = PlanCache::new(2, 1);
        cache.insert("a".into(), plan("a"));
        cache.insert("b".into(), plan("b"));
        // Touch `a`, making `b` the LRU entry.
        assert!(cache.get("a").is_some());
        cache.insert("c".into(), plan("c"));
        assert_eq!(cache.len(), 2);
        assert!(cache.get("b").is_none(), "b was LRU and must be evicted");
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
        // Without the touch, `a` would have been the victim instead.
        let cache = PlanCache::new(2, 1);
        cache.insert("a".into(), plan("a"));
        cache.insert("b".into(), plan("b"));
        cache.insert("c".into(), plan("c"));
        assert!(cache.get("a").is_none());
        assert!(cache.get("b").is_some());
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let cache = PlanCache::new(2, 1);
        cache.insert("a".into(), plan("a"));
        cache.insert("b".into(), plan("b"));
        cache.insert("a".into(), plan("a2"));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get("a").unwrap().digest, "a2");
        assert!(cache.get("b").is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = PlanCache::new(0, 4);
        cache.insert("a".into(), plan("a"));
        assert_eq!(cache.len(), 0);
        assert!(cache.get("a").is_none());
    }

    #[test]
    fn zero_shards_clamps_to_one_without_panicking() {
        let cache = PlanCache::new(4, 0);
        cache.insert("a".into(), plan("a"));
        cache.insert("b".into(), plan("b"));
        assert_eq!(cache.len(), 2);
        assert!(cache.get("a").is_some());
        assert!(cache.get("b").is_some());
    }

    #[test]
    fn zero_everything_is_a_working_null_cache() {
        // Both degenerate edges at once: must not panic, must behave as a
        // cache that never holds anything.
        let cache = PlanCache::new(0, 0);
        cache.insert("a".into(), plan("a"));
        assert_eq!(cache.len(), 0);
        assert!(cache.get("a").is_none());
        assert!(cache.entries().is_empty());
    }

    #[test]
    fn entries_copies_every_shard() {
        let cache = PlanCache::new(8, 4);
        cache.insert("a".into(), plan("a"));
        cache.insert("b".into(), plan("b"));
        cache.insert("c".into(), plan("c"));
        let mut keys: Vec<String> = cache.entries().into_iter().map(|(k, _)| k).collect();
        keys.sort();
        assert_eq!(keys, vec!["a", "b", "c"]);
    }

    #[test]
    fn sharded_capacity_holds_at_least_the_requested_total() {
        let cache = PlanCache::new(8, 4);
        for i in 0..8 {
            cache.insert(format!("key-{i}"), plan("p"));
        }
        // Hash skew can spill a shard (evicting early) but never below
        // half; with 2 per shard and 8 keys over 4 shards we keep most.
        assert!(cache.len() >= 4, "len = {}", cache.len());
    }
}
