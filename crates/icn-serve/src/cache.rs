//! Content-addressed result cache: memory LRU front, optional disk behind.
//!
//! The service's responses are pure functions of the *resolved* request
//! configuration (simulations are replay-deterministic from the seed, and
//! design evaluation is closed-form), so a finished result can be served
//! forever. Keys are content hashes of the canonical configuration
//! ([`crate::api::content_key`]); values are the exact serialized response
//! bodies, shared by `Arc` so a cache hit never re-serializes and is
//! byte-identical to the first response.
//!
//! The memory store is a `BTreeMap` plus a logical access clock: each
//! `get`/`insert` bumps the clock and stamps the entry, and eviction scans
//! for the smallest stamp. The scan is O(entries), which is fine at the
//! hundreds-of-entries capacities this service runs with — and it keeps
//! iteration order deterministic, unlike a hash map.
//!
//! With a spill directory configured ([`ResultCache::with_spill`]) the
//! cache becomes two-level: inserts write **through** to a
//! [`crate::spill::DiskStore`] (so every completed result is durable even
//! after memory eviction), and a memory miss falls back to disk, promoting
//! the body back into the LRU on a disk hit. Bodies cheaper to recompute
//! than to fsync (closed-form evaluations) skip the disk
//! ([`ResultCache::insert_memory`]). Corrupt or truncated disk
//! entries are detected by their checksum frame and silently discarded —
//! the result simply recomputes.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use serde::Serialize;

use crate::spill::DiskStore;

/// One cached response body.
#[derive(Debug)]
struct Entry {
    body: Arc<String>,
    last_used: u64,
}

/// Content-addressed LRU cache of serialized response bodies, with an
/// optional write-through disk spill behind it.
#[derive(Debug)]
pub struct ResultCache {
    entries: BTreeMap<String, Entry>,
    capacity: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    spill: Option<Arc<DiskStore>>,
}

/// Counter snapshot, one part of the service's [`crate::MetricsSnapshot`]
/// (serialized as-is into `/v1/stats` and the shutdown summary).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CacheStats {
    /// Lookups that returned a cached body (memory or disk).
    pub hits: u64,
    /// Lookups that found nothing anywhere.
    pub misses: u64,
    /// Entries displaced from memory to make room.
    pub evictions: u64,
    /// Bodies currently held in memory.
    pub entries: usize,
    /// Configured memory capacity (0 = memory caching disabled).
    pub capacity: usize,
    /// Bodies written through to the disk spill.
    pub spill_writes: u64,
    /// Spill writes that failed or were refused (the body stays in
    /// memory only).
    pub spill_write_failures: u64,
    /// Memory misses answered by the disk spill.
    pub disk_hits: u64,
    /// Corrupt or truncated disk entries detected and discarded.
    pub disk_discarded: u64,
}

impl ResultCache {
    /// A memory-only cache holding at most `capacity` bodies. Zero
    /// disables memory caching: every lookup misses and inserts are
    /// dropped (the counters still track the misses, so `/v1/stats` shows
    /// the cache is cold on purpose rather than broken).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: BTreeMap::new(),
            capacity,
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            spill: None,
        }
    }

    /// Attach a disk spill behind the memory LRU: inserts write through,
    /// memory misses fall back to disk. With `capacity == 0` the cache
    /// becomes disk-only — still correct, just slower on hits.
    #[must_use]
    pub fn with_spill(capacity: usize, spill: Arc<DiskStore>) -> Self {
        let mut cache = Self::new(capacity);
        cache.spill = Some(spill);
        cache
    }

    /// Look up a body by content key: memory first (refreshing recency on
    /// a hit), then the disk spill, promoting a disk hit back into memory.
    pub fn get(&mut self, key: &str) -> Option<Arc<String>> {
        self.clock += 1;
        if let Some(entry) = self.entries.get_mut(key) {
            entry.last_used = self.clock;
            self.hits += 1;
            return Some(Arc::clone(&entry.body));
        }
        if let Some(body) = self.spill.as_ref().and_then(|s| s.get(key)) {
            let body = Arc::new(body);
            self.promote(key, Arc::clone(&body));
            self.hits += 1;
            return Some(body);
        }
        self.misses += 1;
        None
    }

    /// Store a body under its content key, evicting the least-recently-used
    /// memory entry if full, and writing through to the disk spill when one
    /// is attached. Re-inserting an existing key refreshes its body and
    /// recency without eviction.
    pub fn insert(&mut self, key: &str, body: Arc<String>) {
        if let Some(spill) = &self.spill {
            // Write-through; a failed spill write (an I/O error, or a body
            // the frame codec refuses) costs durability for this one
            // entry, not correctness — the job result is still served from
            // memory and recomputes after a restart. The store counts it
            // (`CacheStats::spill_write_failures`).
            let _ = spill.put(key, &body);
        }
        self.insert_memory(key, body);
    }

    /// Delete every spilled body whose key `keep` does not name. Spill
    /// writes need `&mut self` too, so none races the deletion.
    pub fn retain_spilled<'a>(&mut self, keep: impl IntoIterator<Item = &'a str>) {
        if let Some(spill) = &self.spill {
            spill.retain(keep);
        }
    }

    /// Store a body in the memory LRU only, never the disk spill: for
    /// bodies that recompute faster than a spill write syncs.
    pub fn insert_memory(&mut self, key: &str, body: Arc<String>) {
        self.clock += 1;
        self.promote(key, body);
    }

    /// Place a body in the memory LRU (shared by insert and disk-hit
    /// promotion). Assumes the clock was already bumped.
    fn promote(&mut self, key: &str, body: Arc<String>) {
        if self.capacity == 0 {
            return;
        }
        if !self.entries.contains_key(key) && self.entries.len() >= self.capacity {
            // O(n) scan for the stalest entry; deterministic because the
            // logical clock stamps are unique.
            if let Some(stalest) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&stalest);
                self.evictions += 1;
            }
        }
        self.entries.insert(
            key.to_string(),
            Entry {
                body,
                last_used: self.clock,
            },
        );
    }

    /// Current counter snapshot.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let (spill_writes, spill_write_failures, disk_hits, disk_discarded) = match &self.spill {
            Some(s) => (
                s.counters.writes.load(Ordering::Relaxed),
                s.counters.write_failures.load(Ordering::Relaxed),
                s.counters.hits.load(Ordering::Relaxed),
                s.counters.discarded.load(Ordering::Relaxed),
            ),
            None => (0, 0, 0, 0),
        };
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.entries.len(),
            capacity: self.capacity,
            spill_writes,
            spill_write_failures,
            disk_hits,
            disk_discarded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(s: &str) -> Arc<String> {
        Arc::new(s.to_string())
    }

    fn spill(name: &str) -> Arc<DiskStore> {
        let dir =
            std::env::temp_dir().join(format!("icn-cache-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Arc::new(DiskStore::open(&dir).unwrap())
    }

    #[test]
    fn hit_returns_the_inserted_body() {
        let mut c = ResultCache::new(4);
        assert!(c.get("k").is_none());
        c.insert("k", body("v"));
        assert_eq!(c.get("k").unwrap().as_str(), "v");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = ResultCache::new(2);
        c.insert("a", body("1"));
        c.insert("b", body("2"));
        assert!(c.get("a").is_some()); // refresh "a"; "b" is now stalest
        c.insert("c", body("3"));
        assert!(c.get("b").is_none(), "b should have been evicted");
        assert!(c.get("a").is_some());
        assert!(c.get("c").is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn reinserting_a_key_does_not_evict() {
        let mut c = ResultCache::new(2);
        c.insert("a", body("1"));
        c.insert("b", body("2"));
        c.insert("a", body("1'"));
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.get("a").unwrap().as_str(), "1'");
        assert!(c.get("b").is_some());
    }

    #[test]
    fn zero_capacity_disables_memory_caching() {
        let mut c = ResultCache::new(0);
        c.insert("k", body("v"));
        assert!(c.get("k").is_none());
        assert_eq!(c.stats().entries, 0);
    }

    #[test]
    fn evicted_entry_comes_back_from_disk() {
        let mut c = ResultCache::with_spill(1, spill("evict"));
        c.insert("a", body("first"));
        c.insert("b", body("second")); // evicts "a" from memory
        assert_eq!(c.stats().entries, 1);
        let got = c.get("a").expect("disk answers the memory miss");
        assert_eq!(got.as_str(), "first");
        assert_eq!(c.stats().disk_hits, 1);
        // Promotion put "a" back in memory (displacing "b" in memory only).
        assert_eq!(c.get("a").unwrap().as_str(), "first");
        assert_eq!(c.stats().disk_hits, 1, "second hit served from memory");
    }

    #[test]
    fn fresh_cache_reloads_from_the_same_spill_dir() {
        let s = spill("reload");
        {
            let mut c = ResultCache::with_spill(4, Arc::clone(&s));
            c.insert("k", body("{\"persisted\":true}"));
        }
        let mut c2 = ResultCache::with_spill(4, s);
        assert_eq!(c2.get("k").unwrap().as_str(), "{\"persisted\":true}");
    }

    /// A body over the frame codec's bound cannot be spilled: the failure
    /// is counted, and the body is still served from memory.
    #[test]
    fn oversized_body_counts_a_spill_write_failure() {
        let mut c = ResultCache::with_spill(4, spill("oversized"));
        let big = "x".repeat(crate::frame::MAX_PAYLOAD_BYTES + 1);
        c.insert("big", Arc::new(big.clone()));
        let stats = c.stats();
        assert_eq!((stats.spill_writes, stats.spill_write_failures), (0, 1));
        assert_eq!(c.get("big").as_deref(), Some(&big));
    }

    #[test]
    fn disk_only_mode_still_round_trips() {
        let mut c = ResultCache::with_spill(0, spill("diskonly"));
        c.insert("k", body("v"));
        assert_eq!(c.get("k").unwrap().as_str(), "v");
        assert_eq!(c.stats().entries, 0, "nothing pinned in memory");
    }
}
