//! Session-cache keys and the LRU policy of the daemon.
//!
//! A prepared session is expensive (ensemble of Räcke trees, spanning tree
//! and scratch); `flowd` keys each one by a **fingerprint** of its
//! `load_graph` request: node count, edge list with capacity bit patterns,
//! and the canonical JSON of the solver config. The fingerprint names the
//! session as loaded; updates change its capacities but not its key, so a
//! client that resends the same graph gets the cached session back at its
//! current capacities. The cache holds at most `capacity` sessions and
//! evicts the least recently *used* one (queries and updates both count as
//! use).

/// 64-bit FNV-1a — tiny, dependency-free, and stable across platforms. The
/// fingerprint is a cache key, not a security boundary; collisions merely
/// serve a query against the colliding graph, and the offset/prime constants
/// are the canonical ones so the key is reproducible by third-party clients.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// FNV-1a offset basis.
    pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    /// FNV-1a prime.
    pub const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Starts a fresh hash.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Absorbs a little-endian `u64`.
    pub fn write_u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// Fingerprints a `load_graph` request: node count, every `(u, v)` edge with
/// the exact capacity bit pattern, and the config JSON (empty string for the
/// server default). Two requests collide only if they would prepare
/// byte-identical sessions (up to 64-bit hash collisions); the key keeps
/// naming a session after updates move it away from those bytes.
pub fn graph_fingerprint(nodes: u64, edges: &[(u32, u32, f64)], config_json: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(nodes);
    h.write_u64(edges.len() as u64);
    for &(u, v, cap) in edges {
        h.write_u64(u64::from(u));
        h.write_u64(u64::from(v));
        h.write_u64(cap.to_bits());
    }
    h.write(config_json.as_bytes());
    h.finish()
}

/// A fixed-capacity least-recently-used map from fingerprint to session
/// handle. Linear scans are fine: the cache holds a handful of *prepared
/// sessions* (each hundreds of kilobytes to gigabytes), so `capacity` is
/// single- to low-double-digit and the scan is noise next to one gradient
/// iteration.
#[derive(Debug)]
pub struct Lru<V> {
    capacity: usize,
    /// Most recently used last.
    entries: Vec<(u64, V)>,
}

impl<V> Lru<V> {
    /// An empty cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Lru {
            capacity: capacity.max(1),
            entries: Vec::new(),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a fingerprint and marks it most recently used.
    pub fn get(&mut self, key: u64) -> Option<&mut V> {
        let i = self.entries.iter().position(|(k, _)| *k == key)?;
        let entry = self.entries.remove(i);
        self.entries.push(entry);
        Some(&mut self.entries.last_mut().expect("just pushed").1)
    }

    /// Looks up a fingerprint without touching recency.
    pub fn peek(&self, key: u64) -> Option<&V> {
        self.entries.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Inserts (or replaces) an entry as most recently used, returning the
    /// evicted `(fingerprint, value)` if the cache was full — the caller
    /// owns tearing the evicted session down.
    pub fn insert(&mut self, key: u64, value: V) -> Option<(u64, V)> {
        let replaced = self
            .entries
            .iter()
            .position(|(k, _)| *k == key)
            .map(|i| self.entries.remove(i));
        let evicted = match replaced {
            Some(old) => Some(old),
            None if self.entries.len() == self.capacity => Some(self.entries.remove(0)),
            None => None,
        };
        self.entries.push((key, value));
        evicted
    }

    /// Drains every entry (shutdown path).
    pub fn drain(&mut self) -> Vec<(u64, V)> {
        std::mem::take(&mut self.entries)
    }

    /// Fingerprints currently cached, least recently used first.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries.iter().map(|(k, _)| *k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_separates_graphs_capacities_and_configs() {
        let edges = vec![(0u32, 1u32, 1.0f64), (1, 2, 2.0)];
        let base = graph_fingerprint(3, &edges, "");
        // Stable across calls.
        assert_eq!(base, graph_fingerprint(3, &edges, ""));
        // Node count, edge endpoints, capacity bits and config all matter.
        assert_ne!(base, graph_fingerprint(4, &edges, ""));
        assert_ne!(base, graph_fingerprint(3, &[(0, 1, 1.0), (1, 2, 2.5)], ""));
        assert_ne!(base, graph_fingerprint(3, &[(0, 2, 1.0), (1, 2, 2.0)], ""));
        assert_ne!(base, graph_fingerprint(3, &edges, r#"{"epsilon":0.5}"#));
        // -0.0 and 0.0 have different bit patterns, so they are different
        // keys (matching the bitwise session-equality contract).
        assert_ne!(
            graph_fingerprint(3, &[(0, 1, 0.0), (1, 2, 2.0)], ""),
            graph_fingerprint(3, &[(0, 1, -0.0), (1, 2, 2.0)], "")
        );
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Canonical FNV-1a test vectors.
        let mut h = Fnv1a::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru = Lru::new(2);
        assert!(lru.insert(1, "a").is_none());
        assert!(lru.insert(2, "b").is_none());
        // Touch 1 so 2 becomes the eviction victim.
        assert_eq!(lru.get(1), Some(&mut "a"));
        let evicted = lru.insert(3, "c");
        assert_eq!(evicted, Some((2, "b")));
        assert_eq!(lru.len(), 2);
        assert!(lru.peek(2).is_none());
        assert!(lru.peek(1).is_some());
        assert!(lru.peek(3).is_some());
    }

    #[test]
    fn lru_replacing_a_live_key_returns_the_old_value_without_eviction() {
        let mut lru = Lru::new(2);
        lru.insert(1, "a");
        lru.insert(2, "b");
        let old = lru.insert(1, "a2");
        assert_eq!(old, Some((1, "a")));
        assert_eq!(lru.len(), 2, "replacement must not evict the other entry");
        assert_eq!(lru.peek(2), Some(&"b"));
    }

    #[test]
    fn lru_capacity_floor_is_one_and_drain_empties() {
        let mut lru = Lru::new(0);
        assert!(lru.insert(1, "a").is_none());
        assert_eq!(lru.insert(2, "b"), Some((1, "a")));
        let drained = lru.drain();
        assert_eq!(drained, vec![(2, "b")]);
        assert!(lru.is_empty());
    }
}
