//! Small measurement helpers: seed derivation, report digests, medians,
//! percentiles, cache-counter arithmetic, and peak RSS.

use gmp_core::CacheStats;
use gmp_sim::TaskReport;

/// Named seed streams, so every input family draws from its own sequence.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    Topology = 1,
    Tasks = 2,
    Warmup = 3,
    Faults = 4,
    Service = 5,
}

/// Derives the seed of item `index` of `stream` from the run's `--seed`.
/// Splitmix64 over the three words: stable across platforms and releases,
/// and distinct for every (seed, stream, index).
pub fn derive(seed: u64, stream: Stream, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((stream as u64) << 56)
        .wrapping_add(index);
    for _ in 0..2 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
    }
    z
}

/// 64-bit FNV-1a, fed whole words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of every field of a report, floats by bit pattern, so two
/// reports share a digest only if they are bit-identical.
pub fn report_digest(r: &TaskReport) -> u64 {
    let mut h = Fnv::default();
    for b in r.protocol.bytes() {
        h.word(u64::from(b));
    }
    h.word(r.transmissions as u64);
    h.word(r.energy_j.to_bits());
    h.word(r.delivery_hops.len() as u64);
    for (node, hops) in &r.delivery_hops {
        h.word(u64::from(node.0));
        h.word(u64::from(*hops));
    }
    h.word(r.delivery_times_s.len() as u64);
    for (node, t) in &r.delivery_times_s {
        h.word(u64::from(node.0));
        h.word(t.to_bits());
    }
    h.word(r.failed_dests.len() as u64);
    for f in &r.failed_dests {
        h.word(u64::from(f.dest.0));
        h.word(f.cause.index() as u64);
    }
    h.word(r.dropped_packets as u64);
    h.word(r.completion_time_s.to_bits());
    h.word(r.bytes_transmitted as u64);
    h.word(u64::from(r.truncated));
    h.word(r.links.len() as u64);
    for (from, to) in &r.links {
        h.word(u64::from(from.0));
        h.word(u64::from(to.0));
    }
    for t in &r.link_times_s {
        h.word(t.to_bits());
    }
    h.finish()
}

/// Median of `values` (mean of the middle pair for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of a sorted slice: the smallest sample with at
/// least a `q` share of the samples at or below it; 0 for an empty slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The counters of several caches, added up.
pub fn total_stats(stats: impl Iterator<Item = CacheStats>) -> CacheStats {
    stats.fold(CacheStats::default(), |a, b| CacheStats {
        hits: a.hits + b.hits,
        misses: a.misses + b.misses,
        fallbacks: a.fallbacks + b.fallbacks,
        evictions: a.evictions + b.evictions,
        epoch_flushes: a.epoch_flushes + b.epoch_flushes,
        entries_live: a.entries_live + b.entries_live,
        pool_reused: a.pool_reused + b.pool_reused,
    })
}

/// Cache counters accumulated between two snapshots.
pub fn cache_delta(before: CacheStats, after: CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        fallbacks: after.fallbacks - before.fallbacks,
        evictions: after.evictions - before.evictions,
        epoch_flushes: after.epoch_flushes - before.epoch_flushes,
        entries_live: after.entries_live,
        pool_reused: after.pool_reused - before.pool_reused,
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc/self/status` does not expose it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.50), 50.0);
        assert_eq!(nearest_rank(&v, 0.99), 99.0);
        assert_eq!(nearest_rank(&v, 1.0), 100.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
    }

    #[test]
    fn median_of_chunks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn seed_derivation_is_deterministic_and_seed_sensitive() {
        assert_eq!(derive(1, Stream::Tasks, 7), derive(1, Stream::Tasks, 7));
        assert_ne!(derive(1, Stream::Tasks, 7), derive(2, Stream::Tasks, 7));
        assert_ne!(derive(1, Stream::Tasks, 7), derive(1, Stream::Warmup, 7));
        assert_ne!(derive(1, Stream::Tasks, 7), derive(1, Stream::Tasks, 8));
    }

    #[test]
    fn digest_separates_reports() {
        let a = TaskReport::new("GMP".into());
        let mut b = a.clone();
        assert_eq!(report_digest(&a), report_digest(&b));
        b.energy_j = -0.0;
        assert_ne!(report_digest(&a), report_digest(&b));
    }
}
