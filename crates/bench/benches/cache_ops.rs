//! Micro-benchmark: set-associative cache operations and replacement
//! policies (lookup, fill, eviction-order computation).
//!
//! The two `probe_*` inputs time the presence-filtered lookup on a filled
//! cache: a miss-heavy stream, where a clear filter bit certifies most
//! misses without scanning the set, and a hit-heavy stream, which pays the
//! filter check ahead of every scan.

use bard_cache::{CacheConfig, ReplacementKind, SetAssocCache};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

/// A pseudo-random line-aligned address stream spanning `reach` bytes.
fn addr_stream(i: &mut u64, reach: u64) -> u64 {
    *i = i.wrapping_add(0x9E37_79B9);
    (*i % reach) & !63
}

/// A 2 MiB, 16-way LRU cache with every line filled.
fn filled_2mb_cache() -> SetAssocCache {
    let mut cache =
        SetAssocCache::new(CacheConfig::new(2 * 1024 * 1024, 16, 64), ReplacementKind::Lru);
    for i in 0..(2 * 1024 * 1024 / 64) as u64 {
        cache.fill(i * 64, i % 2 == 0, 0);
    }
    cache
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_ops");
    group.sample_size(30);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for kind in [ReplacementKind::Lru, ReplacementKind::Srrip, ReplacementKind::Ship] {
        group.bench_function(format!("fill_touch_2mb_{}", kind.name()), |b| {
            let mut cache = SetAssocCache::new(CacheConfig::new(2 * 1024 * 1024, 16, 64), kind);
            let mut i = 0u64;
            b.iter(|| {
                let addr = addr_stream(&mut i, 8 * 1024 * 1024);
                if !cache.touch(addr, (i >> 8) as u16, i.is_multiple_of(3)) {
                    cache.fill(addr, i.is_multiple_of(3), (i >> 8) as u16);
                }
            });
        });
    }
    // Miss-heavy: the stream reaches 16x the cache, so ~15/16 probes miss.
    // Hit-heavy: the stream stays inside the resident footprint.
    for (label, reach) in [("miss_heavy", 32 * 1024 * 1024), ("hit_heavy", 2 * 1024 * 1024)] {
        group.bench_function(format!("probe_2mb_{label}"), |b| {
            let cache = filled_2mb_cache();
            let mut i = 0u64;
            b.iter(|| std::hint::black_box(cache.probe(addr_stream(&mut i, reach))));
        });
    }
    group.bench_function("eviction_order_16way", |b| {
        let mut cache =
            SetAssocCache::new(CacheConfig::new(1024 * 1024, 16, 64), ReplacementKind::Lru);
        for i in 0..(1024 * 1024 / 64) as u64 {
            cache.fill(i * 64, i % 2 == 0, 0);
        }
        let mut set = 0usize;
        b.iter(|| {
            set = (set + 1) % cache.sets();
            cache.eviction_order(std::hint::black_box(set))
        });
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
