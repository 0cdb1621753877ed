//! Micro-benchmarks of the sampling stage (Algorithm 1 and Algorithm 2).
//!
//! Measures per-sample PathSampling cost on compressed vs uncompressed
//! graphs (the block-decode latency trade-off of Section 4.2) and the
//! throughput effect of edge downsampling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lightne_gen::generators::chung_lu;
use lightne_graph::{Codec, V2Graph};
use lightne_sparsifier::construct::SamplerConfig;
use lightne_sparsifier::path_sampling::path_sample;
use lightne_sparsifier::sharded::build_sharded_sparsifier;
use lightne_utils::rng::XorShiftStream;
use std::hint::black_box;

fn bench_path_sample(c: &mut Criterion) {
    let g = chung_lu(10_000, 150_000, 2.5, 1);
    let cg = V2Graph::from_graph(&g, Codec::Byte);
    let mut group = c.benchmark_group("path_sample_T10");
    group.sample_size(20);

    group.bench_function("uncompressed_csr", |b| {
        let mut rng = XorShiftStream::new(7, 0);
        b.iter(|| {
            let r = 1 + rng.bounded_usize(10);
            black_box(path_sample(&g, 0, 1, r, &mut rng))
        })
    });
    group.bench_function("parallel_byte_compressed", |b| {
        let mut rng = XorShiftStream::new(7, 0);
        b.iter(|| {
            let r = 1 + rng.bounded_usize(10);
            black_box(path_sample(&cg, 0, 1, r, &mut rng))
        })
    });
    group.finish();
}

fn bench_algorithm2(c: &mut Criterion) {
    let g = chung_lu(5_000, 75_000, 2.5, 2);
    let mut group = c.benchmark_group("algorithm2_full_run");
    group.sample_size(10);

    for downsample in [false, true] {
        group.bench_with_input(
            BenchmarkId::new("downsample", downsample),
            &downsample,
            |b, &ds| {
                let cfg = SamplerConfig {
                    window: 10,
                    samples: 750_000, // M = 1·T·m
                    downsample: ds,
                    c_factor: None,
                    seed: 3,
                    ..Default::default()
                };
                b.iter(|| black_box(build_sharded_sparsifier(&g, &cfg, 0).map(|(_, stats)| stats)))
            },
        );
    }
    group.finish();
}

fn bench_aggregation_paths(c: &mut Criterion) {
    // One shard (the single shared table) vs vertex-range sharding, same
    // sample stream, each through its sorted drain.
    let g = chung_lu(5_000, 75_000, 2.5, 4);
    let cfg = SamplerConfig { window: 10, samples: 750_000, seed: 5, ..Default::default() };
    let mut group = c.benchmark_group("aggregation_path");
    group.sample_size(10);

    for shards in [1usize, 8, 64] {
        group.bench_with_input(BenchmarkId::new("sharded", shards), &shards, |b, &s| {
            b.iter(|| {
                let (table, stats) = build_sharded_sparsifier(&g, &cfg, s).unwrap();
                black_box((table.into_sorted_runs(), stats))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_path_sample, bench_algorithm2, bench_aggregation_paths);
criterion_main!(benches);
