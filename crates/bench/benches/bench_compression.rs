//! Micro-benchmarks of the compressed graph container: the parallel-byte
//! format (Section 4.1, `Codec::Byte`) and the bit-granular codecs.
//!
//! Reproduces the block-size trade-off the paper evaluated before picking
//! 64: smaller blocks fetch an arbitrary incident edge faster (less to
//! decode) but compress worse; larger blocks compress better but slow the
//! random walks. Also reports encode/decode throughput per codec, so a
//! codec change shows up next to the `byte` numbers it must compete with.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lightne_gen::generators::chung_lu;
use lightne_graph::{Codec, V2Graph};
use lightne_utils::rng::XorShiftStream;
use std::hint::black_box;

fn bench_block_size_tradeoff(c: &mut Criterion) {
    let g = chung_lu(20_000, 400_000, 2.3, 1);
    let raw_bytes = g.num_arcs() * 4;

    let mut group = c.benchmark_group("ith_neighbor_by_block_size");
    group.sample_size(20);
    for block in [16usize, 64, 256] {
        let cg = V2Graph::from_graph_with_block_size(&g, Codec::Byte, block)
            .expect("block size in range");
        eprintln!(
            "block={block}: arena {} bytes ({:.2}x raw)",
            cg.arena_bytes(),
            cg.arena_bytes() as f64 / raw_bytes as f64
        );
        group.bench_with_input(BenchmarkId::from_parameter(block), &cg, |b, cg| {
            let mut rng = XorShiftStream::new(3, 0);
            b.iter(|| {
                let v = rng.bounded_usize(20_000) as u32;
                let d = cg.degree(v);
                if d > 0 {
                    black_box(cg.try_ith_neighbor(v, rng.bounded_usize(d)).unwrap());
                }
            })
        });
    }
    group.finish();
}

fn bench_uncompressed_scan(c: &mut Criterion) {
    let g = chung_lu(20_000, 400_000, 2.3, 2);

    let mut group = c.benchmark_group("compression");
    group.sample_size(10);
    group.bench_function("scan_uncompressed_baseline", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for v in 0..g.num_vertices() as u32 {
                for &u in g.neighbors(v) {
                    acc = acc.wrapping_add(u as u64);
                }
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_v2_codecs(c: &mut Criterion) {
    let g = chung_lu(20_000, 400_000, 2.3, 2);
    let codecs = [Codec::Byte, Codec::Gamma, Codec::Zeta(3), Codec::Rice(10), Codec::RiceAdaptive];

    let mut group = c.benchmark_group("v2_decode_all_neighbors");
    group.sample_size(10);
    for codec in codecs {
        let v2 = V2Graph::from_graph(&g, codec);
        eprintln!(
            "v2/{}: container {} bytes ({:.3} bits/edge)",
            codec.name(),
            v2.container_bytes(),
            v2.container_bytes() as f64 * 8.0 / g.num_arcs() as f64
        );
        group.bench_with_input(BenchmarkId::from_parameter(codec.name()), &v2, |b, v2| {
            b.iter(|| {
                let mut acc = 0u64;
                for v in 0..v2.num_vertices() as u32 {
                    v2.try_for_each_neighbor(v, &mut |u| acc = acc.wrapping_add(u as u64)).unwrap();
                }
                black_box(acc)
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("v2_ith_neighbor");
    group.sample_size(20);
    for codec in codecs {
        let v2 = V2Graph::from_graph(&g, codec);
        group.bench_with_input(BenchmarkId::from_parameter(codec.name()), &v2, |b, v2| {
            let mut rng = XorShiftStream::new(3, 0);
            b.iter(|| {
                let v = rng.bounded_usize(20_000) as u32;
                let d = v2.degree(v);
                if d > 0 {
                    black_box(v2.try_ith_neighbor(v, rng.bounded_usize(d)).unwrap());
                }
            })
        });
    }
    group.finish();
}

fn bench_v2_encode(c: &mut Criterion) {
    let g = chung_lu(20_000, 400_000, 2.3, 2);
    let mut group = c.benchmark_group("v2_encode_full_graph");
    group.sample_size(10);
    for codec in [Codec::Byte, Codec::Zeta(3), Codec::RiceAdaptive] {
        group.bench_with_input(BenchmarkId::from_parameter(codec.name()), &codec, |b, &codec| {
            b.iter(|| black_box(V2Graph::from_graph(&g, codec)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_block_size_tradeoff,
    bench_uncompressed_scan,
    bench_v2_codecs,
    bench_v2_encode
);
criterion_main!(benches);
