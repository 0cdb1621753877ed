//! End-to-end pipeline benchmarks: the three LightNE stages on an
//! OAG-like workload, plus spectral propagation in isolation and the
//! ProNE+/NetSMF baselines for the Table 5 comparison at micro scale.

use criterion::{criterion_group, criterion_main, Criterion};
use lightne_baselines::{NetSmf, NetSmfConfig, ProNe, ProNeConfig};
use lightne_core::{spectral_propagation, LightNe, LightNeConfig, PropagationConfig};
use lightne_gen::profiles::Profile;
use lightne_linalg::DenseMatrix;
use std::hint::black_box;

fn bench_systems(c: &mut Criterion) {
    let data = Profile::Oag.generate(0.00003, 11);
    let g = data.graph;
    let mut group = c.benchmark_group("end_to_end_oag_like");
    group.sample_size(10);

    group.bench_function("lightne_small_0.1Tm", |b| {
        let pipe = LightNe::new(LightNeConfig {
            dim: 32,
            window: 10,
            sample_ratio: 0.1,
            ..Default::default()
        });
        b.iter(|| black_box(pipe.embed(&g)))
    });
    group.bench_function("lightne_2Tm", |b| {
        let pipe = LightNe::new(LightNeConfig {
            dim: 32,
            window: 10,
            sample_ratio: 2.0,
            ..Default::default()
        });
        b.iter(|| black_box(pipe.embed(&g)))
    });
    group.bench_function("netsmf_2Tm", |b| {
        let sys = NetSmf::new(NetSmfConfig {
            dim: 32,
            window: 10,
            sample_ratio: 2.0,
            ..Default::default()
        });
        b.iter(|| black_box(sys.embed(&g)))
    });
    group.bench_function("prone_plus", |b| {
        let sys = ProNe::new(ProNeConfig { dim: 32, ..Default::default() });
        b.iter(|| black_box(sys.embed(&g)))
    });
    group.finish();
}

fn bench_propagation(c: &mut Criterion) {
    let data = Profile::Oag.generate(0.0001, 12);
    let g = data.graph;
    let x = DenseMatrix::gaussian(g.num_vertices(), 32, 13);
    let mut group = c.benchmark_group("spectral_propagation");
    group.sample_size(10);
    for order in [5usize, 10] {
        group.bench_function(format!("order_{order}"), |b| {
            let cfg = PropagationConfig { order, ..Default::default() };
            b.iter(|| black_box(spectral_propagation(&g, &x, &cfg)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_systems, bench_propagation);
criterion_main!(benches);
