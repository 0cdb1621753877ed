//! Cross-aggregator equivalence under the real sample stream.
//!
//! The same PathSampling stream is routed into the paper's single shared
//! table (a 1-shard [`ShardedEdgeTable`]), an 8-shard one, and the NetSMF
//! baseline's per-thread [`ThreadLocalAggregator`] — at 1, 2, and 8 worker
//! threads. The two fixed-point tables must drain bitwise-identical
//! (key, weight) lists at every thread count; the thread-local buffers
//! accumulate f32 directly, so their merge order (and hence rounding)
//! varies, and they are held to the same key set with weights inside the
//! quantization band.
//!
//! Everything lives in ONE test function on purpose: all tests in a
//! binary share the global rayon pool, and this test resizes it
//! mid-flight.

use lightne::baselines::netsmf::ThreadLocalAggregator;
use lightne::gen::generators::erdos_renyi;
use lightne::hash::{EdgeAggregator, ShardedEdgeTable};
use lightne::sparsifier::construct::{sample_into, SamplerConfig};
use lightne::utils::parallel::configure_threads;

fn assert_bitwise(a: &[(u32, u32, f32)], b: &[(u32, u32, f32)], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: entry counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!((x.0, x.1), (y.0, y.1), "{what}: key mismatch");
        assert_eq!(
            x.2.to_bits(),
            y.2.to_bits(),
            "{what}: weight bits differ at ({}, {}): {} vs {}",
            x.0,
            x.1,
            x.2,
            y.2
        );
    }
}

#[test]
fn aggregators_agree_at_one_two_and_eight_threads() {
    let g = erdos_renyi(250, 2_500, 123);
    let cfg = SamplerConfig { window: 4, samples: 150_000, seed: 31, ..Default::default() };

    // The drain of the fixed-point tables must be stable across thread
    // counts too; the first iteration's result anchors the comparison.
    let mut reference: Option<Vec<(u32, u32, f32)>> = None;

    for threads in [1usize, 2, 8] {
        assert_eq!(configure_threads(threads), threads);

        // Every aggregator here drains in packed-key order.
        let [single, sharded] = [1, 8].map(|shards| {
            let table = ShardedEdgeTable::new(g.num_vertices(), shards, 1024);
            sample_into(&g, &cfg, &table).unwrap();
            table.into_coo()
        });

        // Created after configure_threads so it has one buffer per worker.
        let buffers = ThreadLocalAggregator::new();
        sample_into(&g, &cfg, &buffers).unwrap();
        let local = buffers.into_coo();

        assert_bitwise(&single, &sharded, &format!("1 shard vs 8 shards @{threads}t"));

        // Thread-local buffers: identical key set, weights within the
        // fixed-point quantization + f32 merge-order band.
        assert_eq!(single.len(), local.len(), "key sets differ @{threads}t");
        for (x, y) in single.iter().zip(&local) {
            assert_eq!((x.0, x.1), (y.0, y.1), "thread-local key mismatch @{threads}t");
            assert!(
                (x.2 - y.2).abs() < 1e-2 * x.2.abs().max(1.0),
                "thread-local weight off at ({}, {}) @{threads}t: {} vs {}",
                x.0,
                x.1,
                x.2,
                y.2
            );
        }

        match &reference {
            None => reference = Some(single),
            Some(r) => assert_bitwise(r, &single, &format!("thread sweep @{threads}t")),
        }
    }
}
