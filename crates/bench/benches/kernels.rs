//! Criterion micro-benchmarks of the hot kernels: GEMM, segment ops, the
//! wire codec, and partition routing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use inferturbo_common::codec::{Decode, Encode};
use inferturbo_common::hash::partition_of;
use inferturbo_common::Xoshiro256;
use inferturbo_core::gas::GnnMessage;
use inferturbo_tensor::Matrix;
use std::hint::black_box;

fn bench_gemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemm");
    g.sample_size(20);
    for &n in &[32usize, 128] {
        let a = Matrix::from_fn(n, n, |r, col| ((r * n + col) as f32 * 0.01).sin());
        let b = Matrix::from_fn(n, n, |r, col| ((r + col) as f32 * 0.02).cos());
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| black_box(a.matmul(&b)));
        });
    }
    g.finish();
}

fn bench_segment_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("segment");
    g.sample_size(20);
    let e = 50_000usize;
    let n = 5_000usize;
    let dim = 32usize;
    let mut rng = Xoshiro256::seed_from_u64(1);
    let msgs = Matrix::from_fn(e, dim, |_, _| rng.next_f32());
    let seg: Vec<u32> = (0..e).map(|_| rng.below(n as u64) as u32).collect();
    g.bench_function("segment_sum_50k_edges", |bench| {
        bench.iter(|| black_box(msgs.segment_sum(&seg, n)));
    });
    g.bench_function("segment_softmax_50k_edges", |bench| {
        bench.iter(|| black_box(msgs.segment_softmax(&seg, n)));
    });
    g.bench_function("gather_rows_50k", |bench| {
        let table = Matrix::from_fn(n, dim, |_, _| 0.5);
        bench.iter(|| black_box(table.gather_rows(&seg)));
    });
    g.finish();
}

fn bench_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec");
    g.sample_size(30);
    let msg = GnnMessage::Payload((0..64).map(|i| i as f32 * 0.1).collect());
    g.bench_function("encode_payload_64", |bench| {
        bench.iter(|| black_box(msg.to_bytes()));
    });
    let bytes = msg.to_bytes();
    g.bench_function("decode_payload_64", |bench| {
        bench.iter(|| black_box(GnnMessage::from_bytes(&bytes).unwrap()));
    });
    g.finish();
}

fn bench_routing(c: &mut Criterion) {
    let mut g = c.benchmark_group("routing");
    g.sample_size(30);
    g.bench_function("partition_of_1k_ids", |bench| {
        bench.iter(|| {
            let mut acc = 0usize;
            for id in 0..1000u64 {
                acc += partition_of(black_box(id), 1000);
            }
            black_box(acc)
        });
    });
    g.finish();
}

criterion_group!(
    kernels,
    bench_gemm,
    bench_segment_ops,
    bench_codec,
    bench_routing
);
criterion_main!(kernels);
