//! `tensor` kernel rates at the workloads' per-worker layer shapes.
//!
//! Shapes follow the benchmark model (GraphSAGE-2, 32 → 64 → 64) on one
//! worker's share of the graph: `rows` nodes and `edges` messages. Byte
//! rates are *computed* from operand sizes (each operand read once, each
//! result written once), not measured from memory counters.

use crate::measure::median;
use inferturbo::common::Xoshiro256;
use inferturbo::tensor::{row_axpy, Matrix};
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 15;
const IN_DIM: usize = 32;
const HIDDEN: usize = 64;

#[derive(Debug, Clone, Copy)]
pub struct KernelRates {
    pub matmul_gflops: f64,
    pub segment_sum_gbps: f64,
    pub row_axpy_gbps: f64,
    pub samples: usize,
}

fn random_matrix(rng: &mut Xoshiro256, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gaussian_f32(0.0, 1.0))
}

/// Median seconds of `REPS` calls of `f`.
fn time_reps(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

pub fn measure(rows: usize, edges: usize, seed: u64) -> KernelRates {
    let mut rng = Xoshiro256::seed_from_u64(seed).fork(11);
    let x = random_matrix(&mut rng, rows, IN_DIM);
    let h = random_matrix(&mut rng, rows, HIDDEN);
    let w0 = random_matrix(&mut rng, IN_DIM, HIDDEN);
    let w1 = random_matrix(&mut rng, HIDDEN, HIDDEN);
    let msgs = random_matrix(&mut rng, edges, HIDDEN);
    let seg: Vec<u32> = (0..edges).map(|_| rng.below(rows as u64) as u32).collect();

    let matmul_s = time_reps(|| {
        black_box(black_box(&x).matmul(black_box(&w0)));
        black_box(black_box(&h).matmul(black_box(&w1)));
    });
    let matmul_flops = 2.0 * rows as f64 * (IN_DIM * HIDDEN + HIDDEN * HIDDEN) as f64;

    let segment_s = time_reps(|| {
        black_box(black_box(&msgs).segment_sum(black_box(&seg), rows));
    });
    let segment_bytes = 4.0 * (edges * HIDDEN + edges + rows * HIDDEN) as f64;

    let mut acc = vec![0.0f32; rows * HIDDEN];
    let axpy_s = time_reps(|| {
        for (i, &s) in seg.iter().enumerate() {
            let s = s as usize;
            row_axpy(
                &mut acc[s * HIDDEN..(s + 1) * HIDDEN],
                black_box(msgs.row(i)),
                0.5,
            );
        }
        black_box(&acc);
    });
    // Per call: read the accumulator row and the message row, write the
    // accumulator row.
    let axpy_bytes = 4.0 * (3 * edges * HIDDEN) as f64;

    KernelRates {
        matmul_gflops: matmul_flops / matmul_s / 1e9,
        segment_sum_gbps: segment_bytes / segment_s / 1e9,
        row_axpy_gbps: axpy_bytes / axpy_s / 1e9,
        samples: REPS,
    }
}
