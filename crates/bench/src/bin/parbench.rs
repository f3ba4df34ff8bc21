//! Parallel-speedup benchmark: times the engine and kernel hot paths at
//! `Parallelism(1)` and `Parallelism(N)` in one process and emits
//! `BENCH_parallel.json` so successive PRs have a perf trajectory to
//! compare against.
//!
//! ```text
//! parbench [--out FILE] [--threads N] [--secs S] [--smoke] [--spill-budget B]
//! ```
//!
//! Defaults: `--out BENCH_parallel.json`, `--threads` = host parallelism
//! (or `INFERTURBO_THREADS`), `--secs 0.5` per measurement,
//! `--spill-budget 4096` (the per-worker byte budget the
//! `engine/pregel_sage2_3k_spill` entry forces the out-of-core path
//! with). Outputs are identical at both thread counts (enforced by the
//! `parallel_matches_serial` suite), so the speedups compare equal work.
//!
//! `--smoke` runs one very short measurement per bench (0.02 s) — CI uses
//! it to exercise every workload end-to-end without paying for stable
//! numbers; don't commit a smoke-mode JSON as the perf baseline.

use inferturbo_bench::scaling;
use inferturbo_cluster::{ClusterSpec, RecoveryPolicy, WorkerProcess};
use inferturbo_common::{Error, Parallelism, Result, Xoshiro256};
use inferturbo_core::infer::{infer_mapreduce, infer_pregel};
use inferturbo_core::models::{GnnModel, PoolOp};
use inferturbo_core::session::{Backend, InferenceSession};
use inferturbo_core::strategy::StrategyConfig;
use inferturbo_graph::gen::{generate, DegreeSkew, GenConfig};
use inferturbo_obs::TraceHandle;
use inferturbo_serve::{GnnServer, ScoreRequest, ServeConfig};
use std::time::Instant;

/// Ops/sec of `f`, measured over at least `secs` wall-clock (1 warmup run).
/// A workload error aborts the measurement instead of skewing the rate.
fn ops_per_sec(mut f: impl FnMut() -> Result<()>, secs: f64) -> Result<f64> {
    f()?;
    let t0 = Instant::now();
    let mut iters = 0u64;
    while t0.elapsed().as_secs_f64() < secs {
        f()?;
        iters += 1;
    }
    Ok(iters as f64 / t0.elapsed().as_secs_f64())
}

/// A workload invariant the measurement is meaningless without (e.g. "the
/// spill path engaged"): violations surface as values, never aborts.
fn ensure(cond: bool, what: &str) -> Result<()> {
    if cond {
        Ok(())
    } else {
        Err(Error::InvalidConfig(what.into()))
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("parbench: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out_path = get("--out").unwrap_or_else(|| "BENCH_parallel.json".into());
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Parallelism::get() already defaults to host parallelism and honours
    // an INFERTURBO_THREADS override.
    let threads: usize = get("--threads")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(Parallelism::get)
        .max(1); // Parallelism clamps to 1; keep the JSON honest too
    let smoke = args.iter().any(|a| a == "--smoke");
    let secs: f64 = get("--secs")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 0.02 } else { 0.5 });

    // Prerequisite of engine/pregel_sage2_3k_xproc: the process transport
    // spawns the `itworker` binary. Check it resolves before the first
    // measurement, so a missing build fails fast with the fix named.
    let xproc = WorkerProcess::new();
    if !xproc.worker_bin().is_some_and(|bin| bin.exists()) {
        return Err(Error::InvalidConfig(
            "transport worker binary `itworker` not found next to parbench; build it with \
             `cargo build --release -p inferturbo-cluster --bin itworker` \
             or set INFERTURBO_WORKER_BIN"
                .into(),
        ));
    }

    let g = generate(&GenConfig {
        n_nodes: 3_000,
        n_edges: 30_000,
        feat_dim: 16,
        classes: 4,
        skew: DegreeSkew::In,
        seed: 99,
        ..GenConfig::default()
    });
    let model = GnnModel::sage(16, 32, 2, 4, false, PoolOp::Mean, 1);
    let mut pregel_spec = ClusterSpec::pregel_cluster(16);
    pregel_spec.phase_overhead_secs = 0.0;
    let mut mr_spec = ClusterSpec::mapreduce_cluster(16);
    mr_spec.phase_overhead_secs = 0.0;
    let mut rng = Xoshiro256::seed_from_u64(5);
    let a = inferturbo_tensor::Matrix::from_fn(192, 192, |_, _| rng.next_f32() * 2.0 - 1.0);
    let b = inferturbo_tensor::Matrix::from_fn(192, 192, |_, _| rng.next_f32() * 2.0 - 1.0);
    let seg_rows = 50_000usize;
    let msgs = inferturbo_tensor::Matrix::from_fn(seg_rows, 32, |_, _| rng.next_f32());
    let seg: Vec<u32> = (0..seg_rows).map(|_| rng.below(5_000) as u32).collect();

    // row_axpy workload: accumulate 4096 rows of 64 lanes.
    let axpy_rows = inferturbo_tensor::Matrix::from_fn(4096, 64, |_, _| rng.next_f32());
    let mut axpy_acc = vec![0.0f32; 64];

    // Planned session over the same workload as engine/pregel_sage2_3k:
    // planning (records, CSRs, hub sets) is done once here, outside the
    // measured region, so the entry isolates the plan-amortization win.
    let session = InferenceSession::builder()
        .model(&model)
        .graph(&g)
        .pregel_spec(pregel_spec)
        .strategy(StrategyConfig::all())
        .backend(Backend::Pregel)
        .plan()?;

    // Out-of-core workload: the same planned session forced through the
    // disk path with a tiny per-worker budget, so the gate exercises the
    // spill write/read cycle every run and the JSON records its cost
    // relative to engine/session_reuse_3k.
    let spill_budget: u64 = get("--spill-budget")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4096);
    let spill_session = InferenceSession::builder()
        .model(&model)
        .graph(&g)
        .pregel_spec(pregel_spec)
        .strategy(StrategyConfig::all())
        .backend(Backend::Pregel)
        .spill_budget(spill_budget)
        .spill_dir(std::env::temp_dir().join("inferturbo-parbench"))
        .plan()?;

    // Cross-process workload: the same planned session exchanging every
    // sealed shard through spawned `itworker` children over pipes instead
    // of in-process moves. Logits and traces are bit-identical to
    // engine/session_reuse_3k (the transport_equivalence suite enforces
    // it); the entry measures the frame-codec + pipe cost of the process
    // transport. Requires the `itworker` binary (checked above).
    let xproc_session = InferenceSession::builder()
        .model(&model)
        .graph(&g)
        .pregel_spec(pregel_spec)
        .strategy(StrategyConfig::all())
        .backend(Backend::Pregel)
        .transport(std::sync::Arc::new(xproc))
        .plan()?;

    // Recovery workload: the same planned session with a checkpoint taken
    // at every superstep barrier (the most aggressive cadence), no faults
    // injected — the measured entry is the pure cost of cloning worker
    // state for recoverability, relative to engine/session_reuse_3k.
    let ckpt_session = InferenceSession::builder()
        .model(&model)
        .graph(&g)
        .pregel_spec(pregel_spec)
        .strategy(StrategyConfig::all())
        .backend(Backend::Pregel)
        .recovery(RecoveryPolicy::new(1, 3))
        .plan()?;

    // Traced workload: the same planned session with a recording
    // TraceHandle attached, so every superstep barrier emits its
    // WorkerPhase/Superstep events. The entry measures the flight
    // recorder's *enabled*-path cost relative to engine/session_reuse_3k;
    // every other engine entry runs with the disabled sink (a single
    // Option check per barrier), which the acceptance gate pins at ≤2%
    // of the untraced baseline.
    let trace = TraceHandle::recording();
    let traced_session = InferenceSession::builder()
        .model(&model)
        .graph(&g)
        .pregel_spec(pregel_spec)
        .strategy(StrategyConfig::all())
        .backend(Backend::Pregel)
        .trace(trace.clone())
        .plan()?;

    // Serving throughput workload: SERVE_BATCH coalescing requests per
    // iteration (graph features -> one group -> one batched run), so the
    // recorded requests/s is SERVE_BATCH x the bundle rate.
    const SERVE_BATCH: usize = 8;
    let mut server = GnnServer::new(ServeConfig {
        max_batch: SERVE_BATCH,
        max_wait: 0,
        ..ServeConfig::default()
    });
    server.register_model(1, &model)?;
    server.register_graph(1, &g)?;
    let serve_req = ScoreRequest::new(1, 1)
        .with_workers(16)
        .with_backend(Backend::Pregel)
        .with_targets(vec![0, 1, 2]);

    // Overload spike workload: a tenant fires SPIKE requests per tick
    // against a 4-token bucket (refill 1/tick), plus one 0-tick-deadline
    // request that always expires — steady state serves ~1 fresh batch
    // and degrades the rest to bit-identical cached rows, so the entry
    // measures the request rate the resilience pipeline sustains when
    // most answers never reach the engine.
    const SPIKE: usize = 8;
    let mut overload_server = GnnServer::new(ServeConfig {
        max_batch: SPIKE,
        max_wait: 0,
        rate_limit: Some(inferturbo_serve::RateLimitConfig::degrade(4, 1)),
        deadline_clamp: None,
        ..ServeConfig::default()
    });
    overload_server.register_model(1, &model)?;
    overload_server.register_graph(1, &g)?;
    // Prime the response cache with one fresh full-logits run so the
    // degraded path has rows to serve (outside the measured region).
    overload_server.submit(
        ScoreRequest::new(1, 1)
            .with_workers(16)
            .with_backend(Backend::Pregel),
    )?;
    overload_server.tick();
    ensure(
        overload_server.drain_ready().len() == 1,
        "cache priming run",
    )?;
    let spike_req = ScoreRequest::new(1, 1)
        .with_workers(16)
        .with_backend(Backend::Pregel)
        .with_tenant(7)
        .with_targets(vec![0, 1, 2]);

    // (name, is_engine, ops multiplier, workload)
    type Bench<'a> = (&'a str, bool, f64, Box<dyn FnMut() -> Result<()> + 'a>);
    let mut benches: Vec<Bench<'_>> = vec![
        (
            // Default configuration = columnar plane + fused
            // scatter-aggregation (partial-gather annotated).
            "engine/pregel_sage2_3k",
            true,
            1.0,
            Box::new(|| {
                infer_pregel(&model, &g, pregel_spec, StrategyConfig::all())?;
                Ok(())
            }),
        ),
        (
            // Columnar plane without fusion: rows materialize in the
            // arena — isolates the allocation win from the O(E·d)→O(V·d)
            // aggregation win above.
            "engine/pregel_sage2_3k_columnar",
            true,
            1.0,
            Box::new(|| {
                infer_pregel(
                    &model,
                    &g,
                    pregel_spec,
                    StrategyConfig::all().with_partial_gather(false),
                )?;
                Ok(())
            }),
        ),
        (
            // Re-running an InferencePlan: same work as
            // engine/pregel_sage2_3k minus planning (records, CSRs, hub
            // sets) and minus the per-superstep scratch allocations
            // (pooled across runs). Its ops/s should sit strictly above
            // the one-shot entry.
            "engine/session_reuse_3k",
            true,
            1.0,
            Box::new(|| {
                session.run()?;
                Ok(())
            }),
        ),
        (
            // The cross-process session above: identical work to
            // engine/session_reuse_3k, but every sealed shard round-trips
            // through an `itworker` child over pipes. The gap between the
            // two entries is the end-to-end cost of the frame codec plus
            // the pipe writes/reads. The check pins that bytes really
            // crossed the process boundary.
            "engine/pregel_sage2_3k_xproc",
            true,
            1.0,
            Box::new(|| {
                let out = xproc_session.run()?;
                ensure(out.report.wire_bytes > 0, "process transport must engage")
            }),
        ),
        (
            // The spill session above: identical work to
            // engine/session_reuse_3k plus the out-of-core write/read of
            // every columnar inbox — the measured cost of trading memory
            // for disk. The check pins that the disk path really ran.
            "engine/pregel_sage2_3k_spill",
            true,
            1.0,
            Box::new(|| {
                let out = spill_session.run()?;
                ensure(out.report.spilled_bytes > 0, "spill path must engage")
            }),
        ),
        (
            // The checkpoint session above: identical work to
            // engine/session_reuse_3k plus a full worker-state snapshot at
            // every superstep barrier — the measured overhead of the
            // checkpoint/recovery contract at its most aggressive cadence.
            // The check pins that checkpoints were really taken.
            "engine/pregel_sage2_3k_ckpt",
            true,
            1.0,
            Box::new(|| {
                let out = ckpt_session.run()?;
                ensure(out.report.checkpoints > 0, "checkpoint path must engage")
            }),
        ),
        (
            // The traced session above: identical work to
            // engine/session_reuse_3k plus barrier-time event recording
            // (each run lands in its own epoch; the drain bounds sink
            // memory across iterations). The check pins that the flight
            // recorder actually captured the run.
            "engine/pregel_sage2_3k_traced",
            true,
            1.0,
            Box::new(|| {
                traced_session.run()?;
                let events = trace.take_events();
                ensure(!events.is_empty(), "recording sink must capture events")
            }),
        ),
        (
            // Requests/s through the serving micro-batcher: SERVE_BATCH
            // coalescing requests per iteration are served by one batched
            // run (the ops multiplier converts bundle rate to request
            // rate). Must sit at or above engine/session_reuse_3k —
            // batching amortises one run across the whole group, so it
            // must never cost throughput.
            "serve/throughput_3k",
            true,
            SERVE_BATCH as f64,
            Box::new(|| {
                for _ in 0..SERVE_BATCH {
                    server.submit(serve_req.clone())?;
                }
                let done = server.drain_ready();
                ensure(done.len() == SERVE_BATCH, "batch must flush at max_batch")
            }),
        ),
        (
            // Requests/s through the overload-resilience pipeline: each
            // iteration is one spike tick — SPIKE rate-limited tenant
            // requests (mostly degraded to cached rows) plus one request
            // whose deadline always expires. Every request still reaches a
            // terminal status; the checks pin that the degraded path
            // actually engages (CI's `--smoke` run relies on them).
            "serve/overload_3k",
            true,
            (SPIKE + 1) as f64,
            Box::new(|| {
                for _ in 0..SPIKE {
                    overload_server.submit(spike_req.clone())?;
                }
                overload_server.submit(
                    ScoreRequest::new(1, 1)
                        .with_workers(16)
                        .with_backend(Backend::Pregel)
                        .with_deadline(0)
                        .with_targets(vec![9]),
                )?;
                overload_server.tick();
                let done = overload_server.drain_ready();
                ensure(done.len() == SPIKE + 1, "overload resolves, it never drops")?;
                let o = &overload_server.stats().overload;
                ensure(o.served_stale > 0, "degraded path must serve stale rows")?;
                ensure(o.deadline_exceeded > 0, "deadline expiry must engage")
            }),
        ),
        (
            "engine/mapreduce_sage2_3k",
            true,
            1.0,
            Box::new(|| {
                infer_mapreduce(&model, &g, mr_spec, StrategyConfig::all())?;
                Ok(())
            }),
        ),
        (
            "kernel/matmul_192",
            false,
            1.0,
            Box::new(|| {
                std::hint::black_box(a.matmul(&b));
                Ok(())
            }),
        ),
        (
            "kernel/segment_sum_50k",
            false,
            1.0,
            Box::new(|| {
                std::hint::black_box(msgs.segment_sum(&seg, 5_000));
                Ok(())
            }),
        ),
        (
            "kernel/row_axpy",
            false,
            1.0,
            Box::new(|| {
                for r in 0..axpy_rows.rows() {
                    inferturbo_tensor::row_axpy(&mut axpy_acc, axpy_rows.row(r), 0.5);
                }
                std::hint::black_box(&mut axpy_acc);
                Ok(())
            }),
        ),
    ];

    eprintln!(
        "parbench: host_cpus={host} threads={threads} secs/measurement={secs} \
         sweep={:?}",
        scaling::thread_sweep()
    );
    let mut rows = Vec::new();
    let mut engine_speedups = Vec::new();
    for (name, is_engine, mult, f) in benches.iter_mut() {
        let serial = Parallelism::with(1, || ops_per_sec(&mut *f, secs))? * *mult;
        let parallel = Parallelism::with(threads, || ops_per_sec(&mut *f, secs))? * *mult;
        let speedup = parallel / serial;
        if *is_engine {
            engine_speedups.push(speedup);
        }
        eprintln!("  {name:<28} {serial:>10.3} -> {parallel:>10.3} ops/s  ({speedup:.2}x)");
        rows.push((name.to_string(), serial, parallel, speedup));
    }
    let geomean =
        (engine_speedups.iter().map(|s| s.ln()).sum::<f64>() / engine_speedups.len() as f64).exp();

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"host_cpus\": {host},\n"));
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!("  \"secs_per_measurement\": {secs},\n"));
    json.push_str(&format!("  \"engine_speedup_geomean\": {geomean:.4},\n"));
    json.push_str("  \"benches\": [\n");
    for (i, (name, serial, parallel, speedup)) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"name\": \"{name}\", \"ops_per_sec_serial\": {serial:.4}, \
             \"ops_per_sec_parallel\": {parallel:.4}, \"speedup\": {speedup:.4}}}{comma}\n"
        ));
    }
    json.push_str("  ]\n");
    json.push_str("}\n");
    std::fs::write(&out_path, &json)
        .map_err(|e| Error::Io(format!("cannot write {out_path}: {e}")))?;
    println!("{json}");
    eprintln!("wrote {out_path}");
    Ok(())
}
