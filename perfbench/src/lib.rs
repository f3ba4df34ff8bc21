//! # perfbench — the measured benchmark of InferTurbo
//!
//! One command runs a named workload, checks its outputs and prints every
//! metric by name and unit:
//!
//! ```text
//! python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `run.py` builds the release `itworker` binary (package
//! `inferturbo-cluster`) and this package into one target directory, so
//! the worker-process transport finds its children next to the bench
//! binary, then runs the bench. The last line of standard output is one
//! JSON object (`correct`, `attempted`, `failed`, `metrics`); the lines
//! before it repeat every metric with its unit and sample count, plus the
//! host facts (`nproc`, thread budget) and the output checksum.
//!
//! The benchmark drives the system only through public APIs:
//! `graph::gen::generate`, `SessionBuilder::plan`, `InferencePlan::run` /
//! `run_with_features`, `GnnServer::{submit, tick, drain_ready, stats}`
//! and the `tensor` kernels. Tracing inside the program is not used: every
//! per-layer time is taken from outside, around calls into the layer.
//!
//! # Workloads
//!
//! All use 32-d features, GraphSAGE-2 (hidden 64, 8 classes, mean pool),
//! `StrategyConfig::all()`, 16 logical workers and a thread budget of
//! `available_parallelism`. Load comes from one process.
//!
//! | workload | set-up | what it stresses |
//! |---|---|---|
//! | `pregel_inskew` | 100k nodes / 1M edges, in-degree Zipf hubs; Pregel, in-process transport | compute: kernels, apply, partial-gather. Exchange is a small share; a transport change should show nothing here |
//! | `mapreduce_outskew_xproc` | same size, out-degree hubs (shadow mirrors); MapReduce over `WorkerProcess` with `itworker` children | the shuffle: transport, frame codec, broadcast plane, reduce |
//! | `pregel_outofcore` | same out-skew graph; Pregel with a 64 KiB per-worker spill budget and `RecoveryPolicy::new(1, 3)` | spill write/read and checkpointing, which no other workload reaches |
//! | `serve_snapshots` | 10k / 100k out-skew graph; `GnnServer` (`max_batch` 8, `max_wait` 1), Pregel in-process; closed loop of 8 clients in one thread, 1–4 random targets per request, every 4th request on the next of 4 feature snapshots in turn | many small runs of one cached plan: per-run fixed costs, coalescing and the request path |
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! Untraced: bare transport, disabled trace. An *operation* is one plan
//! run (batch workloads) or one request (serve); on the batch workloads a
//! request is one full-graph run.
//!
//! - `setup_s` — median over fresh set-ups (3 batch, 9 serve) of the time
//!   to the first result. Batch: graph build, `plan()`, first cold run (which pays the
//!   lazy `itworker` spawn and the scratch-pool fill). Serve: graph build,
//!   server construction and registration, first response. The
//!   correctness reference is excluded.
//! - `run_s_p50` — median warm `InferencePlan::run` (batch); median time
//!   per batch run inside `submit`/`tick` (serve).
//! - `requests_per_s`, `latency_ms_p50`, `latency_ms_tail` — operations
//!   per second of measured time and their latency. The tail is the
//!   highest percentile, at most p99, with at least 10 samples beyond it
//!   (the median below 20 samples), taken per window of at least 100
//!   consecutive latencies (at most 10 windows) and reported as the
//!   median of the windows; a text line names it. A batch run gets a few
//!   dozen runs, so one window and a low tail (p75 of 40 runs). The serve
//!   loop gets about a thousand replies, so ten windows of p90: a single
//!   whole-run p99 there is set by the ten slowest replies, a handful of
//!   host stalls that each delay a whole batch, and spread by half its
//!   value between runs of the same code. Serve latency runs from the
//!   `submit` call to the end of the `drain_ready` that returned the
//!   reply.
//! - `peak_rss_mb` — the bench process's `VmHWM`, reset at the start of
//!   the workload. `itworker` children are not counted.
//!
//! `fail_share` (failed ÷ attempted operations) is printed as a text line
//! and carried by the JSON `attempted` and `failed` fields. An operation
//! fails on an `Err`, on a failed correctness check, or on any terminal
//! status other than `Served`.
//!
//! # Correctness gate
//!
//! - Batch: the first cold run's logits are within 1e-3 of
//!   `infer_reference`; every later run (cold or warm, traced or not) has
//!   the same bit-level checksum.
//! - Serve: every response row is bit-identical to the matching row of a
//!   direct `run_with_features` on the same snapshot.
//! - `--expect-checksum <hex>` pins the checksum instead; a wrong pin
//!   fails every operation (used by the smoke test).
//!
//! # Per-layer metrics (`--trace 1`) and what they should move
//!
//! | layer (module) | metrics | should move |
//! |---|---|---|
//! | `graph` | `graph.build_s` | `setup_s`, all workloads |
//! | `core` plan/strategy | `plan.build_s` | `setup_s`, all workloads |
//! | | `plan.records`, `plan.mirrors`, `plan.hubs` | `run_s_p50` on the out-skew workloads; mirrors and hubs are 0 on `pregel_inskew` |
//! | | `plan.est_peak_ratio` = `PlanEstimate` peak per worker of the chosen backend ÷ `RunReport::max_mem_peak` | no timing: the estimate's soundness, which should be ≥ 1 |
//! | `pregel` / `batch` engines | `engine.self_s` (run minus exchange time), `engine.step_s.<k>` (self time of superstep or round k) | `run_s_p50` on `pregel_inskew` |
//! | | `engine.flops` (from `RunReport` phases), `engine.gflops` = flops ÷ `engine.self_s` | `run_s_p50` on `pregel_inskew` |
//! | | `engine.msg_bytes.columnar`, `engine.msg_bytes.legacy` | `run_s_p50` on `mapreduce_outskew_xproc` |
//! | | `engine.worker_skew` = max ÷ mean per-worker `records_in` | `run_s_p50` on the out-skew workloads (the load-balance claim) |
//! | | `engine.modelled_s` (`RunReport::total_wall_secs`) | no timing: read beside `run_s_p50` as modelled vs measured |
//! | `cluster::transport` | `transport.calls`, `transport.exchange_s`, `transport.share` (exchange ÷ run), `transport.wire_bytes`, `transport.wire_mb_per_s` | `run_s_p50` on `mapreduce_outskew_xproc`; no change predicted on `pregel_inskew` |
//! | `common::rows` spill, `cluster::fault` recovery | `spill.bytes`, `recovery.checkpoints`, `outofcore.overhead_s` (run time minus the same plan's without spill budget or recovery) | `run_s_p50` on `pregel_outofcore` |
//! | `serve` | `serve.intake_us_p50` (`submit` calls that ran no batch), `serve.batch_ms_p50`, `serve.queue_ms_p50` (latency minus the request's own batch run: the completing call's time ÷ the batches it ran), `serve.coalescing` (served ÷ batches), `serve.batches`, `serve.plans_built` | `latency_ms_p50`, `latency_ms_tail`, `requests_per_s` on `serve_snapshots` |
//! | `tensor` kernels | `kernel.matmul_gflops`, `kernel.segment_sum_gbps`, `kernel.row_axpy_gbps` at one worker's layer shapes; bytes are computed from sizes | `engine.gflops`, and through it `run_s_p50` on `pregel_inskew` |
//! | `obs` | `obs.trace_overhead` (traced ÷ untraced run time), `obs.events` per run | none: end-to-end runs are untraced |
//!
//! A metric of a layer the workload does not exercise reads 0 and its text
//! line says so (e.g. `serve.*` on batch workloads, `outofcore.overhead_s`
//! outside `pregel_outofcore`). On `serve_snapshots` the plan, engine,
//! transport and `obs` rows come from direct runs of the plan
//! configuration the server caches.
//!
//! # Reading the traced run
//!
//! The traced run interleaves, on one graph, warm runs of the bare plan
//! and of the same plan built over [`timing::TimedTransport`] with a
//! recording `TraceHandle` (and, on `pregel_outofcore`, of the plan
//! without spill or recovery). The timing transport stamps every
//! `exchange` / `exchange_concat`; a 2-layer model makes 3 calls per run,
//! so a run splits into 4 engine self-time segments `engine.step_s.0..3`
//! and 3 exchange spans. `engine.self_s + transport.exchange_s` is the
//! traced run time; `obs.trace_overhead` compares it with the bare run.
//! Count metrics (`plan.*`, `engine.flops`, `engine.msg_bytes.*`,
//! `spill.bytes`, `recovery.checkpoints`, `obs.events`) are deterministic
//! and repeat exactly; times are medians over the runs made.
//!
//! # Older harnesses
//!
//! `parbench`, `BENCH_parallel.json` and `scripts/bench.sh` stay untouched;
//! folding them into this harness is later work.

pub mod kernels;
pub mod measure;
pub mod preflight;
pub mod report;
pub mod timing;
pub mod workloads;
