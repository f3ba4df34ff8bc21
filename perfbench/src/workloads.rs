//! The four workloads, their correctness gates, and the untraced and
//! traced measurement phases.
//!
//! Every workload runs GraphSAGE-2 (32 → 64 → 64, 8 classes, mean pool)
//! with `StrategyConfig::all()` on 16 logical workers. All inputs —
//! graph, model weights, feature snapshots, serve targets — come from the
//! `--seed` argument.

use crate::kernels;
use crate::measure::{checksum, max_abs_diff, median, peak_rss_mb, reset_peak_rss, windowed_tail};
use crate::preflight::Host;
use crate::report::Report;
use crate::timing::{split_run, RunSplit, TimedTransport};
use inferturbo::cluster::{InProcess, RecoveryPolicy, RunReport, Transport, WorkerProcess};
use inferturbo::common::{Result as RunResult, Xoshiro256};
use inferturbo::core::{
    infer_reference, Backend, GnnModel, InferenceOutput, InferencePlan, InferenceSession, PoolOp,
    SessionBuilder, StrategyConfig,
};
use inferturbo::graph::gen::{generate, DegreeSkew, GenConfig};
use inferturbo::graph::Graph;
use inferturbo::obs::TraceHandle;
use inferturbo::serve::{
    FeatureSnapshot, GnnServer, ScoreRequest, ScoreResponse, ScoreStatus, ServeConfig,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const FEAT_DIM: usize = 32;
const HIDDEN: usize = 64;
const CLASSES: usize = 8;
const WORKERS: usize = 16;
/// Fresh set-ups per run; `setup_s` is their median. Serve set-up is
/// cheap, so it takes more samples.
const SETUP_REPS: usize = 3;
const SERVE_SETUP_REPS: usize = 9;
/// Logit tolerance against `infer_reference` (the end-to-end suite's).
const TOLERANCE: f32 = 1e-3;
/// Serve: closed-loop clients, feature snapshots, and the share of
/// requests carrying a snapshot (every 4th).
const CLIENTS: usize = 8;
const SNAPSHOTS: usize = 4;
const SNAPSHOT_EVERY: u64 = 4;
/// Hard stop for the serve loop, well inside the 180 s run limit.
const MAX_LOOP_S: f64 = 120.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PregelInskew,
    MapreduceOutskewXproc,
    PregelOutofcore,
    ServeSnapshots,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PregelInskew,
        Workload::MapreduceOutskewXproc,
        Workload::PregelOutofcore,
        Workload::ServeSnapshots,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PregelInskew => "pregel_inskew",
            Workload::MapreduceOutskewXproc => "mapreduce_outskew_xproc",
            Workload::PregelOutofcore => "pregel_outofcore",
            Workload::ServeSnapshots => "serve_snapshots",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input scale: `Full` is what the benchmark measures; `Tiny` runs every
/// code path in well under a second, for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    fn batch_graph(self) -> (usize, usize) {
        match self {
            Size::Full => (100_000, 1_000_000),
            Size::Tiny => (2_000, 20_000),
        }
    }

    fn serve_graph(self) -> (usize, usize) {
        match self {
            Size::Full => (10_000, 100_000),
            Size::Tiny => (500, 5_000),
        }
    }

    /// Per-worker resident inbox budget of `pregel_outofcore`.
    fn spill_budget(self) -> u64 {
        match self {
            Size::Full => 64 << 10,
            Size::Tiny => 1 << 10,
        }
    }

    /// Fewest timed plan runs (per arm in the traced run).
    fn min_runs(self) -> usize {
        match self {
            Size::Full => 5,
            Size::Tiny => 1,
        }
    }

    /// Fewest serve latencies: 1000 leaves at least 10 beyond p99.
    fn min_requests(self) -> usize {
        match self {
            Size::Full => 1000,
            Size::Tiny => 1,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Pin the expected output checksum instead of taking the validated
    /// first result's (a wrong pin makes every operation fail).
    pub expect_checksum: Option<u64>,
    /// Where `pregel_outofcore` pages inbox rows.
    pub spill_dir: PathBuf,
}

/// Run one workload and collect its metrics.
pub fn run(opts: &Options, host: &Host) -> Result<Report, String> {
    let mut r = Report::default();
    if !reset_peak_rss() {
        r.notes
            .push("peak RSS could not be reset; it covers the whole process".into());
    }
    let (nodes, edges) = match opts.workload {
        Workload::ServeSnapshots => {
            run_serve(opts, &mut r)?;
            opts.size.serve_graph()
        }
        w => {
            run_batch(BatchSpec::of(w), opts, host, &mut r)?;
            opts.size.batch_graph()
        }
    };
    if opts.trace {
        let k = kernels::measure(nodes / WORKERS, edges / WORKERS, opts.seed);
        r.set("kernel.matmul_gflops", k.matmul_gflops, k.samples);
        r.set("kernel.segment_sum_gbps", k.segment_sum_gbps, k.samples);
        r.set("kernel.row_axpy_gbps", k.row_axpy_gbps, k.samples);
        r.notes
            .push("kernel GB/s are computed from operand sizes, not measured traffic".into());
    }
    let rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    r.set("peak_rss_mb", rss, 1);
    r.notes
        .push("peak_rss_mb is the bench process alone; itworker children are not counted".into());
    Ok(r)
}

fn model(seed: u64) -> GnnModel {
    GnnModel::sage(FEAT_DIM, HIDDEN, 2, CLASSES, false, PoolOp::Mean, seed)
}

fn gen_config((n_nodes, n_edges): (usize, usize), skew: DegreeSkew, seed: u64) -> GenConfig {
    GenConfig {
        n_nodes,
        n_edges,
        feat_dim: FEAT_DIM,
        classes: CLASSES as u32,
        skew,
        seed,
        ..GenConfig::default()
    }
}

fn session<'a>(
    model: &'a GnnModel,
    graph: &'a Graph,
    backend: Backend,
    transport: Arc<dyn Transport>,
    trace: TraceHandle,
) -> SessionBuilder<'a> {
    InferenceSession::builder()
        .model(model)
        .graph(graph)
        .workers(WORKERS)
        .strategy(StrategyConfig::all())
        .backend(backend)
        .transport(transport)
        .trace(trace)
}

fn secs(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64()
}

fn ctx<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

fn logits_match(out: &RunResult<InferenceOutput>, want: u64) -> bool {
    matches!(out, Ok(o) if checksum(&o.logits) == want)
}

// ---- batch workloads -------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct BatchSpec {
    skew: DegreeSkew,
    backend: Backend,
    /// Shuffle through `itworker` children instead of in-process.
    xproc: bool,
    /// Spill budget plus checkpoint/recovery.
    out_of_core: bool,
}

impl BatchSpec {
    fn of(w: Workload) -> BatchSpec {
        let (skew, backend, xproc, out_of_core) = match w {
            Workload::PregelInskew => (DegreeSkew::In, Backend::Pregel, false, false),
            Workload::MapreduceOutskewXproc => (DegreeSkew::Out, Backend::MapReduce, true, false),
            Workload::PregelOutofcore => (DegreeSkew::Out, Backend::Pregel, false, true),
            Workload::ServeSnapshots => unreachable!("serve is not a batch workload"),
        };
        BatchSpec {
            skew,
            backend,
            xproc,
            out_of_core,
        }
    }

    /// A fresh bare inner transport (a new `WorkerProcess` spawns its
    /// children lazily, on its first exchange).
    fn transport(&self, host: &Host) -> Arc<dyn Transport> {
        if self.xproc {
            Arc::new(WorkerProcess::with_bin(host.worker_bin.clone()))
        } else {
            Arc::new(InProcess)
        }
    }

    fn plan<'a>(
        &self,
        model: &'a GnnModel,
        graph: &'a Graph,
        out_of_core: bool,
        transport: Arc<dyn Transport>,
        trace: TraceHandle,
        opts: &Options,
    ) -> Result<InferencePlan<'a>, String> {
        let mut b = session(model, graph, self.backend, transport, trace);
        if out_of_core {
            b = b
                .spill_budget(opts.size.spill_budget())
                .spill_dir(&opts.spill_dir)
                .recovery(RecoveryPolicy::new(1, 3));
        }
        b.plan().map_err(ctx("plan"))
    }
}

fn run_batch(spec: BatchSpec, opts: &Options, host: &Host, r: &mut Report) -> Result<(), String> {
    let model = model(opts.seed);
    let gcfg = gen_config(opts.size.batch_graph(), spec.skew, opts.seed);
    let mut want = opts.expect_checksum;
    let (mut setup_s, mut graph_s, mut plan_s) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..SETUP_REPS {
        // Set-up: graph build, plan, first (cold) run on a fresh transport.
        let t0 = Instant::now();
        let graph = generate(&gcfg);
        let t1 = Instant::now();
        let plan = spec.plan(
            &model,
            &graph,
            spec.out_of_core,
            spec.transport(host),
            TraceHandle::disabled(),
            opts,
        )?;
        let t2 = Instant::now();
        let cold = plan.run().map_err(ctx("cold run"))?;
        let t3 = Instant::now();
        setup_s.push(secs(t0, t3));
        graph_s.push(secs(t0, t1));
        plan_s.push(secs(t1, t2));

        let mut ok = true;
        let got = checksum(&cold.logits);
        if rep == 0 {
            let reference = infer_reference(&model, &graph).map_err(ctx("reference"))?;
            let diff = max_abs_diff(&cold.logits, &reference);
            ok = diff <= TOLERANCE;
            r.notes.push(format!(
                "reference max |diff| = {diff:e} (tolerance {TOLERANCE:e}); checksum = {got:#018x}"
            ));
        }
        let want = *want.get_or_insert(got);
        r.op(ok && got == want);
        if rep + 1 == SETUP_REPS {
            let check = |out: &RunResult<InferenceOutput>| logits_match(out, want);
            if opts.trace {
                let timed = TimedTransport::wrap(spec.transport(host));
                let trace = TraceHandle::recording();
                let traced = spec.plan(
                    &model,
                    &graph,
                    spec.out_of_core,
                    timed.clone(),
                    trace.clone(),
                    opts,
                )?;
                let plain = spec
                    .out_of_core
                    .then(|| {
                        let bare = spec.transport(host);
                        spec.plan(&model, &graph, false, bare, TraceHandle::disabled(), opts)
                    })
                    .transpose()?;
                let arms = Arms {
                    bare: &plan,
                    traced: &traced,
                    timed: &timed,
                    trace: &trace,
                    plain: plain.as_ref(),
                };
                profile(&arms, &check, opts.seconds, opts.size.min_runs(), r)?;
            } else {
                time_runs(&plan, &check, opts, r);
            }
        }
    }
    r.set("setup_s", median(&setup_s), setup_s.len());
    r.set("graph.build_s", median(&graph_s), graph_s.len());
    r.set("plan.build_s", median(&plan_s), plan_s.len());
    Ok(())
}

/// The untraced measurement: warm runs of the set-up plan for the run's
/// duration.
fn time_runs(
    plan: &InferencePlan<'_>,
    check: &dyn Fn(&RunResult<InferenceOutput>) -> bool,
    opts: &Options,
    r: &mut Report,
) {
    let mut lat = Vec::new();
    let start = Instant::now();
    while lat.len() < opts.size.min_runs() || start.elapsed().as_secs_f64() < opts.seconds {
        let t = Instant::now();
        let out = plan.run();
        lat.push(t.elapsed().as_secs_f64());
        r.op(check(&out));
    }
    r.set("run_s_p50", median(&lat), lat.len());
    set_latency(r, &lat, start.elapsed().as_secs_f64());
}

/// `requests_per_s` and request latency percentiles from per-operation
/// wall times (a batch workload's request is one full-graph run).
fn set_latency(r: &mut Report, lat_s: &[f64], wall_s: f64) {
    let n = lat_s.len();
    let (tail_s, p, windows) = windowed_tail(lat_s);
    r.set("requests_per_s", n as f64 / wall_s, n);
    r.set("latency_ms_p50", median(lat_s) * 1e3, n);
    r.set("latency_ms_tail", tail_s * 1e3, n);
    r.notes.push(if windows == 1 {
        format!("latency_ms_tail is p{p} of {n} latencies")
    } else {
        format!("latency_ms_tail is the median of p{p} over {windows} windows of {n} latencies")
    });
}

// ---- traced run -------------------------------------------------------------

/// The plans a traced run interleaves, all over one graph.
struct Arms<'p, 'a> {
    /// Bare transport, disabled trace: the end-to-end configuration.
    bare: &'p InferencePlan<'a>,
    /// The same configuration over the timing transport and a recording
    /// trace.
    traced: &'p InferencePlan<'a>,
    timed: &'p TimedTransport,
    trace: &'p TraceHandle,
    /// `pregel_outofcore` only: the same plan without spill budget or
    /// recovery policy.
    plain: Option<&'p InferencePlan<'a>>,
}

/// The traced measurement: interleave the arms for `seconds`, then derive
/// every per-layer metric of the plan, engine, transport, spill, recovery
/// and trace layers.
fn profile(
    arms: &Arms<'_, '_>,
    check: &dyn Fn(&RunResult<InferenceOutput>) -> bool,
    seconds: f64,
    min_runs: usize,
    r: &mut Report,
) -> Result<(), String> {
    // Warm-up: the traced plans' first runs pay spawn and scratch fill.
    r.op(check(&arms.traced.run()));
    arms.timed.take_spans();
    arms.trace.take_events();
    if let Some(p) = arms.plain {
        r.op(check(&p.run()));
    }

    let (mut bare_s, mut plain_s, mut splits, mut events) =
        (Vec::new(), Vec::new(), Vec::<RunSplit>::new(), Vec::new());
    let mut last: Option<RunReport> = None;
    let start = Instant::now();
    while splits.len() < min_runs || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let out = arms.bare.run();
        bare_s.push(t.elapsed().as_secs_f64());
        r.op(check(&out));

        let t0 = Instant::now();
        let out = arms.traced.run();
        let t1 = Instant::now();
        splits.push(split_run(t0, t1, &arms.timed.take_spans()));
        events.push(arms.trace.take_events().len() as f64);
        r.op(check(&out));
        if let Ok(o) = out {
            last = Some(o.report);
        }

        if let Some(p) = arms.plain {
            let t = Instant::now();
            let out = p.run();
            plain_s.push(t.elapsed().as_secs_f64());
            r.op(check(&out));
        }
    }
    let report = last.ok_or("no traced run succeeded")?;
    let n = splits.len();

    let summary = arms.bare.summary();
    r.set("plan.records", summary.records as f64, 1);
    r.set("plan.mirrors", summary.mirrors as f64, 1);
    r.set("plan.hubs", summary.hubs as f64, 1);
    let est = match summary.backend {
        Backend::MapReduce => summary.estimate.mapreduce_peak_worker_bytes,
        _ => summary.estimate.pregel_peak_worker_bytes,
    };
    r.set(
        "plan.est_peak_ratio",
        est as f64 / report.max_mem_peak().max(1) as f64,
        1,
    );

    let run_s: Vec<f64> = splits.iter().map(|s| s.run_s).collect();
    let self_s: Vec<f64> = splits.iter().map(RunSplit::self_s).collect();
    let exchange_s: Vec<f64> = splits.iter().map(|s| s.exchange_s).collect();
    let share: Vec<f64> = splits.iter().map(|s| s.exchange_s / s.run_s).collect();
    let self_p50 = median(&self_s);
    r.set("engine.self_s", self_p50, n);
    let steps = splits.iter().map(|s| s.steps_s.len()).max().unwrap_or(0);
    if steps > 4 {
        r.notes.push(format!(
            "{steps} engine steps per run; engine.step_s lists the first 4"
        ));
    }
    for (k, name) in [
        "engine.step_s.0",
        "engine.step_s.1",
        "engine.step_s.2",
        "engine.step_s.3",
    ]
    .into_iter()
    .enumerate()
    .take(steps)
    {
        let xs: Vec<f64> = splits
            .iter()
            .filter_map(|s| s.steps_s.get(k).copied())
            .collect();
        r.set(name, median(&xs), xs.len());
    }
    let flops: f64 = report
        .phases
        .iter()
        .flat_map(|p| &p.per_worker)
        .map(|w| w.flops)
        .sum();
    r.set("engine.flops", flops, 1);
    r.set("engine.gflops", flops / self_p50 / 1e9, n);
    r.set(
        "engine.msg_bytes.columnar",
        report.message_bytes.columnar as f64,
        1,
    );
    r.set(
        "engine.msg_bytes.legacy",
        report.message_bytes.legacy as f64,
        1,
    );
    let records_in: Vec<f64> = report
        .worker_totals()
        .iter()
        .map(|w| w.records_in as f64)
        .collect();
    let mean = records_in.iter().sum::<f64>() / records_in.len().max(1) as f64;
    let max = records_in.iter().copied().fold(0.0, f64::max);
    r.set("engine.worker_skew", max / mean, 1);
    r.set("engine.modelled_s", report.total_wall_secs(), 1);

    let exchange_p50 = median(&exchange_s);
    r.set("transport.calls", (steps.max(1) - 1) as f64, n);
    r.set("transport.exchange_s", exchange_p50, n);
    r.set("transport.share", median(&share), n);
    r.set("transport.wire_bytes", report.wire_bytes as f64, 1);
    r.set(
        "transport.wire_mb_per_s",
        report.wire_bytes as f64 / exchange_p50 / 1e6,
        n,
    );
    r.set("spill.bytes", report.spilled_bytes as f64, 1);
    r.set("recovery.checkpoints", report.checkpoints as f64, 1);
    if !plain_s.is_empty() {
        r.set(
            "outofcore.overhead_s",
            median(&bare_s) - median(&plain_s),
            plain_s.len(),
        );
    }
    r.set(
        "obs.trace_overhead",
        median(&run_s) / median(&bare_s),
        n.min(bare_s.len()),
    );
    r.set("obs.events", median(&events), n);
    Ok(())
}

// ---- serve workload ---------------------------------------------------------

/// Reference logits per feature source (0 = the graph's own features,
/// 1..=SNAPSHOTS = the snapshots), from direct `run_with_features` calls.
struct ServeRefs {
    rows: Vec<Vec<Vec<f32>>>,
    /// The references' checksum matches the expected one.
    trusted: bool,
    /// Checksum of the graph-features reference alone.
    own: u64,
}

/// One request in flight from a closed-loop client.
struct Pending {
    ticket: u64,
    submitted: Instant,
    /// Feature source (see [`ServeRefs::rows`]).
    source: usize,
    targets: Vec<u32>,
}

/// Deterministic request stream: 1–4 random targets per request, and every
/// 4th request carries the next snapshot in turn.
struct Traffic {
    rng: Xoshiro256,
    nodes: u64,
    issued: u64,
}

impl Traffic {
    fn new(seed: u64, nodes: usize) -> Traffic {
        Traffic {
            rng: Xoshiro256::seed_from_u64(seed).fork(21),
            nodes: nodes as u64,
            issued: 0,
        }
    }

    fn next(&mut self, snapshots: &[FeatureSnapshot]) -> (ScoreRequest, Pending) {
        let n = 1 + self.rng.below(4);
        let targets: Vec<u32> = (0..n).map(|_| self.rng.below(self.nodes) as u32).collect();
        let mut req = ScoreRequest::new(1, 1)
            .with_workers(WORKERS)
            .with_backend(Backend::Pregel)
            .with_strategy(StrategyConfig::all())
            .with_targets(targets.clone());
        let mut source = 0;
        if self.issued % SNAPSHOT_EVERY == SNAPSHOT_EVERY - 1 {
            let i = (self.issued / SNAPSHOT_EVERY) as usize % snapshots.len();
            req = req.with_snapshot(Arc::clone(&snapshots[i]));
            source = i + 1;
        }
        self.issued += 1;
        let pending = Pending {
            ticket: 0,
            submitted: Instant::now(),
            source,
            targets,
        };
        (req, pending)
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        max_batch: 8,
        max_wait: 1,
        trace: TraceHandle::disabled(),
        transport: Some(Arc::new(InProcess)),
        ..ServeConfig::default()
    }
}

/// Fresh and bit-identical to the direct run on the same features.
fn served_ok(resp: &ScoreResponse, p: &Pending, refs: &ServeRefs) -> bool {
    let ScoreStatus::Served(rows) = &resp.status else {
        return false;
    };
    refs.trusted
        && rows.len() == p.targets.len()
        && rows.iter().zip(&p.targets).all(|(row, &t)| {
            let want = &refs.rows[p.source][t as usize];
            row.len() == want.len()
                && row
                    .iter()
                    .zip(want)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        })
}

fn run_serve(opts: &Options, r: &mut Report) -> Result<(), String> {
    let shape = opts.size.serve_graph();
    let model = model(opts.seed);
    let gcfg = gen_config(shape, DegreeSkew::Out, opts.seed);
    let mut rng = Xoshiro256::seed_from_u64(opts.seed).fork(23);
    let snapshots: Vec<FeatureSnapshot> = (0..SNAPSHOTS)
        .map(|_| {
            let rows: Vec<Vec<f32>> = (0..shape.0)
                .map(|_| (0..FEAT_DIM).map(|_| rng.gaussian_f32(0.0, 1.0)).collect())
                .collect();
            Arc::new(rows)
        })
        .collect();

    let mut refs: Option<ServeRefs> = None;
    let (mut setup_s, mut graph_s) = (Vec::new(), Vec::new());
    for rep in 0..SERVE_SETUP_REPS {
        let mut traffic = Traffic::new(opts.seed, shape.0);
        // Set-up: graph build, server construction and registration, then
        // the first response.
        let t0 = Instant::now();
        let graph = generate(&gcfg);
        let t1 = Instant::now();
        let mut server = GnnServer::new(serve_config());
        server.register_model(1, &model).map_err(ctx("register"))?;
        server.register_graph(1, &graph).map_err(ctx("register"))?;
        let (req, first) = traffic.next(&snapshots);
        let ticket = server.submit(req).map_err(ctx("first submit"))?;
        let resp = loop {
            server.tick();
            if let Some(resp) = server.take(ticket) {
                break resp;
            }
            if server.clock() > 16 {
                return Err("first request never completed".into());
            }
        };
        setup_s.push(secs(t0, Instant::now()));
        graph_s.push(secs(t0, t1));

        // Correctness reference (outside the set-up time): direct runs of
        // the same plan configuration, once per feature source.
        if refs.is_none() {
            let t = Instant::now();
            let plan = session(
                &model,
                &graph,
                Backend::Pregel,
                Arc::new(InProcess),
                TraceHandle::disabled(),
            )
            .plan()
            .map_err(ctx("reference plan"))?;
            r.set("plan.build_s", t.elapsed().as_secs_f64(), 1);
            let mut rows = vec![plan.run().map_err(ctx("reference run"))?.logits];
            for s in &snapshots {
                rows.push(
                    plan.run_with_features(s)
                        .map_err(ctx("reference run"))?
                        .logits,
                );
            }
            let all = checksum(&rows.concat());
            r.notes.push(format!("checksum = {all:#018x}"));
            refs = Some(ServeRefs {
                trusted: opts.expect_checksum.is_none_or(|c| c == all),
                own: checksum(&rows[0]),
                rows,
            });
        }
        let refs = refs.as_ref().expect("built above");
        r.op(served_ok(&resp, &first, refs));

        if rep + 1 == SERVE_SETUP_REPS {
            // The traced run splits its time between the loop and the
            // layer profile of the cached plan configuration.
            let (loop_s, min) = if opts.trace {
                (opts.seconds / 2.0, 1)
            } else {
                (opts.seconds, opts.size.min_requests())
            };
            closed_loop(&mut server, &mut traffic, &snapshots, refs, loop_s, min, r);
            if opts.trace {
                let build = |transport, trace| {
                    session(&model, &graph, Backend::Pregel, transport, trace)
                        .plan()
                        .map_err(ctx("plan"))
                };
                let bare = build(Arc::new(InProcess), TraceHandle::disabled())?;
                let timed = TimedTransport::wrap(Arc::new(InProcess));
                let trace = TraceHandle::recording();
                let traced = build(timed.clone(), trace.clone())?;
                let arms = Arms {
                    bare: &bare,
                    traced: &traced,
                    timed: &timed,
                    trace: &trace,
                    plain: None,
                };
                let own = refs.own;
                let trusted = refs.trusted;
                let check = |out: &RunResult<InferenceOutput>| trusted && logits_match(out, own);
                r.op(check(&bare.run()));
                profile(&arms, &check, opts.seconds / 2.0, 1, r)?;
            }
        }
    }
    r.set("setup_s", median(&setup_s), setup_s.len());
    r.set("graph.build_s", median(&graph_s), graph_s.len());
    Ok(())
}

/// Wall times of the server calls in the closed loop.
#[derive(Default)]
struct CallTimes {
    latency: Vec<f64>,
    queue: Vec<f64>,
    /// `submit` calls that ran no batch.
    intake: Vec<f64>,
    /// Per batch run inside a `submit` or `tick`.
    batch: Vec<f64>,
}

/// Closed loop: `CLIENTS` clients in this thread, each submitting its next
/// request only after its previous reply was drained.
fn closed_loop(
    server: &mut GnnServer<'_>,
    traffic: &mut Traffic,
    snapshots: &[FeatureSnapshot],
    refs: &ServeRefs,
    seconds: f64,
    min_requests: usize,
    r: &mut Report,
) {
    let before = server.stats().clone();
    let mut clients: Vec<Option<Pending>> = (0..CLIENTS).map(|_| None).collect();
    let mut times = CallTimes::default();
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if (elapsed >= seconds && times.latency.len() >= min_requests) || elapsed >= MAX_LOOP_S {
            break;
        }
        for c in 0..CLIENTS {
            if clients[c].is_some() {
                continue;
            }
            let (req, mut pending) = traffic.next(snapshots);
            let batches = server.stats().batches;
            let t = Instant::now();
            let submitted = server.submit(req);
            let call_s = t.elapsed().as_secs_f64();
            match submitted {
                Ok(ticket) => {
                    pending.ticket = ticket.0;
                    pending.submitted = t;
                    clients[c] = Some(pending);
                }
                Err(_) => r.op(false),
            }
            let ran = server.stats().batches - batches;
            if ran == 0 {
                times.intake.push(call_s);
            }
            collect(server, &mut clients, call_s, ran, refs, &mut times, r);
        }
        let batches = server.stats().batches;
        let t = Instant::now();
        server.tick();
        let call_s = t.elapsed().as_secs_f64();
        let ran = server.stats().batches - batches;
        collect(server, &mut clients, call_s, ran, refs, &mut times, r);
    }
    let wall = start.elapsed().as_secs_f64();
    // Requests still in flight are checked but not timed.
    server.drain();
    for resp in server.drain_ready() {
        if let Some(p) = clients
            .iter_mut()
            .find(|c| c.as_ref().is_some_and(|p| p.ticket == resp.ticket.0))
            .and_then(Option::take)
        {
            r.op(served_ok(&resp, &p, refs));
        }
    }

    let after = server.stats();
    let batches = after.batches - before.batches;
    r.set("run_s_p50", median(&times.batch), times.batch.len());
    set_latency(r, &times.latency, wall);
    r.set(
        "serve.intake_us_p50",
        median(&times.intake) * 1e6,
        times.intake.len(),
    );
    r.set(
        "serve.batch_ms_p50",
        median(&times.batch) * 1e3,
        times.batch.len(),
    );
    r.set(
        "serve.queue_ms_p50",
        median(&times.queue) * 1e3,
        times.queue.len(),
    );
    r.set(
        "serve.coalescing",
        (after.served - before.served) as f64 / batches.max(1) as f64,
        batches as usize,
    );
    r.set("serve.batches", batches as f64, 1);
    r.set("serve.plans_built", after.plans_built as f64, 1);
}

/// After a server call that ran `ran` batches in `call_s`: drain the ready
/// responses, time and check them, and free their clients. Queue time is
/// a reply's latency minus one batch run of the completing call.
fn collect(
    server: &mut GnnServer<'_>,
    clients: &mut [Option<Pending>],
    call_s: f64,
    ran: u64,
    refs: &ServeRefs,
    times: &mut CallTimes,
    r: &mut Report,
) {
    // A call that ran several batches completed each request with one of
    // them; the rest of the call is time the request waited.
    let batch_s = call_s / ran.max(1) as f64;
    for _ in 0..ran {
        times.batch.push(batch_s);
    }
    let ready = server.drain_ready();
    let end = Instant::now();
    for resp in ready {
        let Some(p) = clients
            .iter_mut()
            .find(|c| c.as_ref().is_some_and(|p| p.ticket == resp.ticket.0))
            .and_then(Option::take)
        else {
            continue;
        };
        let latency = secs(p.submitted, end);
        times.latency.push(latency);
        times.queue.push((latency - batch_s).max(0.0));
        r.op(served_ok(&resp, &p, refs));
    }
}
