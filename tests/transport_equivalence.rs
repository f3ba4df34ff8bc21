//! The transport acceptance bar: the spawned-worker-process shuffle
//! backend must be **bit-identical** to the in-process default —
//! logits, byte accounting, and rendered trace bytes — at every worker
//! count, on both engines, under forced spill, and through fault
//! recovery. The only quantity allowed to differ is
//! `RunReport::wire_bytes` (zero for in-process moves, request +
//! response frames for the pipes).

use std::path::PathBuf;
use std::sync::Arc;

use inferturbo::cluster::{
    ClusterSpec, FaultPlan, InProcess, RecoveryPolicy, Transport, WorkerProcess,
};
use inferturbo::common::Parallelism;
use inferturbo::core::models::{GnnModel, PoolOp};
use inferturbo::core::session::{Backend, InferenceSession};
use inferturbo::core::strategy::StrategyConfig;
use inferturbo::graph::gen::{generate, DegreeSkew, GenConfig};
use inferturbo::graph::Graph;
use inferturbo::obs::TraceHandle;
use inferturbo::pregel::{Outbox, PregelConfig, PregelEngine, VertexProgram};

fn test_graph() -> Graph {
    generate(&GenConfig {
        n_nodes: 200,
        n_edges: 1200,
        feat_dim: 8,
        classes: 3,
        skew: DegreeSkew::In,
        seed: 61,
        ..GenConfig::default()
    })
}

fn model() -> GnnModel {
    GnnModel::sage(8, 12, 2, 3, false, PoolOp::Mean, 13)
}

/// Locate the `itworker` child binary, building it on demand: root-level
/// integration tests do not get `CARGO_BIN_EXE_itworker` (that variable is
/// only set for the defining package's own tests), and a bare
/// `cargo test --test transport_equivalence` does not build sibling bins.
fn worker_bin() -> PathBuf {
    let mut dir = std::env::current_exe().expect("test exe path");
    dir.pop();
    if dir.ends_with("deps") {
        dir.pop();
    }
    let bin = dir.join(format!("itworker{}", std::env::consts::EXE_SUFFIX));
    if !bin.exists() {
        let mut cmd = std::process::Command::new(env!("CARGO"));
        cmd.args(["build", "-p", "inferturbo-cluster", "--bin", "itworker"]);
        if dir.ends_with("release") {
            cmd.arg("--release");
        }
        let status = cmd.status().expect("spawn cargo to build itworker");
        assert!(status.success(), "building the itworker binary failed");
        assert!(
            bin.exists(),
            "cargo succeeded but {} is missing",
            bin.display()
        );
    }
    bin
}

/// One run under `transport`: returns (logit bits, rendered trace bytes,
/// total report bytes, wire bytes, spilled bytes).
#[allow(clippy::too_many_arguments)]
fn run(
    graph: &Graph,
    model: &GnnModel,
    workers: usize,
    backend: Backend,
    transport: &Arc<dyn Transport>,
    spill_budget: Option<u64>,
    faults: Option<&str>,
) -> (Vec<Vec<u32>>, String, u64, u64, u64) {
    let trace = TraceHandle::recording();
    let mut builder = InferenceSession::builder()
        .model(model)
        .graph(graph)
        .workers(workers)
        .backend(backend)
        .transport(Arc::clone(transport))
        .trace(trace.clone());
    if let Some(bytes) = spill_budget {
        // Materialized columnar inboxes (no partial gather): the O(E·d)
        // inbox dominates residency, so a 4 KiB window actually pages.
        builder = builder
            .strategy(StrategyConfig::all().with_partial_gather(false))
            .spill_budget(bytes)
            .spill_dir(std::env::temp_dir().join("inferturbo-transport-tests"));
    }
    if let Some(spec) = faults {
        builder = builder
            .fault_plan(FaultPlan::parse(spec).expect("fault spec"))
            .recovery(RecoveryPolicy::new(1, 3));
    }
    let plan = builder.plan().expect("plan");
    let out = plan.run().expect("run");
    let bits = out
        .logits
        .iter()
        .map(|row| row.iter().map(|x| x.to_bits()).collect())
        .collect();
    (
        bits,
        trace.render(),
        out.report.total_bytes(),
        out.report.wire_bytes,
        out.report.spilled_bytes,
    )
}

#[test]
fn process_transport_is_bit_identical_on_both_backends() {
    let g = test_graph();
    let m = model();
    let local: Arc<dyn Transport> = Arc::new(InProcess);
    // One pooled child set reused across every plan in this test.
    let procs: Arc<dyn Transport> = Arc::new(WorkerProcess::with_bin(worker_bin()));
    for backend in [Backend::Pregel, Backend::MapReduce] {
        for workers in [1usize, 2, 4] {
            let want = run(&g, &m, workers, backend, &local, None, None);
            let got = run(&g, &m, workers, backend, &procs, None, None);
            assert_eq!(
                want.0, got.0,
                "{backend:?} logits diverged at {workers} workers"
            );
            assert_eq!(
                want.1, got.1,
                "{backend:?} trace bytes diverged at {workers} workers"
            );
            assert_eq!(
                want.2, got.2,
                "{backend:?} modelled byte accounting diverged at {workers} workers"
            );
            assert_eq!(want.3, 0, "in-process moves never touch the wire");
            assert!(
                got.3 > 0,
                "{backend:?} process exchange must report wire bytes at {workers} workers"
            );
        }
    }
}

#[test]
fn process_transport_is_thread_count_invariant() {
    // The determinism spine crossed with the process boundary: the same
    // worker-process run must not move a bit under different host thread
    // budgets.
    let g = test_graph();
    let m = model();
    let procs: Arc<dyn Transport> = Arc::new(WorkerProcess::with_bin(worker_bin()));
    let want = Parallelism::with(1, || run(&g, &m, 4, Backend::Pregel, &procs, None, None));
    for threads in [2usize, 4] {
        let got = Parallelism::with(threads, || {
            run(&g, &m, 4, Backend::Pregel, &procs, None, None)
        });
        assert_eq!(
            (&want.0, &want.1, want.2),
            (&got.0, &got.1, got.2),
            "process-backed run diverged at {threads} threads"
        );
    }
}

#[test]
fn forced_spill_crosses_the_process_boundary_bit_identically() {
    // A 4 KiB budget pages every merged inbox through disk. The spill
    // decision is the parent's (children merge resident and ship parts
    // back), so the spilled plane must match the in-process run exactly.
    let g = test_graph();
    let m = model();
    let local: Arc<dyn Transport> = Arc::new(InProcess);
    let procs: Arc<dyn Transport> = Arc::new(WorkerProcess::with_bin(worker_bin()));
    for workers in [2usize, 4] {
        let want = run(&g, &m, workers, Backend::Pregel, &local, Some(4096), None);
        let got = run(&g, &m, workers, Backend::Pregel, &procs, Some(4096), None);
        assert!(
            want.4 > 0,
            "4 KiB budget must actually page inbox rows at {workers} workers"
        );
        assert_eq!(
            (&want.0, &want.1, want.2, want.4),
            (&got.0, &got.1, got.2, got.4),
            "spilled run diverged at {workers} workers"
        );
    }
}

#[test]
fn fault_recovery_replays_identically_over_the_process_transport() {
    // A worker loss at superstep 1 forces a checkpoint restore and replay.
    // Seal faults fire *inside* the exchange on both backends, so the
    // recovery path — and the recovered trace — must be byte-identical.
    let g = test_graph();
    let m = model();
    let local: Arc<dyn Transport> = Arc::new(InProcess);
    let procs: Arc<dyn Transport> = Arc::new(WorkerProcess::with_bin(worker_bin()));
    for spec in ["worker:1@step:1", "seal:1@step:1"] {
        let want = run(&g, &m, 4, Backend::Pregel, &local, None, Some(spec));
        let got = run(&g, &m, 4, Backend::Pregel, &procs, None, Some(spec));
        assert!(
            want.1.contains("site=recovery"),
            "fault {spec} must engage recovery: {}",
            want.1
        );
        assert_eq!(want.0, got.0, "recovered logits diverged under {spec}");
        assert_eq!(want.1, got.1, "recovered trace diverged under {spec}");
    }
}

/// PageRank with typed `f32` messages and no row layout: every message
/// rides the typed plane, so a byte-moving transport encodes each one and
/// the engine decodes it on the far side of the pipe.
struct PageRank {
    n: f64,
}

#[derive(Clone)]
struct PrState {
    rank: f64,
    nbrs: Vec<u64>,
}

impl VertexProgram for PageRank {
    type State = PrState;
    type Msg = f32;

    fn compute(
        &self,
        step: usize,
        _vertex: u64,
        state: &mut PrState,
        messages: Vec<f32>,
        _bcast: &dyn Fn(u64) -> Option<f32>,
        out: &mut Outbox<f32>,
    ) {
        if step > 0 {
            let sum: f64 = messages.iter().map(|&m| m as f64).sum();
            state.rank = 0.15 / self.n + 0.85 * sum;
        }
        let share = (state.rank / state.nbrs.len().max(1) as f64) as f32;
        for &nb in &state.nbrs {
            out.send(nb, share);
        }
    }
}

/// Rank bits, total modelled bytes and wire bytes of a PageRank run.
fn pagerank(g: &Graph, workers: usize, transport: &Arc<dyn Transport>) -> (Vec<u64>, u64, u64) {
    let n = g.n_nodes();
    let cfg = PregelConfig::unfaulted(ClusterSpec::test_spec(workers))
        .with_transport(Arc::clone(transport));
    let mut eng = PregelEngine::new(PageRank { n: n as f64 }, cfg);
    let mut adj: Vec<Vec<u64>> = vec![Vec::new(); n];
    for (&s, &d) in g.src().iter().zip(g.dst()) {
        adj[s as usize].push(d as u64);
    }
    for (v, nbrs) in adj.into_iter().enumerate() {
        let rank = 1.0 / n as f64;
        eng.add_vertex(v as u64, PrState { rank, nbrs });
    }
    eng.run(5).expect("pagerank run");
    let mut ranks = vec![0u64; n];
    eng.for_each_state(|id, st| ranks[id as usize] = st.rank.to_bits());
    (ranks, eng.report().total_bytes(), eng.report().wire_bytes)
}

#[test]
fn typed_messages_survive_the_process_wire() {
    // Typed `VertexProgram::Msg` records cross the pipe through the real
    // codec (`to_bytes` before the exchange, `from_bytes` after it); the
    // ranks and the byte accounting must match the in-process move.
    let g = test_graph();
    let local: Arc<dyn Transport> = Arc::new(InProcess);
    let procs: Arc<dyn Transport> = Arc::new(WorkerProcess::with_bin(worker_bin()));
    for workers in [2usize, 3] {
        let want = pagerank(&g, workers, &local);
        let got = pagerank(&g, workers, &procs);
        assert_eq!(want.0, got.0, "ranks diverged at {workers} workers");
        assert_eq!(
            want.1, got.1,
            "byte accounting diverged at {workers} workers"
        );
        assert_eq!(want.2, 0, "in-process moves never touch the wire");
        assert!(
            got.2 > 0,
            "typed records must cross the pipe at {workers} workers"
        );
    }
}
