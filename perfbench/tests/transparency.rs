//! The timing transport decorator is invisible to the engines: on both
//! backends and over both inner transports, logits and `RunReport`
//! (including `wire_bytes`) are bit-identical with and without it.
//!
//! The worker-process arm needs the release `itworker` binary next to the
//! test executable; `python3 perfbench/run.py --test` builds it there.

use inferturbo::cluster::{InProcess, Transport, WorkerProcess};
use inferturbo::core::{
    Backend, GnnModel, InferenceOutput, InferenceSession, PoolOp, StrategyConfig,
};
use inferturbo::graph::gen::{generate, DegreeSkew, GenConfig};
use inferturbo::graph::Graph;
use inferturbo::obs::TraceHandle;
use perfbench::preflight;
use perfbench::timing::TimedTransport;
use std::sync::Arc;

fn inner(xproc: bool) -> Arc<dyn Transport> {
    if xproc {
        let bin = preflight::worker_bin().unwrap_or_else(|e| panic!("{e}"));
        Arc::new(WorkerProcess::with_bin(bin))
    } else {
        Arc::new(InProcess)
    }
}

fn run(
    model: &GnnModel,
    graph: &Graph,
    backend: Backend,
    transport: Arc<dyn Transport>,
) -> InferenceOutput {
    InferenceSession::builder()
        .model(model)
        .graph(graph)
        .workers(16)
        .strategy(StrategyConfig::all())
        .backend(backend)
        .transport(transport)
        .trace(TraceHandle::disabled())
        .plan()
        .and_then(|plan| plan.run())
        .expect("run")
}

fn bits(rows: &[Vec<f32>]) -> Vec<Vec<u32>> {
    rows.iter()
        .map(|r| r.iter().map(|x| x.to_bits()).collect())
        .collect()
}

#[test]
fn timing_wrapper_is_bit_identical() {
    let graph = generate(&GenConfig {
        n_nodes: 600,
        n_edges: 6_000,
        feat_dim: 32,
        classes: 8,
        skew: DegreeSkew::Out,
        seed: 5,
        ..GenConfig::default()
    });
    let model = GnnModel::sage(32, 64, 2, 8, false, PoolOp::Mean, 5);
    for backend in [Backend::Pregel, Backend::MapReduce] {
        for xproc in [false, true] {
            let case = format!("{backend:?}, worker processes: {xproc}");
            let bare = run(&model, &graph, backend, inner(xproc));
            let timed = TimedTransport::wrap(inner(xproc));
            let wrapped = run(&model, &graph, backend, timed.clone());
            assert_eq!(timed.take_spans().len(), 3, "{case}: 2 layers, 3 exchanges");
            assert_eq!(bits(&bare.logits), bits(&wrapped.logits), "{case}");
            assert_eq!(
                format!("{:?}", bare.report),
                format!("{:?}", wrapped.report),
                "{case}"
            );
            assert_eq!(bare.report.wire_bytes > 0, xproc, "{case}");
        }
    }
}
