//! The Pregel backend (paper §IV-C-1).
//!
//! One superstep per GNN layer plus an initialisation superstep:
//!
//! - superstep 0 turns raw features into the initial embedding and calls
//!   Scatter;
//! - superstep `s ∈ [1, k]` gathers layer `s-1`'s messages, applies the
//!   layer, and (except at `s = k`) scatters layer `s`'s messages;
//! - the prediction head is fused into the last superstep, exactly as the
//!   paper attaches the "prediction slice" to the final apply.
//!
//! Strategy mapping: partial-gather rides the engine's fused
//! scatter-aggregation on the columnar plane; broadcast rides the
//! engine's broadcast tables; shadow-nodes arrive pre-applied in the
//! [`crate::strategy::NodeRecord`]s.
//!
//! Message placement: one message plane per layer. Every per-edge GNN
//! message is a fixed-width `f32` row (a layer's `apply_edge` output) on
//! the engine's columnar plane — one `memcpy` per edge, no heap object per
//! message. A hub instead publishes one [`GnnMessage::Payload`] per worker
//! and sends an 8-byte [`GnnMessage::Ref`] per edge on the typed plane;
//! gather folds the payload like one row, through the same [`GasLayer`]
//! kernels.

use crate::gas::{EdgeCtx, GasLayer, GnnMessage, NodeCtx};
use crate::models::gas_impl::PoolRowAggregator;
use crate::models::GnnModel;
use crate::session::{Backend, InferenceSession};
use crate::strategy::{mirror_of, NodeRecord, StrategyConfig};
use inferturbo_cluster::{ClusterSpec, FaultInjector, RecoveryPolicy, Transport};
use inferturbo_common::rows::SpillPolicy;
use inferturbo_common::{Error, Result};
use inferturbo_graph::Graph;
use inferturbo_obs::TraceHandle;
use inferturbo_pregel::{
    FusedAggregator, MessageLayout, Outbox, PregelConfig, PregelEngine, RowsIn, ScratchPool,
    VertexProgram,
};
use std::sync::Arc;

use super::InferenceOutput;

/// Per-vertex state held in worker memory between supersteps.
///
/// The load phase is zero-copy: `raw` borrows the planned record's input
/// features (or the caller's fresh feature matrix) and `out_targets`
/// shares the record's adjacency `Arc`, so building a run's vertex states
/// from an [`crate::InferencePlan`] costs O(V) handle copies instead of
/// re-cloning O(V·d + E) floats and ids per run.
///
/// `Clone` is the engine's checkpoint requirement: recovery snapshots
/// clone states at the superstep barrier (cheap here — the borrowed `raw`
/// slice and the adjacency `Arc` are handle copies).
#[derive(Clone)]
pub struct GnnVertexState<'g> {
    raw: &'g [f32],
    h: Vec<f32>,
    out_targets: Arc<[u64]>,
    in_deg: u32,
    out_deg: u32,
    logits: Option<Vec<f32>>,
}

/// The layer-wise GNN vertex program.
pub struct GnnVertexProgram<'m> {
    model: &'m GnnModel,
    strategy: StrategyConfig,
    /// Hub threshold for the broadcast strategy (logical out-degree).
    bc_threshold: u64,
    /// Per-feeding-step fused row aggregators (index = superstep that
    /// emits).
    row_aggs: Vec<Option<PoolRowAggregator>>,
    k: usize,
}

impl<'m> GnnVertexProgram<'m> {
    fn scatter(
        &self,
        layer_idx: usize,
        vertex: u64,
        state: &GnnVertexState<'_>,
        out: &mut Outbox<GnnMessage>,
    ) {
        if state.out_targets.is_empty() {
            return;
        }
        let layer = self.model.layer_view(layer_idx);
        let raw = layer.apply_edge(
            &state.h,
            &EdgeCtx {
                src_out_degree: state.out_deg,
                edge_feat: &[],
            },
        );
        out.add_flops(layer.flops_apply_edge());
        let ann = layer.annotations();
        if self.strategy.broadcast
            && ann.uniform_message
            && state.out_deg as u64 > self.bc_threshold
        {
            // Hub path: one payload per worker on the typed plane, one
            // 8-byte ref per edge.
            out.broadcast(GnnMessage::Payload(raw));
            for &t in state.out_targets.iter() {
                out.send(t, GnnMessage::Ref(vertex));
            }
        } else {
            // Columnar plane: the row is written once into flat buffers —
            // no clone per edge, no enum on the hot path.
            for &t in state.out_targets.iter() {
                out.send_row(t, &raw);
            }
        }
    }
}

impl<'m> VertexProgram for GnnVertexProgram<'m> {
    type State = GnnVertexState<'m>;
    type Msg = GnnMessage;

    fn compute(
        &self,
        step: usize,
        vertex: u64,
        state: &mut GnnVertexState<'m>,
        messages: Vec<GnnMessage>,
        broadcast_lookup: &dyn Fn(u64) -> Option<GnnMessage>,
        out: &mut Outbox<GnnMessage>,
    ) {
        self.compute_columnar(
            step,
            vertex,
            state,
            RowsIn::None,
            messages,
            broadcast_lookup,
            out,
        );
    }

    fn compute_columnar(
        &self,
        step: usize,
        vertex: u64,
        state: &mut GnnVertexState<'m>,
        rows: RowsIn<'_>,
        messages: Vec<GnnMessage>,
        broadcast_lookup: &dyn Fn(u64) -> Option<GnnMessage>,
        out: &mut Outbox<GnnMessage>,
    ) {
        if step == 0 {
            // Initialisation superstep: raw features become h⁰.
            state.h = state.raw.to_vec();
            self.scatter(0, vertex, state, out);
            return;
        }
        debug_assert!(step <= self.k, "superstep beyond layer count");
        let layer = self.model.layer_view(step - 1);
        let mut agg = layer.init_agg();
        let n_msgs = messages.len() + rows.count();
        layer.gather_rows(&mut agg, rows);
        for msg in messages {
            layer
                .gather_wire(&mut agg, msg, broadcast_lookup)
                // itlint::allow(panic-in-lib): compute() has no error channel; the engine delivers every broadcast payload before its refs, so an unresolved ref is engine corruption, not bad input
                .expect("broadcast ref resolution is an engine invariant");
        }
        let gathered = agg.count() as usize;
        let ctx = NodeCtx {
            id: vertex,
            state: &state.h,
            in_degree: state.in_deg,
            out_degree: state.out_deg,
        };
        state.h = layer.apply_node(&ctx, agg);
        out.add_flops(
            layer.flops_apply_node(gathered) + n_msgs as f64 * layer.flops_aggregate_per_message(),
        );
        if step == self.k {
            state.logits = Some(self.model.apply_head(&state.h));
            out.add_flops(self.model.flops_head());
        } else {
            self.scatter(step, vertex, state, out);
        }
    }

    fn message_layout(&self, step: usize) -> Option<MessageLayout> {
        // Messages emitted at step `s` belong to layer `s`; nothing is
        // emitted at the final superstep. The layout applies regardless of
        // pooling — even union-aggregated layers (GAT) ship fixed-width
        // rows — only *fusion* additionally requires associativity.
        if step < self.k {
            Some(MessageLayout {
                dim: self.model.layer_view(step).annotations().msg_dim,
            })
        } else {
            None
        }
    }

    fn fused_aggregator(&self, step: usize) -> Option<&dyn FusedAggregator> {
        if !self.strategy.partial_gather {
            return None;
        }
        self.row_aggs
            .get(step)?
            .as_ref()
            .map(|a| a as &dyn FusedAggregator)
    }

    fn state_bytes(&self, state: &GnnVertexState<'_>) -> u64 {
        ((state.raw.len() + state.h.len()) * 4
            + state.out_targets.len() * 8
            + state.logits.as_ref().map_or(0, |l| l.len() * 4)
            + 64) as u64
    }
}

/// Run full-graph inference on the Pregel backend.
///
/// Thin compatibility wrapper over a single-use [`InferenceSession`]: it
/// plans once and runs once. Callers doing repeated inference over the
/// same graph should hold the plan themselves (see `crate::session`).
pub fn infer_pregel(
    model: &GnnModel,
    graph: &Graph,
    spec: ClusterSpec,
    strategy: StrategyConfig,
) -> Result<InferenceOutput> {
    InferenceSession::builder()
        .model(model)
        .graph(graph)
        .pregel_spec(spec)
        .strategy(strategy)
        .backend(Backend::Pregel)
        .plan()?
        .run()
}

/// Execute one planned Pregel run over pre-built node records.
///
/// This is the execution stage of the session pipeline: all planning work
/// (CSR builds, degree arrays, shadow-mirror expansion, hub thresholds)
/// happened when the records were built. `features`, when given, replaces
/// each record's raw input row (same node, fresh features — the serving
/// path); `scratch` is the plan's pooled per-worker engine scratch,
/// returned after the run so the next run skips the per-superstep
/// allocations. On error the pool is dropped; the next run starts fresh.
/// `spill`, when given, puts each worker's columnar inboxes under the
/// out-of-core byte budget (bit-identical results, reduced residency).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_planned<'g>(
    model: &'g GnnModel,
    records: &'g [NodeRecord],
    n_nodes: usize,
    spec: ClusterSpec,
    strategy: StrategyConfig,
    bc_threshold: u64,
    features: Option<&'g [Vec<f32>]>,
    scratch: ScratchPool<GnnMessage>,
    spill: Option<&SpillPolicy>,
    faults: Option<&FaultInjector>,
    recovery: Option<RecoveryPolicy>,
    trace: TraceHandle,
    transport: Option<&Arc<dyn Transport>>,
) -> Result<(InferenceOutput, ScratchPool<GnnMessage>)> {
    let k = model.n_layers();
    let row_aggs: Vec<Option<PoolRowAggregator>> = (0..k)
        .map(|l| model.layer_view(l).row_aggregator())
        .collect();
    let program = GnnVertexProgram {
        model,
        strategy,
        bc_threshold,
        row_aggs,
        k,
    };
    // An explicit fault schedule puts the session in charge of both
    // knobs: the plan's shared-budget injector replaces any
    // `INFERTURBO_FAULTS` schedule AND the recovery policy becomes the
    // session's (possibly none = fail-fast). Without one, the env
    // auto-arming survives and only an explicit recovery overrides.
    let mut config = PregelConfig::new(spec)
        .with_spill(spill.cloned())
        .with_trace(trace);
    if let Some(t) = transport {
        config = config.with_transport(Arc::clone(t));
    }
    if let Some(inj) = faults {
        config = config
            .with_fault_injector(inj.clone())
            .with_recovery(recovery);
    } else if recovery.is_some() {
        config = config.with_recovery(recovery);
    }
    let mut engine = PregelEngine::new(program, config);
    engine.set_scratch(scratch);
    for rec in records {
        // Zero-copy load: borrow the feature row, share the adjacency Arc.
        let raw: &'g [f32] = match features {
            Some(f) => &f[rec.base as usize],
            None => &rec.raw,
        };
        engine.add_vertex(
            rec.wire,
            GnnVertexState {
                raw,
                h: Vec::new(),
                out_targets: Arc::clone(&rec.out_targets),
                in_deg: rec.in_deg,
                out_deg: rec.out_deg,
                logits: None,
            },
        );
    }
    engine.run(k + 1)?;
    let scratch = engine.take_scratch();

    let mut logits: Vec<Option<Vec<f32>>> = vec![None; n_nodes];
    engine.for_each_state(|id, state| {
        if mirror_of(id) == 0 {
            let base = crate::strategy::base_of(id) as usize;
            logits[base] = state.logits.clone();
        }
    });
    let logits: Vec<Vec<f32>> = logits
        .into_iter()
        .enumerate()
        .map(|(v, l)| l.ok_or_else(|| Error::InvalidGraph(format!("node {v} missing logits"))))
        .collect::<Result<_>>()?;
    Ok((
        InferenceOutput {
            logits,
            report: engine.into_report(),
        },
        scratch,
    ))
}
