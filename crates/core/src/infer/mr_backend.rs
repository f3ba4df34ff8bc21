//! The MapReduce backend (paper §IV-C-2).
//!
//! No state lives in worker memory between rounds: the Map phase computes
//! initial embeddings and fans them out, and each Reduce round `r`
//! performs layer `r-1` for every node, re-emitting the node's own updated
//! state as a **self-message** alongside the messages for its out-edge
//! neighbours. The shuffle therefore carries three record kinds per key
//! (self state, in-messages, broadcast-table entries), mirroring the
//! paper's "three kinds of information for each node".
//!
//! Broadcast tables ride reserved low keys (one per worker, routed by a
//! custom partition function); because reducers stream keys in ascending
//! order and node wire-ids carry the high [`NODE_FLAG`] bit, each worker's
//! table group arrives before any of its node groups in the same round.

use crate::gas::{EdgeCtx, GasLayer, GnnMessage, NodeCtx};
use crate::models::gas_impl::PoolRowAggregator;
use crate::models::GnnModel;
use crate::session::{Backend, InferenceSession};
use crate::strategy::{base_of, mirror_of, NodeRecord, StrategyConfig, NODE_FLAG};
use inferturbo_batch::{BatchEngine, KeyedData, PhaseCtx, RowSink, RowsView};
use inferturbo_cluster::{ClusterSpec, FaultInjector, Transport};
use inferturbo_common::codec::{Decode, Encode, WireReader, WireWriter};
use inferturbo_common::hash::partition_of;
use inferturbo_common::rows::FusedAggregator;
use inferturbo_common::{Error, FxHashMap, Result};
use inferturbo_graph::Graph;
use inferturbo_obs::TraceHandle;
use std::sync::Arc;

use super::InferenceOutput;

/// Shuffle record kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum MrRecord {
    /// The node's own state travelling to the next round. The out-edge
    /// table is behind an `Arc`: within a round it is re-emitted by handle
    /// (zero-copy plan reload); only the wire codec materialises it.
    SelfState {
        h: Vec<f32>,
        out_targets: Arc<[u64]>,
        in_deg: u32,
        out_deg: u32,
    },
    /// A message arriving via an in-edge on the typed plane: a hub's
    /// broadcast ref (every other in-edge message is a columnar row).
    InMsg(GnnMessage),
    /// A broadcast-table entry for the destination worker.
    Bcast { src: u64, msg: GnnMessage },
    /// Final prediction logits (last round only).
    Output(Vec<f32>),
}

/// A node's unpacked self-state inside a reducer: (embedding, out-edge
/// table, logical in-degree, logical out-degree).
type SelfState = (Vec<f32>, Arc<[u64]>, u32, u32);

const TAG_SELF: u8 = 1;
const TAG_INMSG: u8 = 2;
const TAG_BCAST: u8 = 3;
const TAG_OUTPUT: u8 = 4;

impl Encode for MrRecord {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            MrRecord::SelfState {
                h,
                out_targets,
                in_deg,
                out_deg,
            } => {
                w.put_u8(TAG_SELF);
                w.put_f32_slice(h);
                w.put_varint(out_targets.len() as u64);
                for &t in out_targets.iter() {
                    w.put_varint(t);
                }
                w.put_varint(*in_deg as u64);
                w.put_varint(*out_deg as u64);
            }
            MrRecord::InMsg(m) => {
                w.put_u8(TAG_INMSG);
                m.encode(w);
            }
            MrRecord::Bcast { src, msg } => {
                w.put_u8(TAG_BCAST);
                w.put_varint(*src);
                msg.encode(w);
            }
            MrRecord::Output(l) => {
                w.put_u8(TAG_OUTPUT);
                w.put_f32_slice(l);
            }
        }
    }
}

impl Decode for MrRecord {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        match r.get_u8()? {
            TAG_SELF => {
                let h = r.get_f32_vec()?;
                let n = r.get_varint()? as usize;
                let mut out_targets = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    out_targets.push(r.get_varint()?);
                }
                let in_deg = r.get_varint()? as u32;
                let out_deg = r.get_varint()? as u32;
                Ok(MrRecord::SelfState {
                    h,
                    out_targets: out_targets.into(),
                    in_deg,
                    out_deg,
                })
            }
            TAG_INMSG => Ok(MrRecord::InMsg(GnnMessage::decode(r)?)),
            TAG_BCAST => Ok(MrRecord::Bcast {
                src: r.get_varint()?,
                msg: GnnMessage::decode(r)?,
            }),
            TAG_OUTPUT => Ok(MrRecord::Output(r.get_f32_vec()?)),
            tag => Err(Error::Codec(format!("unknown MrRecord tag {tag}"))),
        }
    }
}

/// Route reserved broadcast keys (no [`NODE_FLAG`]) to their literal
/// worker; hash everything else.
fn mr_partition(key: u64, n: usize) -> usize {
    if key & NODE_FLAG == 0 {
        (key as usize) % n
    } else {
        partition_of(key, n)
    }
}

/// Emit the scatter traffic of `wire` for the layer `layer_idx` gather.
/// Non-hub messages ride the batch engine's columnar plane as fixed-width
/// rows (one `memcpy` per edge, fused into per-key partials at the sender
/// when the layer's aggregate is associative). A hub publishes one
/// broadcast-table record per worker plus one ref record per edge on the
/// typed record plane.
#[allow(clippy::too_many_arguments)]
fn scatter_rows(
    model: &GnnModel,
    strategy: &StrategyConfig,
    bc_threshold: u64,
    workers: usize,
    layer_idx: usize,
    wire: u64,
    h: &[f32],
    out_targets: &[u64],
    out_deg: u32,
    ctx: &mut PhaseCtx,
    emit: &mut Vec<(u64, MrRecord)>,
    sink: &mut RowSink<'_>,
) {
    if out_targets.is_empty() {
        return;
    }
    let layer = model.layer_view(layer_idx);
    let raw = layer.apply_edge(
        h,
        &EdgeCtx {
            src_out_degree: out_deg,
            edge_feat: &[],
        },
    );
    ctx.add_flops(layer.flops_apply_edge());
    let ann = layer.annotations();
    if strategy.broadcast && ann.uniform_message && out_deg as u64 > bc_threshold {
        let msg = GnnMessage::Payload(raw);
        for w in 0..workers {
            emit.push((
                w as u64,
                MrRecord::Bcast {
                    src: wire,
                    msg: msg.clone(),
                },
            ));
        }
        for &t in out_targets {
            emit.push((t, MrRecord::InMsg(GnnMessage::Ref(wire))));
        }
    } else {
        for &t in out_targets {
            sink.send_row(t, &raw);
        }
    }
}

/// Run full-graph inference on the MapReduce backend. Fixed-width GNN
/// messages ride the engine's columnar shuffle plane.
///
/// Thin compatibility wrapper over a single-use [`InferenceSession`]: it
/// plans once and runs once. Callers doing repeated inference over the
/// same graph should hold the plan themselves (see `crate::session`).
pub fn infer_mapreduce(
    model: &GnnModel,
    graph: &Graph,
    spec: ClusterSpec,
    strategy: StrategyConfig,
) -> Result<InferenceOutput> {
    InferenceSession::builder()
        .model(model)
        .graph(graph)
        .mapreduce_spec(spec)
        .strategy(strategy)
        .backend(Backend::MapReduce)
        .plan()?
        .run()
}

/// Build the round engine, arming the plan's shared-budget injector when
/// one is set (left unset, the `INFERTURBO_FAULTS` fallback survives).
fn engine_for(
    spec: ClusterSpec,
    faults: Option<&FaultInjector>,
    trace: TraceHandle,
    transport: Option<&Arc<dyn Transport>>,
) -> BatchEngine {
    let mut eng = BatchEngine::new(spec)
        .with_partition_fn(mr_partition)
        .with_trace(trace);
    if let Some(t) = transport {
        eng = eng.with_transport(Arc::clone(t));
    }
    if let Some(inj) = faults {
        eng = eng.with_fault_injector(inj.clone());
    }
    eng
}

/// Collect `Output` records from the final round into per-node logits.
fn harvest_logits(n_nodes: usize, data: KeyedData<MrRecord>) -> Result<Vec<Vec<f32>>> {
    let mut logits: Vec<Option<Vec<f32>>> = vec![None; n_nodes];
    for (key, rec) in data.into_map() {
        if key & NODE_FLAG == 0 || mirror_of(key) != 0 {
            continue;
        }
        match rec {
            MrRecord::Output(l) => logits[base_of(key) as usize] = Some(l),
            other => {
                return Err(Error::InvalidGraph(format!(
                    "expected Output at {key}, got {other:?}"
                )))
            }
        }
    }
    logits
        .into_iter()
        .enumerate()
        .map(|(v, l)| l.ok_or_else(|| Error::InvalidGraph(format!("node {v} missing logits"))))
        .collect::<Result<_>>()
}

/// Execute one planned MapReduce run over pre-built node records (the
/// execution stage of the session pipeline; planning already happened).
/// `features`, when given, replaces each record's raw input row. Records
/// are shuffled by reference — nothing is cloned per run beyond what the
/// rounds themselves emit.
///
/// Self-state, broadcast-table, ref and output records ride the typed
/// record plane; every other per-edge GNN message is a fixed-width row on
/// the columnar plane, fused into per-key partial rows at the sender
/// whenever the layer's aggregate is annotated commutative/associative
/// (the paper's partial-aggregation strategy, executed without a single
/// per-message heap object).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_planned(
    model: &GnnModel,
    records: &[NodeRecord],
    n_nodes: usize,
    spec: ClusterSpec,
    strategy: StrategyConfig,
    bc_threshold: u64,
    features: Option<&[Vec<f32>]>,
    faults: Option<&FaultInjector>,
    trace: TraceHandle,
    transport: Option<&Arc<dyn Transport>>,
) -> Result<InferenceOutput> {
    let k = model.n_layers();
    let workers = spec.workers;
    let mut eng = engine_for(spec, faults, trace, transport);
    let inputs = eng.scatter_inputs(records.iter().collect());

    // Partial-gather is fused row aggregation at the sender, licensed by
    // the layer's annotation.
    let row_aggs: Vec<Option<PoolRowAggregator>> = (0..k)
        .map(|l| {
            if strategy.partial_gather {
                model.layer_view(l).row_aggregator()
            } else {
                None
            }
        })
        .collect();
    let agg_for = |l: usize| -> Option<&dyn FusedAggregator> {
        row_aggs.get(l)?.as_ref().map(|a| a as &dyn FusedAggregator)
    };
    let dim_of = |l: usize| model.layer_view(l).annotations().msg_dim;

    // --- Map: initial embeddings + layer-0 scatter ------------------------
    let (mut data, mut rows) = eng.map_phase_rows(
        "map-init",
        &inputs,
        dim_of(0),
        |_w| {
            |ctx: &mut PhaseCtx, rec: &&NodeRecord, sink: &mut RowSink<'_>| {
                let mut emit = Vec::with_capacity(2);
                // h⁰ = raw features (initialisation step), or the fresh
                // features a serving caller handed to this run.
                let h0 = match features {
                    Some(f) => f[rec.base as usize].clone(),
                    None => rec.raw.clone(),
                };
                scatter_rows(
                    model,
                    &strategy,
                    bc_threshold,
                    workers,
                    0,
                    rec.wire,
                    &h0,
                    &rec.out_targets,
                    rec.out_deg,
                    ctx,
                    &mut emit,
                    sink,
                );
                emit.push((
                    rec.wire,
                    MrRecord::SelfState {
                        h: h0,
                        out_targets: rec.out_targets.clone(),
                        in_deg: rec.in_deg,
                        out_deg: rec.out_deg,
                    },
                ));
                Ok(emit)
            }
        },
        agg_for(0),
    )?;

    // --- k reduce rounds ----------------------------------------------------
    for r in 1..=k {
        let layer_idx = r - 1;
        let out_dim = if r == k { 0 } else { dim_of(r) };
        // Each worker's kernel owns a broadcast table for refs arriving
        // THIS round; reducers stream keys ascending, and bcast keys sort
        // before node keys, so the table fills before any node group.
        let make_reduce = |_w: usize| {
            let mut table: FxHashMap<u64, GnnMessage> = FxHashMap::default();
            move |ctx: &mut PhaseCtx,
                  key: u64,
                  values: Vec<MrRecord>,
                  view: RowsView<'_>,
                  sink: &mut RowSink<'_>|
                  -> Result<Vec<(u64, MrRecord)>> {
                if key & NODE_FLAG == 0 {
                    // broadcast-table group for this worker
                    table.clear();
                    for v in values {
                        if let MrRecord::Bcast { src, msg } = v {
                            table.insert(src, msg);
                        }
                    }
                    debug_assert!(view.is_empty(), "rows never target control keys");
                    return Ok(Vec::new());
                }
                let layer = model.layer_view(layer_idx);
                let mut agg = layer.init_agg();
                let mut self_state: Option<SelfState> = None;
                // Columnar half first: partial rows fold with their counts.
                let mut n_msgs = view.n_rows();
                for i in 0..view.n_rows() {
                    layer.gather_row(&mut agg, view.row(i), view.counts[i]);
                }
                for v in values {
                    match v {
                        MrRecord::SelfState {
                            h,
                            out_targets,
                            in_deg,
                            out_deg,
                        } => self_state = Some((h, out_targets, in_deg, out_deg)),
                        MrRecord::InMsg(m) => {
                            n_msgs += 1;
                            let lookup = |src: u64| table.get(&src).cloned();
                            layer.gather_wire(&mut agg, m, &lookup)?;
                        }
                        other => {
                            return Err(Error::InvalidGraph(format!(
                                "unexpected record {other:?} at key {key}"
                            )));
                        }
                    }
                }
                let Some((h, out_targets, in_deg, out_deg)) = self_state else {
                    return Err(Error::InvalidGraph(format!(
                        "node {key} lost its self-state record"
                    )));
                };
                let gathered = agg.count() as usize;
                let ctx_node = NodeCtx {
                    id: key,
                    state: &h,
                    in_degree: in_deg,
                    out_degree: out_deg,
                };
                let h_new = layer.apply_node(&ctx_node, agg);
                ctx.add_flops(
                    layer.flops_apply_node(gathered)
                        + n_msgs as f64 * layer.flops_aggregate_per_message(),
                );
                let mut emit = Vec::with_capacity(2);
                if r == k {
                    ctx.add_flops(model.flops_head());
                    emit.push((key, MrRecord::Output(model.apply_head(&h_new))));
                } else {
                    scatter_rows(
                        model,
                        &strategy,
                        bc_threshold,
                        workers,
                        r,
                        key,
                        &h_new,
                        &out_targets,
                        out_deg,
                        ctx,
                        &mut emit,
                        sink,
                    );
                    emit.push((
                        key,
                        MrRecord::SelfState {
                            h: h_new,
                            out_targets,
                            in_deg,
                            out_deg,
                        },
                    ));
                }
                Ok(emit)
            }
        };
        let next_agg = if r == k { None } else { agg_for(r) };
        (data, rows) = eng.reduce_phase_rows(
            format!("reduce-{r}"),
            data,
            rows,
            out_dim,
            make_reduce,
            next_agg,
        )?;
    }
    debug_assert!(rows.is_empty(), "last round emits no rows");

    let logits = harvest_logits(n_nodes, data)?;
    Ok(InferenceOutput {
        logits,
        report: eng.into_report(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mr_record_codec_roundtrip() {
        let records = vec![
            MrRecord::SelfState {
                h: vec![1.0, 2.0],
                out_targets: vec![NODE_FLAG | 5, NODE_FLAG | 9].into(),
                in_deg: 3,
                out_deg: 2,
            },
            MrRecord::InMsg(GnnMessage::Ref(NODE_FLAG | 1)),
            MrRecord::Bcast {
                src: NODE_FLAG | 1,
                msg: GnnMessage::Payload(vec![1.0, 0.5]),
            },
            MrRecord::Output(vec![0.1, 0.9]),
        ];
        for r in records {
            assert_eq!(MrRecord::from_bytes(&r.to_bytes()).unwrap(), r);
        }
        assert!(MrRecord::from_bytes(&[99]).is_err());
    }

    #[test]
    fn partition_routes_bcast_keys_literally() {
        for w in 0..8u64 {
            assert_eq!(mr_partition(w, 8), w as usize);
        }
        // node keys use the hash route
        let k = NODE_FLAG | 12345;
        assert_eq!(mr_partition(k, 8), partition_of(k, 8));
    }
}
