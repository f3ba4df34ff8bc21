//! Per-vertex inference kernels: each model layer as a [`GasLayer`].
//!
//! [`LayerView`] borrows a layer's parameters from the model's shared
//! `ParamSet` and implements the three computation-flow stages. The same
//! code runs on the Pregel backend, the MapReduce backend, and the
//! single-machine reference — backend equivalence tests in
//! `crate::infer` lean on exactly this sharing.

use super::{matvec_acc, GnnModel, LayerKind, LayerParams, PoolOp};
use crate::gas::{pooled_fold, AggState, EdgeCtx, GasLayer, GnnMessage, LayerAnnotations, NodeCtx};
use inferturbo_common::{Error, Result};
use inferturbo_pregel::{FusedAggregator, RowsIn};
use inferturbo_tensor::{row_axpy, row_max};

/// GAT attention slope — fixed constant, must match the tape builder.
pub const GAT_LEAKY_SLOPE: f32 = 0.2;

/// A borrowed view of one layer, implementing the inference computation
/// flow.
pub struct LayerView<'m> {
    model: &'m GnnModel,
    idx: usize,
}

impl GnnModel {
    /// Inference view of layer `idx`.
    pub fn layer_view(&self, idx: usize) -> LayerView<'_> {
        assert!(idx < self.layers.len(), "layer {idx} out of range");
        LayerView { model: self, idx }
    }
}

impl<'m> LayerView<'m> {
    fn lp(&self) -> &'m LayerParams {
        &self.model.layers[self.idx]
    }

    /// Pooling operator for combinable layers; `None` for union layers.
    pub fn pool_op(&self) -> Option<PoolOp> {
        match self.lp().kind {
            LayerKind::Gcn => Some(PoolOp::Sum),
            LayerKind::Sage(p) => Some(p),
            LayerKind::Gat { .. } => None,
        }
    }

    /// Fused row aggregator implementing partial-gather for this layer, if
    /// its aggregate is commutative/associative.
    pub fn row_aggregator(&self) -> Option<PoolRowAggregator> {
        self.pool_op().map(|op| PoolRowAggregator { op })
    }

    /// Fold one columnar row (a partial aggregate over `count` raw
    /// messages, or a raw message when `count == 1`) into the gather
    /// aggregate.
    pub fn gather_row(&self, agg: &mut AggState, row: &[f32], count: u32) {
        match (self.pool_op(), agg) {
            (Some(op), AggState::Pooled { acc, count: c }) => pooled_fold(op, acc, c, row, count),
            (None, AggState::Union { msgs }) => {
                debug_assert_eq!(count, 1, "union layers never see partial rows");
                msgs.push(row.to_vec());
            }
            _ => debug_assert!(false, "gather_row on mismatched AggState"),
        }
    }

    /// Fold the columnar half of a vertex inbox into the gather aggregate:
    /// materialized rows fold one by one in delivery order; a fused
    /// accumulator merges as a single pre-reduced partial.
    pub fn gather_rows(&self, agg: &mut AggState, rows: RowsIn<'_>) {
        match rows {
            RowsIn::None => {}
            RowsIn::Rows { dim, data } => {
                if dim > 0 {
                    for chunk in data.chunks_exact(dim) {
                        self.gather_row(agg, chunk, 1);
                    }
                }
            }
            RowsIn::Fused { acc, count, .. } => {
                if count > 0 {
                    // The common case: the engine's merged accumulator IS
                    // the gather result — copy it straight into the empty
                    // aggregate instead of round-tripping a partial.
                    match (self.pool_op(), &mut *agg) {
                        (Some(_), AggState::Pooled { acc: a, count: c }) if a.is_empty() => {
                            a.extend_from_slice(acc);
                            *c = count;
                        }
                        _ => self.merge_agg(
                            agg,
                            AggState::Pooled {
                                acc: acc.to_vec(),
                                count,
                            },
                        ),
                    }
                }
            }
        }
    }

    /// Fold one typed wire message into the gather aggregate, resolving
    /// broadcast references through `lookup`. A hub payload is one raw
    /// message, so it folds exactly like a materialized columnar row.
    pub fn gather_wire(
        &self,
        agg: &mut AggState,
        msg: GnnMessage,
        lookup: &dyn Fn(u64) -> Option<GnnMessage>,
    ) -> Result<()> {
        match msg {
            GnnMessage::Payload(row) => {
                self.gather_row(agg, &row, 1);
                Ok(())
            }
            GnnMessage::Ref(src) => match lookup(src) {
                Some(GnnMessage::Payload(row)) => {
                    self.gather_row(agg, &row, 1);
                    Ok(())
                }
                Some(GnnMessage::Ref(_)) => {
                    Err(Error::InvalidGraph("broadcast ref to a ref".into()))
                }
                None => Err(Error::InvalidGraph(format!(
                    "dangling broadcast ref to {src}"
                ))),
            },
        }
    }
}

impl GasLayer for LayerView<'_> {
    fn annotations(&self) -> LayerAnnotations {
        let lp = self.lp();
        LayerAnnotations {
            partial_gather: self.pool_op().is_some(),
            // All built-in models emit the updated embedding unchanged (or
            // pre-scaled by a source-side constant) on every out-edge.
            uniform_message: true,
            in_dim: lp.in_dim,
            out_dim: lp.out_dim,
            msg_dim: lp.in_dim,
        }
    }

    fn init_agg(&self) -> AggState {
        match self.pool_op() {
            Some(_) => AggState::Pooled {
                acc: Vec::new(),
                count: 0,
            },
            None => AggState::Union { msgs: Vec::new() },
        }
    }

    fn aggregate(&self, acc: &mut AggState, msg: Vec<f32>) {
        match (self.pool_op(), acc) {
            (Some(op), AggState::Pooled { acc, count }) => pooled_fold(op, acc, count, &msg, 1),
            (None, AggState::Union { msgs }) => msgs.push(msg),
            _ => debug_assert!(false, "aggregate on mismatched AggState"),
        }
    }

    fn merge_agg(&self, acc: &mut AggState, other: AggState) {
        match (self.pool_op(), acc, other) {
            (
                Some(op),
                AggState::Pooled { acc, count },
                AggState::Pooled {
                    acc: other_acc,
                    count: other_count,
                },
            ) => {
                if !other_acc.is_empty() {
                    pooled_fold(op, acc, count, &other_acc, other_count);
                }
            }
            (None, AggState::Union { msgs }, AggState::Union { msgs: other_msgs }) => {
                msgs.extend(other_msgs)
            }
            _ => debug_assert!(false, "merge_agg on mismatched AggState"),
        }
    }

    fn apply_node(&self, node: &NodeCtx<'_>, agg: AggState) -> Vec<f32> {
        let lp = self.lp();
        let params = &self.model.params;
        match lp.kind {
            LayerKind::Gcn => {
                let mut combined = match agg {
                    AggState::Pooled { acc, .. } if !acc.is_empty() => acc,
                    _ => vec![0.0; lp.in_dim],
                };
                let s_in = 1.0 / ((node.in_degree + 1) as f32).sqrt();
                for v in &mut combined {
                    *v *= s_in;
                }
                let s_self = s_in / ((node.out_degree + 1) as f32).sqrt();
                for (c, &x) in combined.iter_mut().zip(node.state) {
                    *c += x * s_self;
                }
                let mut out = params.get(lp.bias).row(0).to_vec();
                matvec_acc(params.get(lp.w), &combined, &mut out);
                lp.act.apply_slice(&mut out);
                out
            }
            LayerKind::Sage(pool) => {
                let aggv = match agg {
                    AggState::Pooled { mut acc, count } => {
                        if acc.is_empty() {
                            vec![0.0; lp.in_dim]
                        } else {
                            if pool == PoolOp::Mean && count > 0 {
                                let inv = 1.0 / count as f32;
                                for v in &mut acc {
                                    *v *= inv;
                                }
                            }
                            acc
                        }
                    }
                    // itlint::allow(panic-in-lib): init_agg and apply_node dispatch on the same LayerView, so the agg variant always matches the layer kind
                    AggState::Union { .. } => unreachable!("SAGE aggregates pooled"),
                };
                let mut out = params.get(lp.bias).row(0).to_vec();
                matvec_acc(
                    // itlint::allow(panic-in-lib): Sage layer constructors always populate w_self
                    params.get(lp.w_self.expect("SAGE has w_self")),
                    node.state,
                    &mut out,
                );
                matvec_acc(params.get(lp.w), &aggv, &mut out);
                lp.act.apply_slice(&mut out);
                out
            }
            LayerKind::Gat { heads } => {
                let msgs = match agg {
                    AggState::Union { msgs } => msgs,
                    // itlint::allow(panic-in-lib): init_agg and apply_node dispatch on the same LayerView, so the agg variant always matches the layer kind
                    AggState::Pooled { .. } => unreachable!("GAT aggregates by union"),
                };
                let w = params.get(lp.w);
                // itlint::allow(panic-in-lib): Gat layer constructors always populate a_src
                let a_src = params.get(lp.a_src.expect("GAT has a_src"));
                // itlint::allow(panic-in-lib): Gat layer constructors always populate a_dst
                let a_dst = params.get(lp.a_dst.expect("GAT has a_dst"));
                let dh = lp.out_dim / heads;

                let mut out = params.get(lp.bias).row(0).to_vec();
                if !msgs.is_empty() {
                    // dst attention from the node's own transformed state
                    let mut wh_self = vec![0.0f32; lp.out_dim];
                    matvec_acc(w, node.state, &mut wh_self);
                    let dst_attn: Vec<f32> = (0..heads)
                        .map(|h| {
                            let lo = h * dh;
                            wh_self[lo..lo + dh]
                                .iter()
                                .zip(&a_dst.row(0)[lo..lo + dh])
                                .map(|(x, a)| x * a)
                                .sum()
                        })
                        .collect();

                    // transformed messages + per-head attention logits
                    let mut whs: Vec<Vec<f32>> = Vec::with_capacity(msgs.len());
                    let mut logits: Vec<f32> = Vec::with_capacity(msgs.len() * heads);
                    for m in &msgs {
                        let mut wh = vec![0.0f32; lp.out_dim];
                        matvec_acc(w, m, &mut wh);
                        for (h, &d_attn) in dst_attn.iter().enumerate() {
                            let lo = h * dh;
                            let src_attn: f32 = wh[lo..lo + dh]
                                .iter()
                                .zip(&a_src.row(0)[lo..lo + dh])
                                .map(|(x, a)| x * a)
                                .sum();
                            let e = src_attn + d_attn;
                            logits.push(if e >= 0.0 { e } else { GAT_LEAKY_SLOPE * e });
                        }
                        whs.push(wh);
                    }

                    // per-head softmax over in-messages, then weighted sum
                    for h in 0..heads {
                        let mut max = f32::NEG_INFINITY;
                        for i in 0..msgs.len() {
                            max = max.max(logits[i * heads + h]);
                        }
                        let mut denom = 0.0f32;
                        for i in 0..msgs.len() {
                            denom += (logits[i * heads + h] - max).exp();
                        }
                        let lo = h * dh;
                        for (i, wh) in whs.iter().enumerate() {
                            let alpha = (logits[i * heads + h] - max).exp() / denom;
                            for k in 0..dh {
                                out[lo + k] += alpha * wh[lo + k];
                            }
                        }
                    }
                }
                lp.act.apply_slice(&mut out);
                out
            }
        }
    }

    fn apply_edge(&self, state: &[f32], edge: &EdgeCtx<'_>) -> Vec<f32> {
        match self.lp().kind {
            LayerKind::Gcn => {
                let s = 1.0 / ((edge.src_out_degree + 1) as f32).sqrt();
                state.iter().map(|&x| x * s).collect()
            }
            // SAGE and GAT ship the raw embedding; edge features are
            // reserved for future layer variants (EdgeCtx keeps the slot).
            LayerKind::Sage(_) | LayerKind::Gat { .. } => state.to_vec(),
        }
    }

    fn flops_apply_node(&self, n_messages: usize) -> f64 {
        let lp = self.lp();
        let (din, dout) = (lp.in_dim as f64, lp.out_dim as f64);
        match lp.kind {
            LayerKind::Gcn => 2.0 * din * dout + 3.0 * din,
            LayerKind::Sage(_) => 4.0 * din * dout + din,
            LayerKind::Gat { heads } => {
                let per_msg = 2.0 * din * dout + 2.0 * dout + 4.0 * heads as f64;
                n_messages as f64 * per_msg + 2.0 * din * dout + 2.0 * dout
            }
        }
    }

    fn flops_aggregate_per_message(&self) -> f64 {
        self.lp().in_dim as f64
    }

    fn flops_apply_edge(&self) -> f64 {
        self.lp().in_dim as f64
    }
}

/// Fused row aggregator for pooled layers: lane-wise sum (sum/mean — the
/// mean divides at `apply_node` using the engine-tracked count) or max,
/// through the 8-wide-unrolled tensor kernels. Bit-identical to
/// [`pooled_fold`]'s non-empty branch, which is what makes the engine's
/// fused scatter-aggregation reproduce a sender-side combiner fold over
/// the same rows exactly.
pub struct PoolRowAggregator {
    pub op: PoolOp,
}

impl FusedAggregator for PoolRowAggregator {
    fn identity(&self) -> f32 {
        match self.op {
            PoolOp::Sum | PoolOp::Mean => 0.0,
            PoolOp::Max => f32::NEG_INFINITY,
        }
    }

    fn accumulate(&self, acc: &mut [f32], row: &[f32]) {
        match self.op {
            PoolOp::Sum | PoolOp::Mean => row_axpy(acc, row, 1.0),
            PoolOp::Max => row_max(acc, row),
        }
    }

    /// All three pool ops are wire-transparent, so the process transport
    /// can ship partial aggregates and fold them child-side: mean is a sum
    /// on this plane (the engine-tracked count divides at `apply_node`),
    /// and sum/max are plain commutative folds.
    fn wire_kind(&self) -> Option<inferturbo_common::rows::AggKind> {
        match self.op {
            PoolOp::Sum | PoolOp::Mean => Some(inferturbo_common::rows::AggKind::Sum),
            PoolOp::Max => Some(inferturbo_common::rows::AggKind::Max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sage_model() -> GnnModel {
        GnnModel::sage(4, 6, 2, 3, false, PoolOp::Mean, 11)
    }

    #[test]
    fn annotations_follow_the_rule() {
        let sage = sage_model();
        assert!(sage.layer_view(0).annotations().partial_gather);
        let gat = GnnModel::gat(4, 6, 2, 1, 3, false, 1);
        assert!(!gat.layer_view(0).annotations().partial_gather);
        let gcn = GnnModel::gcn(4, 6, 1, 3, false, 2);
        assert!(gcn.layer_view(0).annotations().partial_gather);
    }

    #[test]
    fn sage_mean_aggregation_matches_hand_computation() {
        let m = sage_model();
        let layer = m.layer_view(0);
        let mut agg = layer.init_agg();
        layer.aggregate(&mut agg, vec![1.0, 2.0, 3.0, 4.0]);
        layer.aggregate(&mut agg, vec![3.0, 2.0, 1.0, 0.0]);
        let node = NodeCtx {
            id: 0,
            state: &[0.5, -0.5, 0.25, 0.0],
            in_degree: 2,
            out_degree: 1,
        };
        let out = layer.apply_node(&node, agg);
        // hand-compute: mean = [2,2,2,2]
        let w_self = m.params.get(m.layers[0].w_self.unwrap());
        let w_nb = m.params.get(m.layers[0].w);
        let b = m.params.get(m.layers[0].bias);
        let mut want = b.row(0).to_vec();
        matvec_acc(w_self, node.state, &mut want);
        matvec_acc(w_nb, &[2.0, 2.0, 2.0, 2.0], &mut want);
        for v in &mut want {
            *v = v.max(0.0);
        }
        assert_eq!(out, want);
    }

    #[test]
    fn partial_merge_equals_sequential_aggregation() {
        let m = sage_model();
        let layer = m.layer_view(0);
        let msgs: Vec<Vec<f32>> = (0..6)
            .map(|i| (0..4).map(|j| ((i * 4 + j) as f32 * 0.37).sin()).collect())
            .collect();
        // sequential
        let mut seq = layer.init_agg();
        for msg in &msgs {
            layer.aggregate(&mut seq, msg.clone());
        }
        // split into two partials and merge
        let mut p1 = layer.init_agg();
        let mut p2 = layer.init_agg();
        for msg in &msgs[..3] {
            layer.aggregate(&mut p1, msg.clone());
        }
        for msg in &msgs[3..] {
            layer.aggregate(&mut p2, msg.clone());
        }
        layer.merge_agg(&mut p1, p2);
        match (&seq, &p1) {
            (AggState::Pooled { acc: a, count: c }, AggState::Pooled { acc: b, count: c2 }) => {
                assert_eq!(c, c2);
                for (x, y) in a.iter().zip(b) {
                    assert!((x - y).abs() < 1e-5);
                }
            }
            _ => panic!("expected pooled"),
        }
    }

    #[test]
    fn empty_aggregate_yields_bias_activation_for_gat() {
        let m = GnnModel::gat(4, 6, 2, 1, 3, false, 5);
        let layer = m.layer_view(0);
        let node = NodeCtx {
            id: 9,
            state: &[1.0, 1.0, 1.0, 1.0],
            in_degree: 0,
            out_degree: 0,
        };
        let out = layer.apply_node(&node, layer.init_agg());
        let mut want = m.params.get(m.layers[0].bias).row(0).to_vec();
        m.layers[0].act.apply_slice(&mut want);
        assert_eq!(out, want);
    }

    #[test]
    fn gat_attention_weights_sum_to_one_effect() {
        // With two identical messages, attention must average them —
        // i.e. the output equals the single-message output.
        let m = GnnModel::gat(4, 8, 2, 1, 3, false, 6);
        let layer = m.layer_view(0);
        let node = NodeCtx {
            id: 0,
            state: &[0.2, -0.1, 0.4, 0.3],
            in_degree: 2,
            out_degree: 0,
        };
        let msg = vec![0.7, -0.3, 0.9, 0.1];
        let mut one = layer.init_agg();
        layer.aggregate(&mut one, msg.clone());
        let out_one = layer.apply_node(&node, one);
        let mut two = layer.init_agg();
        layer.aggregate(&mut two, msg.clone());
        layer.aggregate(&mut two, msg.clone());
        let out_two = layer.apply_node(&node, two);
        for (a, b) in out_one.iter().zip(&out_two) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn gcn_edge_normalisation() {
        let m = GnnModel::gcn(2, 2, 1, 2, false, 3);
        let layer = m.layer_view(0);
        let msg = layer.apply_edge(
            &[2.0, 4.0],
            &EdgeCtx {
                src_out_degree: 3,
                edge_feat: &[],
            },
        );
        assert_eq!(msg, vec![1.0, 2.0]); // 1/sqrt(4) = 0.5
    }

    #[test]
    fn gather_wire_resolves_refs() {
        let m = sage_model();
        let layer = m.layer_view(0);
        let payload = GnnMessage::Payload(vec![1.0, 2.0, 3.0, 4.0]);
        let lookup = move |src: u64| {
            if src == 42 {
                Some(payload.clone())
            } else {
                None
            }
        };
        let mut agg = layer.init_agg();
        layer
            .gather_wire(&mut agg, GnnMessage::Ref(42), &lookup)
            .unwrap();
        assert_eq!(agg.count(), 1);
        let err = layer
            .gather_wire(&mut agg, GnnMessage::Ref(99), &lookup)
            .unwrap_err();
        assert!(err.to_string().contains("dangling"));
    }
}
