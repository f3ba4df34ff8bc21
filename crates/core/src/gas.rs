//! The InferTurbo GAS-like abstraction (paper §IV-B).
//!
//! A GNN layer is described by five stages. Two are **data flow** and are
//! built into the backends, exactly as the paper prescribes:
//!
//! - `gather_nbrs` — receive messages via in-edges and vectorise them;
//! - `scatter_nbrs` — send messages via out-edges.
//!
//! Three are **computation flow** and are implemented per layer through the
//! [`GasLayer`] trait:
//!
//! - `aggregate` — pre-reduce incoming messages. The paper's rule: the
//!   computation placed here must obey the commutative and associative
//!   laws (sum/mean/max/min/union); anything else belongs in `apply_node`.
//!   The [`LayerAnnotations::partial_gather`] flag is the machine-readable
//!   form of the `@Gather(partial=...)` decorator, and it is what licenses
//!   sender-side combining (the partial-gather strategy).
//! - `apply_node` — update the node state from its previous state and the
//!   gathered aggregate.
//! - `apply_edge` — turn the updated state (+ edge features) into the
//!   message for an out-edge.
//!
//! Per-edge messages travel as fixed-width `f32` rows on the engines'
//! columnar plane. [`GnnMessage`] is the typed envelope for the one GNN
//! payload that does not: a hub's broadcast payload and the per-edge
//! references to it (the large-out-degree strategy).

use inferturbo_common::codec::{Decode, Encode, WireReader, WireWriter};
use inferturbo_common::{Error, Result};

/// Machine-readable layer annotations — the paper's decorator metadata,
/// persisted into model signatures so inference needs no manual config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerAnnotations {
    /// `@Gather(partial=true)`: `aggregate` is commutative + associative,
    /// so partial aggregates may be computed sender-side and merged in any
    /// grouping.
    pub partial_gather: bool,
    /// All out-edges of a node carry an identical message (no edge-feature
    /// mixing), so the broadcast strategy applies.
    pub uniform_message: bool,
    /// Input embedding width.
    pub in_dim: usize,
    /// Output embedding width.
    pub out_dim: usize,
    /// Message width on the wire.
    pub msg_dim: usize,
}

/// Node-side context available to `apply_node`.
///
/// Degrees are **logical** (whole-graph) degrees: graph transforms such as
/// shadow-nodes change a node's physical adjacency but must not change its
/// mathematics, so normalisations read these fields, never the physical
/// edge lists.
#[derive(Debug)]
pub struct NodeCtx<'a> {
    pub id: u64,
    /// Current (pre-update) embedding of the node.
    pub state: &'a [f32],
    pub in_degree: u32,
    pub out_degree: u32,
}

/// Edge-side context available to `apply_edge`.
#[derive(Debug)]
pub struct EdgeCtx<'a> {
    /// Logical out-degree of the message's source node (GCN normalisation).
    pub src_out_degree: u32,
    /// Edge features; empty slice when the graph carries none.
    pub edge_feat: &'a [f32],
}

/// Gather-stage accumulator.
#[derive(Debug, Clone, PartialEq)]
pub enum AggState {
    /// Element-wise pooled aggregate. `acc` empty means "identity element"
    /// (no message folded yet); `count` tracks contributions for mean
    /// normalisation. Sum/mean/max all share this shape — the layer's
    /// `merge_agg` knows which fold applies.
    Pooled { acc: Vec<f32>, count: u32 },
    /// Unreduced union of raw messages (layers whose reduce breaks the
    /// commutative/associative rule, e.g. GAT attention).
    Union { msgs: Vec<Vec<f32>> },
}

impl AggState {
    /// Number of messages folded into this aggregate.
    pub fn count(&self) -> u32 {
        match self {
            AggState::Pooled { count, .. } => *count,
            AggState::Union { msgs } => msgs.len() as u32,
        }
    }
}

/// A GNN layer's computation flow in the GAS abstraction. One
/// implementation serves both backends; the training path shares the same
/// parameters through the tape builders in [`crate::models`].
pub trait GasLayer {
    fn annotations(&self) -> LayerAnnotations;

    /// The identity aggregate.
    fn init_agg(&self) -> AggState;

    /// Fold one raw message (an `apply_edge` output) into the aggregate.
    fn aggregate(&self, acc: &mut AggState, msg: Vec<f32>);

    /// Merge a partial aggregate produced elsewhere (sender-side combining
    /// or another worker). Only called when `partial_gather` is annotated.
    fn merge_agg(&self, acc: &mut AggState, other: AggState);

    /// Update the node embedding from its previous state and the gathered
    /// aggregate.
    fn apply_node(&self, node: &NodeCtx<'_>, agg: AggState) -> Vec<f32>;

    /// Produce the message sent along one out-edge from the updated state.
    fn apply_edge(&self, state: &[f32], edge: &EdgeCtx<'_>) -> Vec<f32>;

    /// Cost-model estimate: FLOPs for one `apply_node` given the number of
    /// gathered messages.
    fn flops_apply_node(&self, n_messages: usize) -> f64;

    /// Cost-model estimate: FLOPs to fold one message in `aggregate`.
    fn flops_aggregate_per_message(&self) -> f64;

    /// Cost-model estimate: FLOPs for one `apply_edge`.
    fn flops_apply_edge(&self) -> f64;
}

/// Typed wire envelope for the broadcast strategy: a hub publishes one
/// [`GnnMessage::Payload`] per worker and sends one [`GnnMessage::Ref`]
/// per out-edge. Every other GNN message is a columnar row.
#[derive(Debug, Clone, PartialEq)]
pub enum GnnMessage {
    /// A hub's raw `apply_edge` output, published to every worker's
    /// broadcast table. Gather folds it like one columnar row.
    Payload(Vec<f32>),
    /// Reference to the broadcast payload published by the vertex with
    /// this wire id.
    Ref(u64),
}

const TAG_PAYLOAD: u8 = 2;
const TAG_REF: u8 = 3;

impl Encode for GnnMessage {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            GnnMessage::Payload(v) => {
                w.put_u8(TAG_PAYLOAD);
                w.put_f32_slice(v);
            }
            GnnMessage::Ref(src) => {
                w.put_u8(TAG_REF);
                w.put_varint(*src);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        use inferturbo_common::codec::varint_len;
        match self {
            GnnMessage::Payload(v) => 1 + varint_len(v.len() as u64) + v.len() * 4,
            GnnMessage::Ref(src) => 1 + varint_len(*src),
        }
    }
}

impl Decode for GnnMessage {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        match r.get_u8()? {
            TAG_PAYLOAD => Ok(GnnMessage::Payload(r.get_f32_vec()?)),
            TAG_REF => Ok(GnnMessage::Ref(r.get_varint()?)),
            tag => Err(Error::Codec(format!("unknown GnnMessage tag {tag}"))),
        }
    }
}

/// Element-wise fold used by pooled aggregates; shared by layer impls and
/// the fused row aggregator so the two can never disagree. The folds go
/// through the 8-wide-unrolled row kernels (`row_axpy` / `row_max`), which
/// are bit-identical to the scalar loops — lanes are independent.
pub fn pooled_fold(
    op: crate::models::PoolOp,
    acc: &mut Vec<f32>,
    count: &mut u32,
    msg: &[f32],
    msg_count: u32,
) {
    use crate::models::PoolOp;
    if acc.is_empty() {
        acc.extend_from_slice(msg);
        *count = msg_count;
        return;
    }
    debug_assert_eq!(acc.len(), msg.len(), "pooled fold width mismatch");
    match op {
        PoolOp::Sum | PoolOp::Mean => inferturbo_tensor::row_axpy(acc, msg, 1.0),
        PoolOp::Max => inferturbo_tensor::row_max(acc, msg),
    }
    *count += msg_count;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::PoolOp;
    use proptest::prelude::*;

    #[test]
    fn message_roundtrip() {
        let msgs = vec![
            GnnMessage::Payload(vec![1.0, -2.5]),
            GnnMessage::Payload(vec![0.5; 9]),
            GnnMessage::Ref(u64::MAX),
            GnnMessage::Ref(0),
            GnnMessage::Payload(vec![]),
        ];
        for m in msgs {
            let bytes = m.to_bytes();
            assert_eq!(bytes.len(), m.encoded_len(), "encoded_len exact for {m:?}");
            assert_eq!(GnnMessage::from_bytes(&bytes).unwrap(), m);
        }
    }

    #[test]
    fn message_decode_rejects_garbage() {
        assert!(GnnMessage::from_bytes(&[9, 1, 2]).is_err());
        assert!(GnnMessage::from_bytes(&[]).is_err());
    }

    #[test]
    fn ref_is_tiny_on_the_wire() {
        // tag + length varint + 64 lanes; tag + 3-byte id varint.
        let payload = GnnMessage::Payload(vec![0.0; 64]);
        assert_eq!(payload.encoded_len(), 1 + 1 + 64 * 4);
        let r = GnnMessage::Ref(123456);
        assert_eq!(r.encoded_len(), 1 + 3);
        assert!(r.encoded_len() * 10 < payload.encoded_len());
    }

    #[test]
    fn pooled_fold_sum_and_max() {
        let (mut acc, mut count) = (vec![], 0u32);
        pooled_fold(PoolOp::Sum, &mut acc, &mut count, &[1.0, 2.0], 1);
        pooled_fold(PoolOp::Sum, &mut acc, &mut count, &[3.0, -1.0], 2);
        assert_eq!(acc, vec![4.0, 1.0]);
        assert_eq!(count, 3);

        let (mut acc, mut count) = (vec![], 0u32);
        pooled_fold(PoolOp::Max, &mut acc, &mut count, &[1.0, 5.0], 1);
        pooled_fold(PoolOp::Max, &mut acc, &mut count, &[3.0, -1.0], 1);
        assert_eq!(acc, vec![3.0, 5.0]);
        assert_eq!(count, 2);
    }

    proptest! {
        /// The annotation contract: pooled folds must be commutative and
        /// associative up to float tolerance — fold order must not change
        /// the aggregate materially.
        #[test]
        fn prop_pooled_fold_order_independent(
            msgs in proptest::collection::vec(
                proptest::collection::vec(-10.0f32..10.0, 4), 1..8),
            op_sel in 0u8..3,
        ) {
            let op = match op_sel { 0 => PoolOp::Sum, 1 => PoolOp::Mean, _ => PoolOp::Max };
            let fold_all = |order: &[usize]| {
                let (mut acc, mut count) = (vec![], 0u32);
                for &i in order {
                    pooled_fold(op, &mut acc, &mut count, &msgs[i], 1);
                }
                (acc, count)
            };
            let fwd: Vec<usize> = (0..msgs.len()).collect();
            let rev: Vec<usize> = (0..msgs.len()).rev().collect();
            let (a1, c1) = fold_all(&fwd);
            let (a2, c2) = fold_all(&rev);
            prop_assert_eq!(c1, c2);
            for (x, y) in a1.iter().zip(&a2) {
                prop_assert!((x - y).abs() < 1e-4, "fold order changed result: {} vs {}", x, y);
            }
        }

        #[test]
        fn prop_message_roundtrip(v in proptest::collection::vec(-1e3f32..1e3, 0..64), src in 0u64..u64::MAX) {
            for m in [GnnMessage::Payload(v.clone()), GnnMessage::Ref(src)] {
                let bytes = m.to_bytes();
                prop_assert_eq!(bytes.len(), m.encoded_len());
                prop_assert_eq!(GnnMessage::from_bytes(&bytes).unwrap(), m);
            }
        }
    }
}
