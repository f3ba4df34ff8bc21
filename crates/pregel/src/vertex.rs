//! Vertex-program traits and the per-compute outbox.
//!
//! Two message planes are available to a program (see the engine docs for
//! the full contract):
//!
//! - the **legacy typed plane**: `P::Msg` values sent with [`Outbox::send`]
//!   — arbitrary encodable payloads, one heap object per message;
//! - the **columnar plane**: fixed-width `f32` rows sent with
//!   [`Outbox::send_row`], available whenever the program declares a
//!   [`MessageLayout`] for the step. Rows travel through flat buffers with
//!   no per-message allocation, and — when the step also provides a
//!   [`FusedAggregator`] — are folded into per-destination accumulator
//!   rows at the sender (fused scatter-aggregation).

use inferturbo_common::codec::{Decode, Encode};
pub use inferturbo_common::rows::{FusedAggregator, MessageLayout};

/// Sender-side message combiner: folds messages heading to the same
/// destination vertex, Pregel-style. The fold must be commutative and
/// associative — the engine applies it in arbitrary grouping, and the
/// paper's annotation rule exists precisely to license this.
pub trait Combiner<M>: Send + Sync {
    /// Try to fold `msg` into `acc`.
    ///
    /// Return `None` when `msg` was absorbed. Return `Some(overflow)` when
    /// the pair cannot be combined (e.g. a broadcast reference meeting a
    /// partial aggregate); the engine delivers the overflow message
    /// separately. Implementations may swap contents so that `acc` ends up
    /// holding the combinable variant.
    fn combine(&self, acc: &mut M, msg: M) -> Option<M>;
}

/// Controls which vertices run `compute` each superstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivationPolicy {
    /// Classic Pregel: a vertex runs at superstep 0 and thereafter only
    /// when it has incoming messages.
    MessageDriven,
    /// Every vertex runs every superstep — the layer-wise GNN pattern,
    /// where `apply_node` must fire even for nodes without in-edges.
    AlwaysActive,
}

/// The columnar half of a vertex's inbox, handed to
/// [`VertexProgram::compute_columnar`]. Legacy-plane messages (broadcast
/// refs, control payloads) arrive separately through the `messages`
/// argument regardless of which variant this is.
#[derive(Debug, Clone, Copy)]
pub enum RowsIn<'a> {
    /// No columnar plane was active for the messages feeding this step.
    None,
    /// Materialized rows in delivery order (ascending sender, emission
    /// order within a sender): `data.len() / dim` rows, flat.
    Rows { dim: usize, data: &'a [f32] },
    /// Fused accumulator row: `count` raw messages were folded into `acc`
    /// across the scatter and the barrier merge. `count == 0` means no
    /// messages arrived (and `acc` holds only the aggregator's identity,
    /// or is empty for slots created after the merge).
    Fused {
        dim: usize,
        acc: &'a [f32],
        count: u32,
    },
}

impl RowsIn<'_> {
    /// Number of raw messages represented by this inbox half.
    pub fn count(&self) -> usize {
        match self {
            RowsIn::None => 0,
            RowsIn::Rows { dim, data } => {
                if *dim == 0 {
                    0
                } else {
                    data.len() / dim
                }
            }
            RowsIn::Fused { count, .. } => *count as usize,
        }
    }
}

/// Per-compute output collector handed to [`VertexProgram::compute`].
/// One instance is reused across a worker's whole superstep — cleared
/// between vertices, capacity retained — so steady-state sends allocate
/// nothing.
pub struct Outbox<M> {
    pub(crate) messages: Vec<(u64, M)>,
    pub(crate) broadcasts: Vec<M>,
    /// Columnar plane: destination ids plus a flat row spool, `row_dim`
    /// floats per destination. `row_dim` is `None` when the step has no
    /// active [`MessageLayout`].
    pub(crate) row_dsts: Vec<u64>,
    pub(crate) rows: Vec<f32>,
    pub(crate) row_dim: Option<usize>,
    pub(crate) flops: f64,
    /// First misuse of the row plane this compute (send_row without an
    /// active layout, or with the wrong width). Deferred rather than
    /// panicking: the engine surfaces it as a typed
    /// [`inferturbo_common::Error::InvalidConfig`] after the compute call.
    pub(crate) layout_error: Option<String>,
}

impl<M> Outbox<M> {
    pub(crate) fn new(row_dim: Option<usize>) -> Self {
        Outbox {
            messages: Vec::new(),
            broadcasts: Vec::new(),
            row_dsts: Vec::new(),
            rows: Vec::new(),
            row_dim,
            flops: 0.0,
            layout_error: None,
        }
    }

    /// Reset for the next vertex, keeping buffer capacity.
    pub(crate) fn clear(&mut self) {
        self.messages.clear();
        self.broadcasts.clear();
        self.row_dsts.clear();
        self.rows.clear();
        self.flops = 0.0;
        self.layout_error = None;
    }

    /// Take the deferred row-plane misuse recorded by [`Outbox::send_row`],
    /// if any. The engine calls this after every compute.
    pub(crate) fn take_layout_error(&mut self) -> Option<String> {
        self.layout_error.take()
    }

    /// Reset for a new superstep (scratch-pool reuse): clear everything and
    /// adopt the step's row plane. Capacity survives across supersteps —
    /// and, when the outbox lives in a pooled [`crate::ScratchPool`],
    /// across whole runs.
    pub(crate) fn reset(&mut self, row_dim: Option<usize>) {
        self.clear();
        self.row_dim = row_dim;
    }

    /// Send `msg` to vertex `dst` for delivery next superstep (legacy
    /// typed plane).
    pub fn send(&mut self, dst: u64, msg: M) {
        self.messages.push((dst, msg));
    }

    /// Row width of the active columnar plane for this step, or `None`
    /// when the program declared no [`MessageLayout`] for the step. A
    /// program that declares layouts conditionally branches on this to
    /// pick between [`Outbox::send_row`] and the legacy [`Outbox::send`].
    pub fn row_dim(&self) -> Option<usize> {
        self.row_dim
    }

    /// Send a fixed-width row to vertex `dst` on the columnar plane. The
    /// row is spooled into a flat buffer — no per-message allocation — and
    /// either scattered to the destination's row arena or, when the step
    /// has a [`FusedAggregator`], folded into the destination's
    /// accumulator row at the sender.
    ///
    /// Calling this with no active layout for the step (check
    /// [`Outbox::row_dim`]), or with a row of the wrong width, drops the
    /// row and fails the superstep with a typed
    /// [`inferturbo_common::Error::InvalidConfig`] — a program bug is a
    /// configuration error the harness observes, not a worker panic.
    pub fn send_row(&mut self, dst: u64, row: &[f32]) {
        let Some(dim) = self.row_dim else {
            if self.layout_error.is_none() {
                self.layout_error = Some(format!(
                    "send_row to vertex {dst} without an active message layout for this step"
                ));
            }
            return;
        };
        if row.len() != dim {
            if self.layout_error.is_none() {
                self.layout_error = Some(format!(
                    "send_row to vertex {dst}: row has {} lanes, layout declares {dim}",
                    row.len()
                ));
            }
            return;
        }
        self.row_dsts.push(dst);
        self.rows.extend_from_slice(row);
    }

    /// Publish a payload to every worker's broadcast table for the next
    /// superstep, keyed by the sending vertex id. Costs one network copy
    /// per remote worker instead of one per out-edge — the engine-level
    /// primitive behind the paper's broadcast strategy.
    pub fn broadcast(&mut self, payload: M) {
        self.broadcasts.push(payload);
    }

    /// Report floating-point work done by this compute call; feeds the
    /// cost model.
    pub fn add_flops(&mut self, flops: f64) {
        self.flops += flops;
    }
}

/// A vertex program: per-vertex state, a message type, and the superstep
/// kernel.
pub trait VertexProgram {
    /// Per-vertex state held in worker memory between supersteps.
    type State;
    /// Message type; must round-trip the wire codec so byte accounting is
    /// exact and serialized-delivery tests can verify framing.
    type Msg: Encode + Decode + Clone;

    /// The superstep kernel for one vertex (legacy plane only).
    ///
    /// `broadcast_lookup` resolves a broadcast payload published last
    /// superstep by vertex `src` (on any worker), if one exists.
    fn compute(
        &self,
        step: usize,
        vertex: u64,
        state: &mut Self::State,
        messages: Vec<Self::Msg>,
        broadcast_lookup: &dyn Fn(u64) -> Option<Self::Msg>,
        out: &mut Outbox<Self::Msg>,
    );

    /// The superstep kernel for one vertex with a columnar inbox. This is
    /// what the engine actually invokes; the default forwards to
    /// [`VertexProgram::compute`], so programs that never declare a
    /// [`MessageLayout`] implement only the legacy kernel. Programs that
    /// do declare layouts must override this and read both `rows` and the
    /// legacy `messages`.
    #[allow(clippy::too_many_arguments)]
    fn compute_columnar(
        &self,
        step: usize,
        vertex: u64,
        state: &mut Self::State,
        rows: RowsIn<'_>,
        messages: Vec<Self::Msg>,
        broadcast_lookup: &dyn Fn(u64) -> Option<Self::Msg>,
        out: &mut Outbox<Self::Msg>,
    ) {
        debug_assert!(
            matches!(rows, RowsIn::None),
            "program declared a message layout but did not override compute_columnar"
        );
        self.compute(step, vertex, state, messages, broadcast_lookup, out);
    }

    /// Declare that messages emitted during superstep `step` are
    /// fixed-width `f32` rows. Returning `Some` routes that step's
    /// [`Outbox::send_row`] traffic through the columnar plane; the legacy
    /// plane stays available for variable-width messages in the same step.
    fn message_layout(&self, _step: usize) -> Option<MessageLayout> {
        None
    }

    /// Optional fused aggregator for rows emitted during superstep `step`
    /// (only consulted when [`VertexProgram::message_layout`] is `Some`).
    /// Providing one licenses the engine to fold rows into
    /// per-destination accumulator rows at the sender and merge them at
    /// the barrier — legal exactly when the fold is commutative and
    /// associative, the paper's `@Gather(partial=...)` annotation rule.
    fn fused_aggregator(&self, _step: usize) -> Option<&dyn FusedAggregator> {
        None
    }

    /// Optional sender-side combiner for legacy-plane messages emitted
    /// during superstep `step` (layer-wise programs switch combiners per
    /// step: a layer whose aggregate is not commutative/associative must
    /// return `None` for the step that feeds it).
    fn combiner(&self, _step: usize) -> Option<&dyn Combiner<Self::Msg>> {
        None
    }

    /// Resident size of a vertex state in bytes, for the memory model.
    /// The default charges nothing; GNN states override this.
    fn state_bytes(&self, _state: &Self::State) -> u64 {
        0
    }
}
