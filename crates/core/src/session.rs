//! The session API: **plan once, run many** full-graph inference.
//!
//! The paper's pipeline is explicitly staged — load and transform the
//! graph (hub classification, shadow-node mirroring), pick a backend
//! (Pregel while state fits in memory, MapReduce when it does not), then
//! run layer-as-superstep inference. This module exposes those stages as
//! a three-step API instead of one-shot free functions that re-derive
//! everything per call:
//!
//! ```text
//! InferenceSession::builder()          // 1. configure
//!     .model(&model).graph(&graph)
//!     .workers(8)
//!     .strategy(StrategyConfig::all())
//!     .backend(Backend::Auto)
//!     .plan()?                         // 2. plan: one-time work
//!     .run()?                          // 3. execute (repeatable)
//! ```
//!
//! # Pipeline stages
//!
//! 1. **Configure** ([`SessionBuilder`]): model, graph, strategy toggles,
//!    cluster shapes, backend request, memory budget.
//! 2. **Plan** ([`SessionBuilder::plan`] → [`InferencePlan`]): builds the
//!    loadable node records (shadow mirrors applied, hub threshold
//!    resolved), predicts per-layer shuffle bytes and peak per-worker
//!    memory for both backends
//!    ([`PlanEstimate`](inferturbo_cluster::PlanEstimate)), and — for
//!    [`Backend::Auto`] — picks the backend by comparing the predicted
//!    Pregel residency against the memory budget (the paper's §IV-A
//!    trade-off, encoded instead of hand-chosen). The plan also owns the
//!    pooled per-worker engine scratch, so repeated runs stop paying the
//!    per-superstep O(workers·V) slot-index allocations.
//! 3. **Execute** ([`InferencePlan::run`] /
//!    [`InferencePlan::run_with_features`]): the layer-as-superstep run
//!    itself, returning an [`InferenceOutput`](crate::InferenceOutput).
//!
//! # Determinism contract
//!
//! Planning is pure: the same configuration always produces the same
//! plan. Execution inherits the engines' determinism guarantees and adds
//! the session's own:
//!
//! - repeated [`InferencePlan::run`] calls on one plan are **bit-identical**
//!   to each other and to the one-shot wrapper functions
//!   ([`infer_pregel`](crate::infer_pregel),
//!   [`infer_mapreduce`](crate::infer_mapreduce),
//!   [`infer_reference`](crate::infer_reference)) for the same
//!   configuration — pooled scratch and pre-built records are observably
//!   invisible;
//! - results are independent of the thread budget
//!   ([`Parallelism`](inferturbo_common::Parallelism)), per the
//!   workspace-wide contract in `inferturbo_common::par`;
//! - [`InferencePlan::run_with_features`] over the graph's own features
//!   is bit-identical to [`InferencePlan::run`].
//!
//! The suites `tests/session_plan.rs` and the equivalence tests in
//! `crate::infer` enforce all three.
//!
//! # Out-of-core spilling
//!
//! [`SessionBuilder::spill_budget`] (with an optional
//! [`SessionBuilder::spill_dir`]) puts the Pregel backend's columnar
//! inter-superstep inboxes under a per-worker byte budget: inbox rows
//! beyond it page to disk at the seal barrier and stream back through a
//! bounded window at apply time (see the spill contract in
//! `inferturbo_common::rows`). The knob changes the *residency model
//! only* — the plan's [`PlanEstimate`](inferturbo_cluster::PlanEstimate)
//! counts the resident window toward
//! `pregel_peak_worker_bytes` and reports the paged remainder on the
//! separate `pregel_spilled_worker_bytes` plane, so [`Backend::Auto`] can
//! keep a graph on the fast Pregel backend that would otherwise be forced
//! onto the MapReduce fallback. Results are bit-identical with or without
//! a spill budget, for every budget value and thread count (enforced by
//! the spill sections of `tests/parallel_matches_serial.rs` and
//! `tests/columnar_fused.rs`).

use crate::models::GnnModel;
use crate::plan::InferencePlan;
use crate::strategy::StrategyConfig;
use inferturbo_cluster::{ClusterSpec, FaultPlan, RecoveryPolicy, Transport};
use inferturbo_common::rows::SpillPolicy;
use inferturbo_common::{Error, Result};
use inferturbo_graph::Graph;
use inferturbo_obs::TraceHandle;
use std::path::PathBuf;

/// Which execution backend a session runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Decide at plan time: Pregel when the predicted peak per-worker
    /// residency fits the memory budget, MapReduce otherwise (the paper's
    /// §IV-A trade-off).
    Auto,
    /// The Pregel backend: state resident in worker memory, one superstep
    /// per layer. Fast, memory-hungry, reserved workers.
    Pregel,
    /// The MapReduce backend: nothing resident between rounds, everything
    /// travels through the shuffle. Slower, elastic, survives tiny
    /// workers.
    MapReduce,
    /// The single-machine reference loop (ground truth for equivalence
    /// tests; no cluster simulation, empty report).
    Reference,
}

/// Entry point of the session API. See the module docs for the pipeline.
pub struct InferenceSession;

impl InferenceSession {
    /// Start configuring a session.
    pub fn builder<'a>() -> SessionBuilder<'a> {
        SessionBuilder {
            model: None,
            graph: None,
            workers: 8,
            strategy: StrategyConfig::all(),
            backend: Backend::Auto,
            pregel_spec: None,
            mapreduce_spec: None,
            memory_budget: None,
            spill_dir: None,
            spill_budget: None,
            fault_plan: None,
            recovery: None,
            trace: None,
            transport: None,
        }
    }
}

/// Stage 1 of the pipeline: session configuration. Finish with
/// [`SessionBuilder::plan`].
#[derive(Debug, Clone)]
pub struct SessionBuilder<'a> {
    model: Option<&'a GnnModel>,
    graph: Option<&'a Graph>,
    workers: usize,
    strategy: StrategyConfig,
    backend: Backend,
    pregel_spec: Option<ClusterSpec>,
    mapreduce_spec: Option<ClusterSpec>,
    memory_budget: Option<u64>,
    spill_dir: Option<PathBuf>,
    spill_budget: Option<u64>,
    fault_plan: Option<FaultPlan>,
    recovery: Option<RecoveryPolicy>,
    trace: Option<TraceHandle>,
    transport: Option<std::sync::Arc<dyn Transport>>,
}

impl<'a> SessionBuilder<'a> {
    /// The trained model to run (required).
    pub fn model(mut self, model: &'a GnnModel) -> Self {
        self.model = Some(model);
        self
    }

    /// The graph to infer over (required).
    pub fn graph(mut self, graph: &'a Graph) -> Self {
        self.graph = Some(graph);
        self
    }

    /// Cluster size for the default cluster shapes (default 8). Ignored
    /// for a backend whose spec was set explicitly.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Power-law strategy toggles (default: all on, the production
    /// configuration).
    pub fn strategy(mut self, strategy: StrategyConfig) -> Self {
        self.strategy = strategy;
        self
    }

    /// Backend request (default [`Backend::Auto`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Explicit Pregel cluster shape (default
    /// [`ClusterSpec::pregel_cluster`] at the builder's worker count).
    pub fn pregel_spec(mut self, spec: ClusterSpec) -> Self {
        self.pregel_spec = Some(spec);
        self
    }

    /// Explicit MapReduce cluster shape (default
    /// [`ClusterSpec::mapreduce_cluster`] at the builder's worker count).
    pub fn mapreduce_spec(mut self, spec: ClusterSpec) -> Self {
        self.mapreduce_spec = Some(spec);
        self
    }

    /// Per-worker memory budget [`Backend::Auto`] compares the predicted
    /// Pregel residency against (default: the Pregel spec's memory cap).
    pub fn memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Enable out-of-core spilling of the Pregel backend's columnar
    /// inboxes: each worker keeps at most `bytes` of inbox row data
    /// resident and pages the rest to disk (see the module docs). Bit-wise
    /// results are unaffected; only the residency model changes.
    pub fn spill_budget(mut self, bytes: u64) -> Self {
        self.spill_budget = Some(bytes);
        self
    }

    /// Directory spill files are written to (default: the OS temp dir).
    /// Only meaningful together with [`SessionBuilder::spill_budget`].
    pub fn spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Inject a deterministic fault schedule into the plan's runs (see
    /// [`inferturbo_cluster::fault`]). The schedule is armed **once** at
    /// plan time and its per-site fire budgets are shared across repeated
    /// [`InferencePlan::run`] calls: a fault consumed (or absorbed by
    /// recovery) in one run does not re-fire in the next, modelling a
    /// timeline of cluster events rather than a per-run replay — which is
    /// what makes serve-layer retries meaningful. Setting an explicit
    /// schedule takes ownership of *both* resilience knobs: the session's
    /// [`SessionBuilder::recovery`] (possibly unset, i.e. fail-fast)
    /// replaces the `INFERTURBO_FAULTS` environment auto-arming.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Checkpoint/recovery policy for the Pregel backend: snapshot at the
    /// configured superstep cadence and replay transient failures from the
    /// last checkpoint (see [`RecoveryPolicy`]). A recovered run is
    /// bit-identical to a fault-free run. Unset, recovery auto-arms only
    /// when an `INFERTURBO_FAULTS` schedule is present.
    pub fn recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// Attach a flight-recorder handle (see [`inferturbo_obs`]): the
    /// plan's engines emit structured events at their single-threaded
    /// barriers, byte-identical for every thread budget and across
    /// checkpoint-recovery replays. Unset, the handle is armed from the
    /// `INFERTURBO_TRACE` environment variable (recording when set to a
    /// non-empty value other than `0`, otherwise the zero-cost disabled
    /// sink).
    pub fn trace(mut self, trace: TraceHandle) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Pin the shuffle transport both backends exchange sealed shards
    /// through: [`InProcess`](inferturbo_cluster::InProcess) (the
    /// zero-copy default) or
    /// [`WorkerProcess`](inferturbo_cluster::WorkerProcess) (spawned
    /// worker children over pipes). Every backend is bit-identical —
    /// logits, traces and modelled byte accounting do not depend on this
    /// choice; only `RunReport::wire_bytes` does. Unset, the engines arm
    /// from the `INFERTURBO_TRANSPORT` environment variable.
    pub fn transport(mut self, transport: std::sync::Arc<dyn Transport>) -> Self {
        self.transport = Some(transport);
        self
    }

    /// Stage 2 of the pipeline: validate the configuration and do the
    /// one-time planning work. See [`InferencePlan`] for what the plan
    /// owns and what repeated runs skip.
    pub fn plan(self) -> Result<InferencePlan<'a>> {
        let model = self
            .model
            .ok_or_else(|| Error::InvalidConfig("session needs a model".into()))?;
        let graph = self
            .graph
            .ok_or_else(|| Error::InvalidConfig("session needs a graph".into()))?;
        if graph.node_feat_dim() != model.in_dim() {
            return Err(Error::InvalidConfig(format!(
                "graph features ({}) do not match model input ({})",
                graph.node_feat_dim(),
                model.in_dim()
            )));
        }
        let pregel_spec = self
            .pregel_spec
            .unwrap_or_else(|| ClusterSpec::pregel_cluster(self.workers));
        let mapreduce_spec = self
            .mapreduce_spec
            .unwrap_or_else(|| ClusterSpec::mapreduce_cluster(self.workers));
        // The planning worker count drives the hub threshold and the
        // shadow transform, so it must be the cluster the run actually
        // lands on.
        let workers = match self.backend {
            Backend::Pregel | Backend::Reference => pregel_spec.workers,
            Backend::MapReduce => mapreduce_spec.workers,
            Backend::Auto => {
                if pregel_spec.workers != mapreduce_spec.workers {
                    return Err(Error::InvalidConfig(format!(
                        "Backend::Auto needs matching worker counts to plan \
                         (pregel {}, mapreduce {}); set .workers(..) or force a backend",
                        pregel_spec.workers, mapreduce_spec.workers
                    )));
                }
                pregel_spec.workers
            }
        };
        if workers == 0 {
            return Err(Error::InvalidConfig(
                "cluster needs at least one worker".into(),
            ));
        }
        let memory_budget = self.memory_budget.unwrap_or(pregel_spec.memory_bytes);
        let spill = self.spill_budget.map(|bytes| {
            SpillPolicy::new(self.spill_dir.unwrap_or_else(std::env::temp_dir), bytes)
        });
        InferencePlan::build(
            model,
            graph,
            self.strategy,
            self.backend,
            pregel_spec,
            mapreduce_spec,
            memory_budget,
            spill,
            workers,
            self.fault_plan,
            self.recovery,
            self.trace.unwrap_or_else(inferturbo_obs::arm::from_env),
            self.transport,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::PoolOp;
    use inferturbo_graph::gen::{generate, DegreeSkew, GenConfig};

    fn graph() -> Graph {
        generate(&GenConfig {
            n_nodes: 150,
            n_edges: 900,
            feat_dim: 5,
            classes: 3,
            skew: DegreeSkew::In,
            seed: 9,
            ..GenConfig::default()
        })
    }

    #[test]
    fn builder_rejects_missing_pieces_and_bad_dims() {
        let g = graph();
        let m = GnnModel::sage(5, 8, 2, 3, false, PoolOp::Mean, 1);
        assert!(InferenceSession::builder().graph(&g).plan().is_err());
        assert!(InferenceSession::builder().model(&m).plan().is_err());
        let wrong = GnnModel::sage(7, 8, 2, 3, false, PoolOp::Mean, 1);
        let err = InferenceSession::builder()
            .model(&wrong)
            .graph(&g)
            .plan()
            .unwrap_err();
        assert!(
            err.to_string().contains("do not match model input"),
            "{err}"
        );
    }

    #[test]
    fn auto_rejects_mismatched_worker_counts() {
        let g = graph();
        let m = GnnModel::sage(5, 8, 2, 3, false, PoolOp::Mean, 1);
        let err = InferenceSession::builder()
            .model(&m)
            .graph(&g)
            .pregel_spec(ClusterSpec::pregel_cluster(4))
            .mapreduce_spec(ClusterSpec::mapreduce_cluster(8))
            .plan()
            .unwrap_err();
        assert!(err.to_string().contains("matching worker counts"), "{err}");
    }

    #[test]
    fn auto_picks_pregel_when_it_fits_and_mapreduce_when_not() {
        let g = graph();
        let m = GnnModel::sage(5, 8, 2, 3, false, PoolOp::Mean, 1);
        let fits = InferenceSession::builder()
            .model(&m)
            .graph(&g)
            .workers(4)
            .plan()
            .unwrap();
        assert_eq!(
            fits.backend(),
            Backend::Pregel,
            "10 GB budget fits a toy graph"
        );
        let boundary = fits.estimate().pregel_peak_worker_bytes;
        let squeezed = InferenceSession::builder()
            .model(&m)
            .graph(&g)
            .workers(4)
            .memory_budget(boundary - 1)
            .plan()
            .unwrap();
        assert_eq!(squeezed.backend(), Backend::MapReduce);
        let exact = InferenceSession::builder()
            .model(&m)
            .graph(&g)
            .workers(4)
            .memory_budget(boundary)
            .plan()
            .unwrap();
        assert_eq!(exact.backend(), Backend::Pregel, "budget is inclusive");
    }
}
