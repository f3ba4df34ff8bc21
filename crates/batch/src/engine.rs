//! Phase execution, shuffling, and IO/memory accounting.
//!
//! # Execution model
//!
//! Both phases fork-join across workers under the global
//! [`inferturbo_common::Parallelism`] budget: each worker runs its own
//! kernel instance (built by a per-worker factory, so kernels may hold
//! per-worker mutable state such as a broadcast table) and spools its
//! routed output into worker-local shards. The barrier merges shards into
//! the destination partitions in ascending mapper order — exactly the
//! order the serial loop produced — so results and byte accounting are
//! identical for every thread count. The shuffle's hash partitioning is
//! what makes this safe: each worker *is* a disjoint key range.
//!
//! Grouping inside a reducer is sort-based (stable sort by key, then a
//! single grouped sweep), mirroring external-sort shuffle semantics and
//! preserving arrival order within each key group.
//!
//! # Two planes, one phase body
//!
//! Every phase moves two planes through the same shuffle. The typed
//! (legacy) plane carries keyed records of any encodable type — for GNN
//! inference the self-state, broadcast-table, ref and output records. The
//! columnar plane carries fixed-width `f32` rows through the same columnar
//! buffers the Pregel engine uses ([`inferturbo_common::rows`]): kernels
//! emit rows into a [`RowSink`] (flat spool, no per-record heap object),
//! the shuffle moves them as [`RowBucket`]s of contiguous `memcpy`-able
//! rows, and reducers see each key's rows as one flat [`RowsView`]. When a
//! phase provides a [`FusedAggregator`], emission folds rows into per-key
//! accumulators at the sender (in-mapper fused aggregation — the paper's
//! partial-gather on this backend), shrinking shuffle volume from one row
//! per edge to one partial row per (worker, key). Both planes keep the same
//! ordering discipline — mapper-order concatenation, stable sort by key —
//! so results stay independent of the thread budget.
//!
//! [`BatchEngine::map_phase_rows`] and [`BatchEngine::reduce_phase_rows`]
//! are the phase bodies; [`BatchEngine::map_phase`] and
//! [`BatchEngine::reduce_phase`] are their typed-only forms with no row
//! plane.

use inferturbo_cluster::transport::{
    self, frame::EncodedKeyRecords, BucketRef, ConcatDest, ConcatExchange, Transport,
};
use inferturbo_cluster::{
    ClusterSpec, FaultInjector, FaultPlan, MessagePlaneBytes, RunReport, WorkerPhase,
};
use inferturbo_common::codec::{varint_len, Decode, Encode};
use inferturbo_common::hash::partition_of;
use inferturbo_common::par::{par_map, par_map_workers};
use inferturbo_common::rows::{row_payload_len, FusedAggregator, FusedKeyShard, RowBlock};
use inferturbo_common::{Error, FxHashMap, Result};
use inferturbo_obs::{Payload, RoundKind, Site, TraceHandle};

/// Keyed records routed to their destination worker, waiting to be grouped
/// by the next phase. Byte sizes were charged to the *producing* phase as
/// output; the consuming phase charges them as input.
pub struct KeyedData<V> {
    per_worker: Vec<Vec<(u64, V)>>,
    pending_bytes: Vec<u64>,
}

impl<V> std::fmt::Debug for KeyedData<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyedData")
            .field("records", &self.len())
            .field("workers", &self.per_worker.len())
            .field("pending_bytes", &self.pending_bytes.iter().sum::<u64>())
            .finish()
    }
}

impl<V> KeyedData<V> {
    /// Total records across all workers.
    pub fn len(&self) -> usize {
        self.per_worker.iter().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records destined for `worker`.
    pub fn worker_records(&self, worker: usize) -> &[(u64, V)] {
        &self.per_worker[worker]
    }

    /// Consume into the final per-key map (used after the last round to
    /// read out results). Keys are unique only if the last phase emitted
    /// them uniquely — GNN pipelines do.
    pub fn into_map(self) -> FxHashMap<u64, V> {
        let mut out = FxHashMap::default();
        for bucket in self.per_worker {
            for (k, v) in bucket {
                out.insert(k, v);
            }
        }
        out
    }
}

/// One destination worker's columnar shuffle partition: keyed fixed-width
/// rows in flat storage. `counts[i]` is the number of raw messages folded
/// into row `i` (1 unless the producing phase fused).
#[derive(Debug, Clone)]
pub struct RowBucket {
    keys: Vec<u64>,
    counts: Vec<u32>,
    rows: RowBlock,
}

impl RowBucket {
    fn new(dim: usize) -> Self {
        RowBucket {
            keys: Vec::new(),
            counts: Vec::new(),
            rows: RowBlock::new(dim),
        }
    }

    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    fn push(&mut self, key: u64, count: u32, row: &[f32]) {
        self.keys.push(key);
        self.counts.push(count);
        self.rows.push_row(row);
    }
}

/// Keyed columnar rows routed to their destination workers — the columnar
/// counterpart of [`KeyedData`], produced and consumed by the
/// `*_phase_rows` methods.
#[derive(Debug, Clone)]
pub struct KeyedRows {
    dim: usize,
    per_worker: Vec<RowBucket>,
}

impl KeyedRows {
    /// An empty plane (used to start a chain, or by phases with no row
    /// traffic).
    pub fn empty(dim: usize, workers: usize) -> Self {
        KeyedRows {
            dim,
            per_worker: (0..workers).map(|_| RowBucket::new(dim)).collect(),
        }
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total row records across all workers.
    pub fn len(&self) -> usize {
        self.per_worker.iter().map(RowBucket::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total raw messages represented (each row counts its folds).
    pub fn raw_message_count(&self) -> u64 {
        self.per_worker
            .iter()
            .flat_map(|b| b.counts.iter())
            .map(|&c| c as u64)
            .sum()
    }
}

/// One key's rows inside a reducer: a flat row-major slice plus per-row
/// fold counts, in arrival order (mapper order, stable).
#[derive(Debug, Clone, Copy)]
pub struct RowsView<'a> {
    pub dim: usize,
    pub data: &'a [f32],
    pub counts: &'a [u32],
}

impl RowsView<'_> {
    pub fn n_rows(&self) -> usize {
        self.counts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }
}

/// Columnar emitter handed to row-phase kernels: rows are spooled flat (no
/// per-record heap object) or — when the phase has a [`FusedAggregator`] —
/// folded straight into per-key accumulator rows at emission, Hadoop-style
/// in-mapper combining on flat rows.
pub struct RowSink<'a> {
    dim: usize,
    agg: Option<&'a dyn FusedAggregator>,
    fused: FusedKeyShard,
    keys: Vec<u64>,
    rows: RowBlock,
}

impl<'a> RowSink<'a> {
    fn new(dim: usize, agg: Option<&'a dyn FusedAggregator>) -> Self {
        RowSink {
            dim,
            agg,
            fused: FusedKeyShard::new(dim),
            keys: Vec::new(),
            rows: RowBlock::new(dim),
        }
    }

    /// Row width of this phase's outgoing columnar plane (0 = the phase
    /// emits no rows).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Emit one row keyed by `key` for the shuffle.
    pub fn send_row(&mut self, key: u64, row: &[f32]) {
        assert!(self.dim > 0, "send_row on a phase with no row plane");
        match self.agg {
            Some(agg) => {
                self.fused.accumulate(key, row, 1, agg);
            }
            None => {
                self.keys.push(key);
                self.rows.push_row(row);
            }
        }
    }

    /// Resident bytes held by the sink and charged to the worker's memory
    /// peak: the in-mapper fused accumulator buffer only. Plain-spooled
    /// rows model as streamed to the shuffle (like typed records), so they
    /// cost shuffle bytes, not resident memory.
    fn resident_bytes(&self) -> u64 {
        (self.fused.rows.data().len() * 4 + self.fused.keys.len() * 12) as u64
    }

    /// Charge output bytes and route rows to their destination buckets, in
    /// emission (or first-touch, when fused) order.
    fn flush_into(
        &mut self,
        params: &PhaseParams,
        metrics: &mut WorkerPhase,
        routed: &mut [RowBucket],
        routed_bytes: &mut [u64],
        msg_columnar: &mut u64,
    ) {
        let dim = self.dim;
        let mut route = |key: u64, count: u32, row: &[f32]| {
            let len = params.row_wire_len(key, dim, count);
            metrics.send(len);
            *msg_columnar += len;
            let dst = (params.partition_fn)(key, routed.len());
            routed_bytes[dst] += len;
            routed[dst].push(key, count, row);
        };
        for i in 0..self.fused.keys.len() {
            route(
                self.fused.keys[i],
                self.fused.counts[i],
                self.fused.rows.row(i),
            );
        }
        for i in 0..self.keys.len() {
            route(self.keys[i], 1, self.rows.row(i));
        }
    }
}

/// Per-record context passed to map/reduce kernels for cost reporting.
#[derive(Default)]
pub struct PhaseCtx {
    /// Floating-point operations performed by the kernel on this record.
    pub flops: f64,
}

impl PhaseCtx {
    pub fn add_flops(&mut self, f: f64) {
        self.flops += f;
    }
}

/// The plain-data subset of the engine a worker task needs; `Copy` so the
/// fork-join closures can capture it without borrowing the engine.
#[derive(Clone, Copy)]
struct PhaseParams {
    partition_fn: fn(u64, usize) -> usize,
    record_overhead: u64,
}

impl PhaseParams {
    fn wire_len<V: Encode>(&self, key: u64, value: &V) -> u64 {
        (varint_len(key) + value.encoded_len()) as u64 + self.record_overhead
    }

    /// Wire length of one columnar row record: the shared
    /// [`row_payload_len`] framing (count always present — batch rows
    /// carry fold counts) plus the key varint and shuffle overhead.
    fn row_wire_len(&self, key: u64, dim: usize, count: u32) -> u64 {
        (row_payload_len(dim, Some(count)) + varint_len(key)) as u64 + self.record_overhead
    }
}

/// Task-start fault gate, shared by a phase's worker tasks. Fires any
/// scheduled injection for the task and absorbs up to `max_retries`
/// firings by modelling a task re-launch: the fault fires *before* the
/// task consumes its (immutable) input, and the in-process kernels are
/// deterministic, so a re-launched task is bit-identical to one that
/// never failed — the retry costs scheduling time, not correctness.
struct TaskGate {
    faults: Option<FaultInjector>,
    max_retries: u32,
}

impl TaskGate {
    /// Run the gate for one task. `fire` probes the injector for this
    /// task's site. Returns the number of absorbed re-launches, or the
    /// surviving error once the attempt budget is spent.
    fn admit(&self, fire: impl Fn(&FaultInjector) -> Option<Error>) -> Result<u64> {
        let Some(inj) = &self.faults else {
            return Ok(0);
        };
        let mut retries = 0u64;
        while let Some(e) = fire(inj) {
            if retries >= self.max_retries as u64 {
                return Err(e);
            }
            retries += 1;
        }
        Ok(retries)
    }
}

/// One worker's phase output, merged at the barrier in worker order.
struct PhaseOut<V> {
    metrics: WorkerPhase,
    routed: Vec<Vec<(u64, V)>>,
    routed_bytes: Vec<u64>,
    /// Columnar plane output (zero-dim buckets for typed-only phases).
    routed_rows: Vec<RowBucket>,
    /// Modelled peak resident bytes, checked against the spec at the merge.
    peak: u64,
    /// Message volume by plane.
    msg_bytes: MessagePlaneBytes,
    /// Injected task failures this worker absorbed by re-launching.
    retries: u64,
}

impl<V: Encode> PhaseOut<V> {
    fn new(workers: usize, row_dim: usize, retries: u64) -> Self {
        PhaseOut {
            metrics: WorkerPhase::default(),
            routed: (0..workers).map(|_| Vec::new()).collect(),
            routed_bytes: vec![0; workers],
            routed_rows: (0..workers).map(|_| RowBucket::new(row_dim)).collect(),
            peak: 0,
            msg_bytes: MessagePlaneBytes::default(),
            retries,
        }
    }

    /// Charge one emitted typed pair as shuffle output and route it to its
    /// destination shard, in emission order. Typed records model as
    /// streamed to the shuffle: they cost bytes, not resident memory.
    fn route(&mut self, params: &PhaseParams, key: u64, value: V) {
        let len = params.wire_len(key, &value);
        self.metrics.send(len);
        self.msg_bytes.legacy += len;
        let dst = (params.partition_fn)(key, self.routed.len());
        self.routed_bytes[dst] += len;
        self.routed[dst].push((key, value));
    }

    /// Close the task: route the row sink's output and charge the modelled
    /// peak — `group_bytes` (the largest key group a reducer held; 0 for a
    /// mapper, which holds one record) plus the sink's fused accumulators.
    fn finish(&mut self, params: &PhaseParams, sink: &mut RowSink<'_>, group_bytes: u64) {
        self.peak = group_bytes + sink.resident_bytes();
        sink.flush_into(
            params,
            &mut self.metrics,
            &mut self.routed_rows,
            &mut self.routed_bytes,
            &mut self.msg_bytes.columnar,
        );
        self.metrics.touch_mem(self.peak);
    }
}

/// The batch engine. Owns the cluster spec and accumulates a [`RunReport`]
/// across phases; one engine instance = one job chain.
pub struct BatchEngine {
    spec: ClusterSpec,
    partition_fn: fn(u64, usize) -> usize,
    /// Fixed per-record overhead bytes modelling shuffle framing.
    record_overhead: u64,
    report: RunReport,
    /// Armed fault schedule (deterministic injection). `None` — the
    /// default — costs nothing. [`BatchEngine::new`] arms the
    /// `INFERTURBO_FAULTS` schedule automatically when the variable is
    /// set; [`BatchEngine::with_faults`] overrides it.
    faults: Option<FaultInjector>,
    /// How many times an injected task failure is absorbed by re-launching
    /// the task before the job fails (Hadoop's `mapreduce.map.maxattempts`
    /// analogue). Task retry is idempotent by construction: a task's input
    /// — its HDFS split or sorted shuffle partition — is immutable, and
    /// the fault fires before the task consumes anything, so the re-run is
    /// bit-identical. Absorbed failures count on [`RunReport::retries`].
    pub max_task_retries: u32,
    /// Map phases executed so far (addresses [`inferturbo_cluster::FaultSite::MapTask`]).
    map_rounds: usize,
    /// Reduce phases executed so far (addresses
    /// [`inferturbo_cluster::FaultSite::ReduceTask`]).
    reduce_rounds: usize,
    /// Flight-recorder handle; disabled by default. Per-round records are
    /// emitted at the phase barrier ([`BatchEngine::merge_phase`]) only —
    /// never from inside worker tasks — so traces are thread-count
    /// invariant.
    trace: TraceHandle,
    /// Who moves routed shuffle shards between mappers and reducers at the
    /// phase barrier. Defaults to the `INFERTURBO_TRANSPORT` selection;
    /// every backend is bit-identical (see the transport contract), the
    /// choice only shows on [`RunReport::wire_bytes`].
    transport: std::sync::Arc<dyn Transport>,
}

impl BatchEngine {
    pub fn new(spec: ClusterSpec) -> Self {
        BatchEngine {
            spec,
            partition_fn: partition_of,
            record_overhead: 2,
            report: RunReport::new(spec),
            faults: FaultPlan::from_env().map(|p| p.injector()),
            max_task_retries: 3,
            map_rounds: 0,
            reduce_rounds: 0,
            trace: TraceHandle::disabled(),
            transport: transport::from_env(),
        }
    }

    pub fn with_partition_fn(mut self, f: fn(u64, usize) -> usize) -> Self {
        self.partition_fn = f;
        self
    }

    /// Arm (or clear) a deterministic fault schedule for this engine,
    /// replacing any schedule inherited from `INFERTURBO_FAULTS`.
    pub fn with_faults(mut self, plan: Option<FaultPlan>) -> Self {
        self.faults = plan.filter(|p| !p.is_empty()).map(|p| p.injector());
        self
    }

    /// Arm an already-created injector, replacing any `INFERTURBO_FAULTS`
    /// schedule. Unlike [`BatchEngine::with_faults`] this *shares* the
    /// injector's per-site fire budgets with the caller: a fault consumed
    /// by one job does not re-fire in the next — how a session plan models
    /// a schedule of cluster events spanning repeated runs.
    pub fn with_fault_injector(mut self, injector: FaultInjector) -> Self {
        self.faults = Some(injector);
        self
    }

    /// Bound the per-task re-launch count for injected task failures.
    pub fn with_task_retries(mut self, max: u32) -> Self {
        self.max_task_retries = max;
        self
    }

    /// Attach a trace handle: round/worker-phase events are emitted only
    /// at the single-threaded merge barrier, so traces are thread-count
    /// invariant. The caller scopes the handle's epoch (one engine run =
    /// one epoch).
    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.trace = trace;
        self
    }

    /// Use an explicit shuffle transport, replacing the
    /// `INFERTURBO_TRANSPORT` selection. Every backend is bit-identical
    /// (see the [`transport`] module contract); the choice only shows on
    /// [`RunReport::wire_bytes`].
    pub fn with_transport(mut self, transport: std::sync::Arc<dyn Transport>) -> Self {
        self.transport = transport;
        self
    }

    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    pub fn report(&self) -> &RunReport {
        &self.report
    }

    pub fn into_report(self) -> RunReport {
        self.report
    }

    fn params(&self) -> PhaseParams {
        PhaseParams {
            partition_fn: self.partition_fn,
            record_overhead: self.record_overhead,
        }
    }

    /// Task gate and round index for the next map phase.
    fn map_gate(&mut self) -> (TaskGate, usize) {
        let round = self.map_rounds;
        self.map_rounds += 1;
        let gate = TaskGate {
            faults: self.faults.clone(),
            max_retries: self.max_task_retries,
        };
        (gate, round)
    }

    /// Task gate and round index for the next reduce phase.
    fn reduce_gate(&mut self) -> (TaskGate, usize) {
        let round = self.reduce_rounds;
        self.reduce_rounds += 1;
        let gate = TaskGate {
            faults: self.faults.clone(),
            max_retries: self.max_task_retries,
        };
        (gate, round)
    }

    /// Distribute raw input records round-robin across mapper workers —
    /// models HDFS splits, which are oblivious to record keys.
    pub fn scatter_inputs<I>(&self, inputs: Vec<I>) -> Vec<Vec<I>> {
        let n = self.spec.workers;
        let mut per_worker: Vec<Vec<I>> = (0..n).map(|_| Vec::new()).collect();
        for (i, rec) in inputs.into_iter().enumerate() {
            per_worker[i % n].push(rec);
        }
        per_worker
    }

    /// Map phase: per-worker input records → routed keyed pairs. The
    /// typed-only form of [`BatchEngine::map_phase_rows`] (no row plane).
    pub fn map_phase<I, V, M, F>(
        &mut self,
        name: impl Into<String>,
        inputs: &[Vec<I>],
        make_map: F,
    ) -> Result<KeyedData<V>>
    where
        I: Encode + Sync,
        V: Encode + Decode + Clone + Send,
        M: FnMut(&mut PhaseCtx, &I) -> Result<Vec<(u64, V)>>,
        F: Fn(usize) -> M + Sync,
    {
        let make_map = |w: usize| {
            let mut kernel = make_map(w);
            move |ctx: &mut PhaseCtx, rec: &I, _sink: &mut RowSink<'_>| kernel(ctx, rec)
        };
        Ok(self.map_phase_rows(name, inputs, 0, make_map, None)?.0)
    }

    /// Reduce phase: group each worker's shuffle partition by key, run its
    /// kernel per group, and route the emitted pairs onward. The
    /// typed-only form of [`BatchEngine::reduce_phase_rows`] (no row
    /// plane).
    pub fn reduce_phase<V, O, R, F>(
        &mut self,
        name: impl Into<String>,
        data: KeyedData<V>,
        make_reduce: F,
    ) -> Result<KeyedData<O>>
    where
        V: Encode + Decode + Clone + Send,
        O: Encode + Decode + Clone + Send,
        R: FnMut(&mut PhaseCtx, u64, Vec<V>) -> Result<Vec<(u64, O)>>,
        F: Fn(usize) -> R + Sync,
    {
        let make_reduce = |w: usize| {
            let mut kernel = make_reduce(w);
            move |ctx: &mut PhaseCtx,
                  key: u64,
                  values: Vec<V>,
                  _view: RowsView<'_>,
                  _sink: &mut RowSink<'_>| kernel(ctx, key, values)
        };
        let rows = KeyedRows::empty(0, self.spec.workers);
        Ok(self
            .reduce_phase_rows(name, data, rows, 0, make_reduce, None)?
            .0)
    }

    /// Map phase: per-worker input records → routed keyed pairs on the
    /// typed plane plus fixed-width rows of `row_dim` emitted through a
    /// [`RowSink`] (`row_dim` 0 = no row plane).
    ///
    /// `make_map(worker)` builds the kernel each worker runs — one instance
    /// per worker, so kernels may carry per-worker mutable state. Workers
    /// execute in parallel; input bytes are charged per record (reading the
    /// split); emitted pairs and rows are charged as shuffle output. With
    /// `row_agg` set, emitted rows fold into per-key accumulators at the
    /// sender (fused in-mapper aggregation). The first failure in
    /// ascending worker order is surfaced, like the serial loop.
    pub fn map_phase_rows<I, V, M, F>(
        &mut self,
        name: impl Into<String>,
        inputs: &[Vec<I>],
        row_dim: usize,
        make_map: F,
        row_agg: Option<&dyn FusedAggregator>,
    ) -> Result<(KeyedData<V>, KeyedRows)>
    where
        I: Encode + Sync,
        V: Encode + Decode + Clone + Send,
        M: FnMut(&mut PhaseCtx, &I, &mut RowSink<'_>) -> Result<Vec<(u64, V)>>,
        F: Fn(usize) -> M + Sync,
    {
        assert_eq!(
            inputs.len(),
            self.spec.workers,
            "inputs must be pre-partitioned"
        );
        let name = name.into();
        let n = self.spec.workers;
        let params = self.params();
        let (gate, round) = self.map_gate();

        let results: Vec<Result<PhaseOut<V>>> = par_map_workers(n, |w| {
            let task_retries = gate.admit(|inj| inj.map_task(w, round))?;
            let recs = &inputs[w];
            let mut out = PhaseOut::new(n, row_dim, task_retries);
            let mut kernel = make_map(w);
            let mut sink = RowSink::new(row_dim, row_agg);
            for rec in recs {
                out.metrics
                    .recv(rec.encoded_len() as u64 + params.record_overhead);
                let mut ctx = PhaseCtx::default();
                for (k, v) in kernel(&mut ctx, rec, &mut sink)? {
                    out.route(&params, k, v);
                }
                out.metrics.flops += ctx.flops;
            }
            // Mapper memory: one record + the row sink's accumulators.
            out.finish(&params, &mut sink, 0);
            Ok(out)
        });
        self.merge_phase(name, RoundKind::Map, row_dim, results)
    }

    /// Reduce phase over both planes: each worker's typed partition and
    /// row partition are grouped by key (stable, ascending — the union of
    /// keys from either plane), and the kernel sees the key's typed values
    /// plus its rows as one flat [`RowsView`], emitting onward through the
    /// returned pairs and a [`RowSink`] of `out_dim`-wide rows.
    ///
    /// Workers run in parallel — each worker's partition is a disjoint key
    /// range by construction of the shuffle. `make_reduce(worker)` builds
    /// one kernel per worker, which may hold per-worker state across its
    /// key stream (e.g. the broadcast table riding reserved low keys). The
    /// modelled reducer memory peak is the largest single group plus the
    /// row sink's accumulators — streaming reducers never hold their whole
    /// partition.
    pub fn reduce_phase_rows<V, O, R, F>(
        &mut self,
        name: impl Into<String>,
        data: KeyedData<V>,
        rows: KeyedRows,
        out_dim: usize,
        make_reduce: F,
        row_agg: Option<&dyn FusedAggregator>,
    ) -> Result<(KeyedData<O>, KeyedRows)>
    where
        V: Encode + Decode + Clone + Send,
        O: Encode + Decode + Clone + Send,
        R: FnMut(
            &mut PhaseCtx,
            u64,
            Vec<V>,
            RowsView<'_>,
            &mut RowSink<'_>,
        ) -> Result<Vec<(u64, O)>>,
        F: Fn(usize) -> R + Sync,
    {
        let name = name.into();
        let n = self.spec.workers;
        assert_eq!(data.per_worker.len(), n, "keyed data shape");
        assert_eq!(rows.per_worker.len(), n, "keyed rows shape");
        let in_dim = rows.dim;
        let params = self.params();
        let (gate, round) = self.reduce_gate();

        let tasks: Vec<(Vec<(u64, V)>, RowBucket)> =
            data.per_worker.into_iter().zip(rows.per_worker).collect();
        let results: Vec<Result<PhaseOut<O>>> = par_map(tasks, |w, (mut bucket, rbucket)| {
            // Fired before the task consumes its shuffle partition, so a
            // re-launched task reads the same immutable input.
            let task_retries = gate.admit(|inj| inj.reduce_task(w, round))?;
            let mut out = PhaseOut::new(n, out_dim, task_retries);
            // Input accounting: the fetch of this worker's shuffle
            // partition, both planes.
            for (k, v) in &bucket {
                out.metrics.recv(params.wire_len(*k, v));
            }
            for i in 0..rbucket.len() {
                out.metrics
                    .recv(params.row_wire_len(rbucket.keys[i], in_dim, rbucket.counts[i]));
            }
            // Shuffle sort: stable on both planes, so same-key records
            // keep arrival order. Rows sort an index permutation — the
            // flat storage never moves.
            bucket.sort_by_key(|&(k, _)| k);
            let mut row_ord: Vec<u32> = (0..rbucket.len() as u32).collect();
            row_ord.sort_by_key(|&i| rbucket.keys[i as usize]);

            let mut kernel = make_reduce(w);
            let mut sink = RowSink::new(out_dim, row_agg);
            let mut max_group_bytes = 0u64;
            // Per-group row gather scratch, reused across groups.
            let mut group_rows: Vec<f32> = Vec::new();
            let mut group_counts: Vec<u32> = Vec::new();
            let mut lit = bucket.into_iter().peekable();
            let mut ri = 0usize;
            loop {
                let lk = lit.peek().map(|&(k, _)| k);
                let rk = (ri < row_ord.len()).then(|| rbucket.keys[row_ord[ri] as usize]);
                let k = match (lk, rk) {
                    (None, None) => break,
                    (Some(a), None) => a,
                    (None, Some(b)) => b,
                    (Some(a), Some(b)) => a.min(b),
                };
                let mut values = Vec::new();
                let mut group_bytes = 0u64;
                while let Some((_, v)) = lit.next_if(|&(k2, _)| k2 == k) {
                    group_bytes += params.wire_len(k, &v);
                    values.push(v);
                }
                group_rows.clear();
                group_counts.clear();
                while ri < row_ord.len() && rbucket.keys[row_ord[ri] as usize] == k {
                    let i = row_ord[ri] as usize;
                    group_rows.extend_from_slice(rbucket.rows.row(i));
                    group_counts.push(rbucket.counts[i]);
                    group_bytes += params.row_wire_len(k, in_dim, rbucket.counts[i]);
                    ri += 1;
                }
                max_group_bytes = max_group_bytes.max(group_bytes);
                let view = RowsView {
                    dim: in_dim,
                    data: &group_rows,
                    counts: &group_counts,
                };
                let mut ctx = PhaseCtx::default();
                for (k2, v2) in kernel(&mut ctx, k, values, view, &mut sink)? {
                    out.route(&params, k2, v2);
                }
                out.metrics.flops += ctx.flops;
            }
            out.finish(&params, &mut sink, max_group_bytes);
            Ok(out)
        });
        self.merge_phase(name, RoundKind::Reduce, out_dim, results)
    }

    /// Barrier: surface the first failure in ascending worker order, check
    /// the memory model, and hand the routed shards — both planes — to the
    /// shuffle [`Transport`], which concatenates them per destination in
    /// mapper order (the serial delivery order). Under a byte-moving
    /// backend the typed legacy records cross the wire through the `V`
    /// codec; the in-process backend concatenates them typed, in-engine.
    fn merge_phase<V: Encode + Decode + Clone + Send>(
        &mut self,
        name: String,
        kind: RoundKind,
        row_dim: usize,
        results: Vec<Result<PhaseOut<V>>>,
    ) -> Result<(KeyedData<V>, KeyedRows)> {
        let n = self.spec.workers;
        let mut metrics = Vec::with_capacity(n);
        let mut routed_bytes = vec![0u64; n];
        let mut round_bytes = MessagePlaneBytes::default();
        let mut round_retries = 0u64;
        let mut routed_by_mapper: Vec<Vec<Vec<(u64, V)>>> = Vec::with_capacity(n);
        let mut rows_by_mapper: Vec<Vec<RowBucket>> = Vec::with_capacity(n);
        for (w, r) in results.into_iter().enumerate() {
            let o = r.map_err(|e| e.in_phase(&name))?;
            self.spec
                .check_memory(w, o.peak)
                .map_err(|e| e.in_phase(&name))?;
            metrics.push(o.metrics);
            self.report.retries += o.retries;
            self.report.message_bytes.add(o.msg_bytes);
            round_retries += o.retries;
            round_bytes.add(o.msg_bytes);
            for (dst, b) in o.routed_bytes.iter().enumerate() {
                routed_bytes[dst] += b;
            }
            routed_by_mapper.push(o.routed);
            rows_by_mapper.push(o.routed_rows);
        }
        let transport = std::sync::Arc::clone(&self.transport);
        let needs_bytes = transport.needs_bytes();
        let mut encoded_legacy: Vec<Option<Vec<EncodedKeyRecords>>> = if needs_bytes {
            (0..n)
                .map(|dst| {
                    Some(
                        routed_by_mapper
                            .iter()
                            .map(|m| {
                                m.get(dst)
                                    .map(|recs| {
                                        recs.iter().map(|(k, v)| (*k, v.to_bytes())).collect()
                                    })
                                    .unwrap_or_default()
                            })
                            .collect(),
                    )
                })
                .collect()
        } else {
            (0..n).map(|_| None).collect()
        };
        let mut dests = Vec::with_capacity(n);
        for (dst, legacy) in encoded_legacy.iter_mut().enumerate() {
            // Skip the row plane entirely when no mapper emitted rows for
            // this destination — phases without row traffic move nothing.
            let buckets: Vec<BucketRef<'_>> = rows_by_mapper
                .iter()
                .map(|m| &m[dst])
                .filter(|b| !b.is_empty())
                .map(|b| BucketRef {
                    keys: &b.keys,
                    counts: &b.counts,
                    rows: &b.rows,
                })
                .collect();
            dests.push(ConcatDest {
                dim: row_dim,
                buckets: (!buckets.is_empty()).then_some(buckets),
                legacy: legacy.take(),
            });
        }
        let exchanged = transport
            .exchange_concat(ConcatExchange { dests })
            .map_err(|e| e.in_phase(&name))?;
        self.report.wire_bytes += exchanged.wire_bytes;
        let mut routed: Vec<Vec<(u64, V)>> = (0..n).map(|_| Vec::new()).collect();
        let mut rows = KeyedRows::empty(row_dim, n);
        for (dst, merged) in exchanged.dests.into_iter().enumerate() {
            if let Some(b) = merged.bucket {
                let out = &mut rows.per_worker[dst];
                out.keys = b.keys;
                out.counts = b.counts;
                out.rows = b.rows;
            }
            if let Some(records) = merged.legacy {
                let typed = &mut routed[dst];
                typed.reserve(records.len());
                for (k, bytes) in records {
                    let v = V::from_bytes(&bytes).map_err(|e| e.in_phase(&name))?;
                    typed.push((k, v));
                }
            }
        }
        if !needs_bytes {
            // The typed legacy plane never left the engine: concatenate in
            // ascending mapper order, exactly the serial delivery order.
            for per_dest in routed_by_mapper {
                for (dst, mut recs) in per_dest.into_iter().enumerate() {
                    routed[dst].append(&mut recs);
                }
            }
        }
        if self.trace.enabled() {
            // Single-threaded barrier: the only place round telemetry is
            // emitted, so the trace is identical for every thread budget.
            let step = self.report.phases.len() as u64;
            let records: u64 = metrics.iter().map(|m| m.records_out).sum();
            for (w, m) in metrics.iter().enumerate() {
                self.trace.emit(
                    step,
                    Site::Worker(w as u32),
                    Payload::WorkerPhase {
                        phase: name.clone(),
                        records_in: m.records_in,
                        records_out: m.records_out,
                        bytes_in: m.bytes_in,
                        bytes_out: m.bytes_out,
                        flops: m.flops,
                        mem_peak: m.mem_peak,
                    },
                );
            }
            self.trace.emit(
                step,
                Site::Engine,
                Payload::Round {
                    phase: name.clone(),
                    kind,
                    records,
                    columnar_bytes: round_bytes.columnar,
                    legacy_bytes: round_bytes.legacy,
                    retries: round_retries,
                },
            );
        }
        self.report.push_phase(name, metrics);
        Ok((
            KeyedData {
                per_worker: routed,
                pending_bytes: routed_bytes,
            },
            rows,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(workers: usize) -> BatchEngine {
        BatchEngine::new(ClusterSpec::test_spec(workers))
    }

    /// Word-count style pipeline: map words → (hash, 1), reduce sums.
    #[test]
    fn map_reduce_counts_keys() {
        let mut eng = engine(4);
        let inputs: Vec<u64> = vec![1, 2, 1, 3, 1, 2];
        let parts = eng.scatter_inputs(inputs);
        let keyed = eng
            .map_phase("map", &parts, |_w| {
                |_ctx: &mut PhaseCtx, &rec: &u64| Ok(vec![(rec, 1.0f32)])
            })
            .unwrap();
        assert_eq!(keyed.len(), 6);
        let reduced = eng
            .reduce_phase("reduce", keyed, |_w| {
                |_ctx: &mut PhaseCtx, k, vals: Vec<f32>| Ok(vec![(k, vals.iter().sum::<f32>())])
            })
            .unwrap();
        let m = reduced.into_map();
        assert_eq!(m[&1], 3.0);
        assert_eq!(m[&2], 2.0);
        assert_eq!(m[&3], 1.0);
    }

    #[test]
    fn chained_rounds_propagate() {
        // Round 1 doubles values, round 2 negates; chain through reduce.
        let mut eng = engine(2);
        let parts = eng.scatter_inputs(vec![5u64, 6]);
        let keyed = eng
            .map_phase("m", &parts, |_w| {
                |_c: &mut PhaseCtx, &r: &u64| Ok(vec![(r, r as f32)])
            })
            .unwrap();
        let r1 = eng
            .reduce_phase("r1", keyed, |_w| {
                |_c: &mut PhaseCtx, k, v: Vec<f32>| Ok(vec![(k, v[0] * 2.0)])
            })
            .unwrap();
        let r2 = eng
            .reduce_phase("r2", r1, |_w| {
                |_c: &mut PhaseCtx, k, v: Vec<f32>| Ok(vec![(k, -v[0])])
            })
            .unwrap();
        let m = r2.into_map();
        assert_eq!(m[&5], -10.0);
        assert_eq!(m[&6], -12.0);
        assert_eq!(eng.report().phases.len(), 3);
    }

    #[test]
    fn reducer_memory_is_largest_group_not_partition() {
        // One giant key group and many tiny ones on the same worker: the
        // peak must track the giant group only.
        let mut eng = BatchEngine::new(ClusterSpec::test_spec(1));
        let parts = eng.scatter_inputs((0..100u64).collect());
        let keyed = eng
            .map_phase("m", &parts, |_w| {
                |_c: &mut PhaseCtx, &r: &u64| {
                    Ok(if r < 50 {
                        vec![(7u64, vec![0.0f32; 100])] // giant group at key 7
                    } else {
                        vec![(r, vec![0.0f32; 1])]
                    })
                }
            })
            .unwrap();
        let out = eng
            .reduce_phase("r", keyed, |_w| {
                |_c: &mut PhaseCtx, k, _v: Vec<Vec<f32>>| Ok(vec![(k, 0u32)])
            })
            .unwrap();
        drop(out);
        let peak = eng.report().phases[1].per_worker[0].mem_peak;
        // giant group: 50 records × ~405 bytes ≈ 20 KB; whole partition
        // would be ≈ 20.4 KB; tiny groups ≈ 9 bytes. Peak must be within
        // the giant group's size, not the sum of all groups.
        let giant = 50 * (varint_len(7) as u64 + vec![0.0f32; 100].encoded_len() as u64 + 2);
        assert_eq!(peak, giant);
    }

    #[test]
    fn oversized_group_triggers_oom() {
        let spec = ClusterSpec::test_spec(1).with_memory(64);
        let mut eng = BatchEngine::new(spec);
        let parts = eng.scatter_inputs(vec![0u64; 10]);
        let keyed = eng
            .map_phase("m", &parts, |_w| {
                |_c: &mut PhaseCtx, _: &u64| Ok(vec![(1u64, vec![1.0f32; 8])])
            })
            .unwrap();
        let err = eng
            .reduce_phase("r", keyed, |_w| {
                |_c: &mut PhaseCtx, k, _v: Vec<Vec<f32>>| Ok(vec![(k, 0u32)])
            })
            .unwrap_err();
        assert!(err.is_oom());
        assert!(err.to_string().contains("phase `r`"));
    }

    #[test]
    fn phases_are_deterministic() {
        let run = || {
            let mut eng = engine(4);
            let parts = eng.scatter_inputs((0..200u64).collect());
            let keyed = eng
                .map_phase("m", &parts, |_w| {
                    |_c: &mut PhaseCtx, &r: &u64| Ok(vec![(r % 13, r as f32)])
                })
                .unwrap();
            let out = eng
                .reduce_phase("r", keyed, |_w| {
                    |_c: &mut PhaseCtx, k, v: Vec<f32>| Ok(vec![(k, v.iter().sum::<f32>())])
                })
                .unwrap();
            let mut pairs: Vec<(u64, f32)> = out.into_map().into_iter().collect();
            pairs.sort_by_key(|&(k, _)| k);
            (pairs, eng.report().total_bytes())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn flops_feed_cost_model() {
        let mut eng = engine(1);
        let parts = eng.scatter_inputs(vec![0u64]);
        let keyed = eng
            .map_phase("m", &parts, |_w| {
                |ctx: &mut PhaseCtx, &r: &u64| {
                    ctx.add_flops(2.0e6); // 2 s at 1e6 flops/s
                    Ok(vec![(r, 0.0f32)])
                }
            })
            .unwrap();
        drop(keyed);
        let p = &eng.report().phases[0];
        assert!(p.worker_secs[0] >= 2.0);
    }

    #[test]
    fn input_bytes_charged_on_consuming_phase() {
        let mut eng = engine(2);
        let parts = eng.scatter_inputs(vec![1u64, 2]);
        let keyed = eng
            .map_phase("m", &parts, |_w| {
                |_c: &mut PhaseCtx, &r: &u64| Ok(vec![(r, vec![1.0f32; 16])])
            })
            .unwrap();
        let map_out: u64 = eng.report().phases[0].bytes_out_total();
        let out = eng
            .reduce_phase("r", keyed, |_w| {
                |_c: &mut PhaseCtx, k, _: Vec<Vec<f32>>| Ok(vec![(k, 0u32)])
            })
            .unwrap();
        drop(out);
        let reduce_in: u64 = eng.report().phases[1].bytes_in_total();
        assert_eq!(map_out, reduce_in, "shuffle bytes conserved");
        assert!(map_out > 0);
    }

    #[test]
    fn kernel_errors_surface_from_lowest_worker() {
        let mut eng = engine(3);
        let parts = eng.scatter_inputs((0..9u64).collect());
        let err = eng
            .map_phase("boom", &parts, |w| {
                move |_c: &mut PhaseCtx, _r: &u64| -> Result<Vec<(u64, f32)>> {
                    Err(inferturbo_common::Error::InvalidGraph(format!(
                        "worker {w} exploded"
                    )))
                }
            })
            .unwrap_err();
        assert!(err.to_string().contains("worker 0"), "{err}");
        assert!(err.to_string().contains("phase `boom`"), "{err}");
    }

    struct SumAgg;
    impl FusedAggregator for SumAgg {
        fn identity(&self) -> f32 {
            0.0
        }
        fn accumulate(&self, acc: &mut [f32], row: &[f32]) {
            for (a, b) in acc.iter_mut().zip(row) {
                *a += b;
            }
        }
    }

    /// Drive one map+reduce chain over the columnar plane: every input
    /// emits a dim-2 row keyed by `r % 5` plus a legacy marker record; the
    /// reducer must see both planes in the same key group and fold the
    /// rows (honouring fused counts).
    fn run_row_chain(fused: bool, threads: usize) -> (Vec<(u64, Vec<u32>)>, u64, u64) {
        use inferturbo_common::Parallelism;
        Parallelism::with(threads, || {
            let mut eng = engine(3);
            let parts = eng.scatter_inputs((0..200u64).collect());
            let agg: Option<&dyn FusedAggregator> = if fused { Some(&SumAgg) } else { None };
            let (keyed, rows) = eng
                .map_phase_rows(
                    "m",
                    &parts,
                    2,
                    |_w| {
                        |_c: &mut PhaseCtx, &r: &u64, sink: &mut RowSink<'_>| {
                            sink.send_row(r % 5, &[r as f32, 1.0]);
                            Ok(vec![(r % 5, 1u32)])
                        }
                    },
                    agg,
                )
                .unwrap();
            assert_eq!(rows.dim(), 2);
            assert_eq!(rows.raw_message_count(), 200);
            let (out, out_rows) = eng
                .reduce_phase_rows(
                    "r",
                    keyed,
                    rows,
                    0,
                    |_w| {
                        |_c: &mut PhaseCtx,
                         k,
                         values: Vec<u32>,
                         view: RowsView<'_>,
                         _sink: &mut RowSink<'_>|
                         -> Result<Vec<(u64, Vec<f32>)>> {
                            let mut sum = [0.0f32; 2];
                            let mut count = 0u32;
                            for i in 0..view.n_rows() {
                                for (a, b) in sum.iter_mut().zip(view.row(i)) {
                                    *a += b;
                                }
                                count += view.counts[i];
                            }
                            assert_eq!(values.len() as u32, count, "legacy markers == raw rows");
                            Ok(vec![(k, vec![sum[0], sum[1], count as f32])])
                        }
                    },
                    None,
                )
                .unwrap();
            assert!(out_rows.is_empty());
            let mut pairs: Vec<(u64, Vec<u32>)> = out
                .into_map()
                .into_iter()
                .map(|(k, v)| (k, v.iter().map(|x| x.to_bits()).collect()))
                .collect();
            pairs.sort_by_key(|&(k, _)| k);
            let columnar = eng.report().message_bytes.columnar;
            let total = eng.report().total_bytes();
            (pairs, columnar, total)
        })
    }

    #[test]
    fn row_phases_group_both_planes_by_key() {
        let (pairs, columnar, _) = run_row_chain(false, 1);
        assert_eq!(pairs.len(), 5);
        assert!(columnar > 0);
        for (k, bits) in &pairs {
            // 40 inputs per key; second lane sums the 1.0 markers
            assert_eq!(f32::from_bits(bits[1]), 40.0, "key {k}");
            assert_eq!(f32::from_bits(bits[2]), 40.0, "key {k}");
        }
    }

    #[test]
    fn fused_rows_reduce_shuffle_volume_not_results() {
        let (plain, plain_cols, _) = run_row_chain(false, 1);
        let (fused, fused_cols, _) = run_row_chain(true, 1);
        assert_eq!(plain, fused, "fused in-mapper aggregation changed sums");
        // 200 row records shrink to ≤ workers × keys partial rows.
        assert!(
            fused_cols * 4 < plain_cols,
            "fusion must shrink columnar shuffle: {fused_cols} vs {plain_cols}"
        );
    }

    #[test]
    fn row_phases_deterministic_across_thread_counts() {
        for fused in [false, true] {
            let serial = run_row_chain(fused, 1);
            let parallel = run_row_chain(fused, 4);
            assert_eq!(serial, parallel, "fused={fused}");
        }
    }

    #[test]
    fn injected_task_failures_retry_idempotently() {
        use inferturbo_cluster::{FaultPlan, FaultSite};
        let run = |plan: Option<FaultPlan>| {
            let mut eng = engine(3).with_faults(plan);
            let parts = eng.scatter_inputs((0..60u64).collect());
            let keyed = eng
                .map_phase("m", &parts, |_w| {
                    |_c: &mut PhaseCtx, &r: &u64| Ok(vec![(r % 7, r as f32)])
                })
                .unwrap();
            let out = eng
                .reduce_phase("r", keyed, |_w| {
                    |_c: &mut PhaseCtx, k, v: Vec<f32>| Ok(vec![(k, v.iter().sum::<f32>())])
                })
                .unwrap();
            let mut pairs: Vec<(u64, u32)> = out
                .into_map()
                .into_iter()
                .map(|(k, v)| (k, v.to_bits()))
                .collect();
            pairs.sort_by_key(|&(k, _)| k);
            (pairs, eng.report().total_bytes(), eng.report().retries)
        };
        let plan = FaultPlan::new()
            .and_fail(FaultSite::MapTask {
                worker: 0,
                round: 0,
            })
            .and_fail_times(
                FaultSite::ReduceTask {
                    worker: 2,
                    round: 0,
                },
                2,
            );
        let (clean, clean_bytes, clean_retries) = run(None);
        let (faulty, faulty_bytes, faulty_retries) = run(Some(plan));
        assert_eq!(clean, faulty, "task retry changed results");
        assert_eq!(clean_bytes, faulty_bytes, "task retry double-counted bytes");
        assert_eq!(clean_retries, 0);
        assert_eq!(faulty_retries, 3, "one map + two reduce re-launches");
    }

    #[test]
    fn task_retry_exhaustion_surfaces_the_lost_worker() {
        use inferturbo_cluster::{FaultPlan, FaultSite};
        let plan = FaultPlan::new().and_fail_times(
            FaultSite::MapTask {
                worker: 1,
                round: 0,
            },
            10,
        );
        let mut eng = engine(2).with_faults(Some(plan)).with_task_retries(2);
        let parts = eng.scatter_inputs(vec![1u64, 2, 3]);
        let err = eng
            .map_phase("m", &parts, |_w| {
                |_c: &mut PhaseCtx, &r: &u64| Ok(vec![(r, 1.0f32)])
            })
            .unwrap_err();
        assert!(err.is_transient(), "{err}");
        assert!(err.to_string().contains("map task"), "{err}");
        assert!(err.to_string().contains("phase `m`"), "{err}");
    }

    #[test]
    fn per_worker_kernel_state_is_isolated() {
        // Each worker's kernel counts its own records; counts must reflect
        // the round-robin scatter, proving kernels are not shared.
        use std::sync::atomic::{AtomicU64, Ordering};
        let counts: Vec<AtomicU64> = (0..3).map(|_| AtomicU64::new(0)).collect();
        let mut eng = engine(3);
        let parts = eng.scatter_inputs((0..10u64).collect());
        let counts_ref = &counts;
        let keyed = eng
            .map_phase("m", &parts, |w| {
                move |_c: &mut PhaseCtx, &r: &u64| {
                    counts_ref[w].fetch_add(1, Ordering::Relaxed);
                    Ok(vec![(r, 1.0f32)])
                }
            })
            .unwrap();
        assert_eq!(keyed.len(), 10);
        let got: Vec<u64> = counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        assert_eq!(got, vec![4, 3, 3]);
    }
}
