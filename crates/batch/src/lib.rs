//! MapReduce-style batch engine — the paper's second backend (§IV-C-2).
//!
//! A chain of *phases* moves keyed records between workers:
//!
//! - [`BatchEngine::map_phase`] turns partitioned input records into routed
//!   `(key, value)` pairs (the paper's Map step: initial embeddings fanned
//!   out to out-edge neighbours plus self-messages);
//! - [`BatchEngine::reduce_phase`] groups each worker's pairs by key, runs
//!   the reduce kernel per group (one GNN layer), and routes the emitted
//!   pairs onward for the next round.
//!
//! Unlike the Pregel backend, **no state lives in worker memory between
//! phases**: everything — node state, out-edge tables, intermediate
//! embeddings — travels through the shuffle as messages, which is exactly
//! the trade-off the paper describes (more bytes moved, far smaller memory
//! footprint, elastic workers). The memory model follows suit: a reducer
//! streams its groups from external storage, so its modelled peak memory is
//! the *largest single group* plus the row sink's fused accumulators, not
//! the whole partition. A hub node whose in-edge group outgrows the
//! worker's RAM is therefore an OOM — precisely the failure the
//! partial-gather strategy prevents.
//!
//! Partial-gather: the `*_phase_rows` variants move fixed-width `f32` rows
//! on a columnar plane beside the typed records, and a phase given a
//! fused aggregator folds same-key rows at the sender before they are
//! counted as shuffle output (Hadoop-style in-mapper combining on flat
//! rows), implementing the paper's partial-gather on this backend.

pub mod engine;

pub use engine::{BatchEngine, KeyedData, KeyedRows, PhaseCtx, RowBucket, RowSink, RowsView};
