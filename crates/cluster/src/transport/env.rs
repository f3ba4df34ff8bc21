//! Sanctioned environment reads for transport arming.
//!
//! Mirrors `fault::FaultPlan::from_env` / `obs::arm`: the environment is
//! read in exactly one place per subsystem, so itlint's `env-read` rule
//! can pin ambient configuration to these modules.

use super::{InProcess, Transport, WorkerProcess};
use std::sync::Arc;

/// The transport forced by the `INFERTURBO_TRANSPORT` environment
/// variable: `process` selects the spawned-worker-process backend (the CI
/// cross-process leg sets it suite-wide), anything else — including unset
/// — the in-process backend. Both backends are bit-identical, so
/// baselines built under either setting still compare equal.
pub fn from_env() -> Arc<dyn Transport> {
    match std::env::var("INFERTURBO_TRANSPORT") {
        Ok(v) if v.trim() == "process" => Arc::new(WorkerProcess::new()),
        _ => Arc::new(InProcess),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_env_matches_the_process_environment() {
        // No env mutation (tests run concurrently): assert against
        // whatever this process inherited, like `obs::arm`'s test.
        let t = from_env();
        match std::env::var("INFERTURBO_TRANSPORT") {
            Ok(v) if v.trim() == "process" => assert_eq!(t.name(), "worker-process"),
            _ => assert_eq!(t.name(), "in-process"),
        }
    }
}
