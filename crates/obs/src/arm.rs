//! `INFERTURBO_TRACE` env arming — the one sanctioned environment read
//! in this crate (listed in `itlint`'s env-read exemptions, like
//! `INFERTURBO_FAULTS` in `inferturbo_cluster::fault` and
//! `INFERTURBO_TRANSPORT` in `inferturbo_cluster::transport`).
//!
//! Setting `INFERTURBO_TRACE` to anything but `0`/empty arms an
//! **in-memory** recording sink on every session and server built with
//! default wiring. Nothing is ever written to disk implicitly — the knob
//! exists so CI can re-run the whole serving suite with tracing armed and
//! prove that recording perturbs no result; callers that want the bytes
//! ask a handle for [`crate::sink::TraceHandle::render`] explicitly.

use crate::sink::TraceHandle;

/// Resolve the default trace handle from `INFERTURBO_TRACE`: a recording
/// handle when the variable is set (and not `0`/empty), else disabled.
pub fn from_env() -> TraceHandle {
    match std::env::var("INFERTURBO_TRACE") {
        Ok(v) if !v.is_empty() && v != "0" => TraceHandle::recording(),
        _ => TraceHandle::disabled(),
    }
}

#[cfg(test)]
mod tests {
    // `from_env` is exercised through the CI leg (`INFERTURBO_TRACE=1`
    // re-runs the serving tests); mutating the process environment from a
    // unit test would race sibling tests, so the only in-process check is
    // that the unarmed default is disabled when the variable is unset or
    // armed when set — whichever this test process inherited.
    #[test]
    fn from_env_matches_the_process_environment() {
        let armed = std::env::var("INFERTURBO_TRACE").is_ok_and(|v| !v.is_empty() && v != "0");
        assert_eq!(super::from_env().enabled(), armed);
    }
}
