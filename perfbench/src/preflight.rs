//! Checks made before the first measurement, and the host facts every
//! result is reported with.

use std::fmt;
use std::path::PathBuf;

/// Why the benchmark refuses to measure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PreflightError {
    /// The release `itworker` binary is not next to the bench binary, so
    /// the first worker-process exchange would abort.
    WorkerBinMissing(PathBuf),
    /// The bench binary's own path could not be resolved.
    ExeUnknown,
    /// `INFERTURBO_*` variables are set; the engines read them from the
    /// environment and they would silently change what is measured.
    EnvArmed(Vec<String>),
}

impl fmt::Display for PreflightError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PreflightError::WorkerBinMissing(p) => write!(
                f,
                "preflight: transport worker binary missing at {}; build it with \
                 `cargo build --release --offline -p inferturbo-cluster --bin itworker` \
                 into the same target directory (perfbench/run.py does this)",
                p.display()
            ),
            PreflightError::ExeUnknown => {
                write!(f, "preflight: cannot resolve the bench binary's own path")
            }
            PreflightError::EnvArmed(vars) => write!(
                f,
                "preflight: environment arms the engines ({}); unset every INFERTURBO_* \
                 variable before measuring",
                vars.join(", ")
            ),
        }
    }
}

impl std::error::Error for PreflightError {}

/// Facts about the host a result depends on.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism`, which is also the thread
    /// budget every workload runs under (`Parallelism::with`).
    pub nproc: usize,
    /// The `itworker` binary the worker-process transport spawns.
    pub worker_bin: PathBuf,
}

/// The `itworker` binary next to the running executable, where
/// `WorkerProcess` looks for it by default. Test executables live one
/// level down, in `deps/`.
pub fn worker_bin() -> Result<PathBuf, PreflightError> {
    let exe = std::env::current_exe().map_err(|_| PreflightError::ExeUnknown)?;
    let mut dir = exe
        .parent()
        .ok_or(PreflightError::ExeUnknown)?
        .to_path_buf();
    if dir.file_name().is_some_and(|n| n == "deps") {
        dir.pop();
    }
    let bin = dir.join(format!("itworker{}", std::env::consts::EXE_SUFFIX));
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(PreflightError::WorkerBinMissing(bin))
    }
}

/// `INFERTURBO_*` variables present in the environment, sorted.
pub fn armed_env() -> Vec<String> {
    let mut vars: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("INFERTURBO_"))
        .collect();
    vars.sort();
    vars
}

/// Run every check; on success return the host facts.
pub fn check() -> Result<Host, PreflightError> {
    let vars = armed_env();
    if !vars.is_empty() {
        return Err(PreflightError::EnvArmed(vars));
    }
    let worker_bin = worker_bin()?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Host { nproc, worker_bin })
}
