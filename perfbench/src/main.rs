//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--size full|tiny] [--expect-checksum <hex>]`
//!
//! See the library docs for the workloads and metrics. Exit codes: 0 with
//! a result line, 1 when the workload could not run, 2 on bad arguments,
//! 3 when a preflight check fails.

use inferturbo::common::Parallelism;
use perfbench::preflight;
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::workloads::{self, Options, Size, Workload};
use std::process::ExitCode;

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut expect_checksum = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload =
                    Some(Workload::parse(value).ok_or_else(|| bad(&format!("one of {names:?}")))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a u64"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad("in (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--size" => {
                size = match value {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad("full or tiny")),
                }
            }
            "--expect-checksum" => {
                let hex = value.trim_start_matches("0x");
                expect_checksum = Some(u64::from_str_radix(hex, 16).map_err(|_| bad("a hex u64"))?);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |f: &str| format!("missing {f}");
    let spill_dir = std::env::current_dir()
        .map_err(|e| format!("current directory: {e}"))?
        .join(".bench_spill")
        .join(std::process::id().to_string());
    Ok(Options {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        size,
        expect_checksum,
        spill_dir,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = match preflight::check() {
        Ok(h) => h,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(3);
        }
    };
    let result = Parallelism::with(host.nproc, || workloads::run(&opts, &host));
    // Spill files are unlinked when their stores drop; the directory goes
    // with the run.
    let _ = std::fs::remove_dir_all(&opts.spill_dir);
    if let Some(parent) = opts.spill_dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload.name());
            return ExitCode::from(1);
        }
    };
    report.notes.insert(
        0,
        format!(
            "workload {} seed {} seconds {} trace {} size {:?}; host nproc {} threads {}",
            opts.workload.name(),
            opts.seed,
            opts.seconds,
            u8::from(opts.trace),
            opts.size,
            host.nproc,
            host.nproc
        ),
    );
    let metrics = report.select(if opts.trace { PER_LAYER } else { END_TO_END });
    print!("{}", report.render_text(&metrics));
    println!("{}", report.render_json(&metrics));
    ExitCode::SUCCESS
}
