//! Fixture-driven integration tests: each fixture file exercises one rule (or
//! one cross-cutting behaviour) end to end through [`rules::scan_file`], and
//! the ratchet tests drive [`baseline`] exactly the way `itlint --check` does.

use inferturbo_lint::baseline;
use inferturbo_lint::rules::scan_file;

const WALLCLOCK: &str = include_str!("fixtures/wallclock.rs");
const PANIC_IN_LIB: &str = include_str!("fixtures/panic_in_lib.rs");
const UNORDERED_ITER: &str = include_str!("fixtures/unordered_iter.rs");
const RAW_SPAWN: &str = include_str!("fixtures/raw_spawn.rs");
const PROCESS_SPAWN: &str = include_str!("fixtures/process_spawn.rs");
const ENV_READ: &str = include_str!("fixtures/env_read.rs");
const ALLOWS: &str = include_str!("fixtures/allows.rs");
const NO_FALSE_POSITIVES: &str = include_str!("fixtures/no_false_positives.rs");

fn hits(path: &str, src: &str) -> Vec<(String, u32)> {
    scan_file(path, src)
        .into_iter()
        .map(|v| (v.rule, v.line))
        .collect()
}

#[test]
fn wallclock_fixture_flags_every_clock_read() {
    let got = hits("crates/pregel/src/fixture.rs", WALLCLOCK);
    // Line 1 is the `use std::time::…` import: even naming SystemTime is a
    // wall-clock dependency in scoped code.
    assert_eq!(
        got,
        vec![
            ("wallclock".to_string(), 1),
            ("wallclock".to_string(), 4),
            ("wallclock".to_string(), 5),
            ("wallclock".to_string(), 6),
        ]
    );
}

#[test]
fn wallclock_fixture_is_exempt_under_bench() {
    assert_eq!(hits("crates/bench/src/fixture.rs", WALLCLOCK), vec![]);
}

#[test]
fn panic_fixture_flags_lib_code_and_skips_cfg_test() {
    let got = hits("crates/core/src/fixture.rs", PANIC_IN_LIB);
    assert_eq!(
        got,
        vec![
            ("panic-in-lib".to_string(), 2),
            ("panic-in-lib".to_string(), 3),
            ("panic-in-lib".to_string(), 5),
            ("panic-in-lib".to_string(), 8),
            ("panic-in-lib".to_string(), 9),
        ],
        "nothing inside `#[cfg(test)] mod tests` may be flagged: {got:?}"
    );
}

#[test]
fn unordered_iter_fixture_flags_hash_maps_not_ordered_containers() {
    let got = hits("crates/serve/src/fixture.rs", UNORDERED_ITER);
    assert_eq!(
        got,
        vec![
            ("unordered-iter".to_string(), 13),
            ("unordered-iter".to_string(), 16),
        ],
        "Vec and BTreeMap iteration must stay clean: {got:?}"
    );
}

#[test]
fn unordered_iter_rule_is_scoped_to_deterministic_crates() {
    assert_eq!(hits("crates/tensor/src/fixture.rs", UNORDERED_ITER), vec![]);
}

#[test]
fn raw_spawn_fixture_flags_thread_primitives() {
    let got = hits("crates/serve/src/fixture.rs", RAW_SPAWN);
    assert_eq!(
        got,
        vec![("raw-spawn".to_string(), 2), ("raw-spawn".to_string(), 3)]
    );
    // The parallelism shim itself is the sanctioned home for these calls.
    assert_eq!(hits("crates/common/src/par.rs", RAW_SPAWN), vec![]);
}

#[test]
fn process_spawn_fixture_flags_commands_outside_the_transport_module() {
    // Line 1 is the `use std::process::Command` import (the `process ::
    // Command` path form), line 4 the bare `Command::new`, line 5 the
    // fully-qualified call (both patterns hit it; deduped to one).
    let got = hits("crates/serve/src/fixture.rs", PROCESS_SPAWN);
    assert_eq!(
        got,
        vec![
            ("raw-spawn".to_string(), 1),
            ("raw-spawn".to_string(), 4),
            ("raw-spawn".to_string(), 5),
        ]
    );
    // The transport's worker-spawn module is the sanctioned home for
    // subprocess creation; the thread sanction does NOT leak to it and
    // vice versa.
    assert_eq!(
        hits("crates/cluster/src/transport/spawn.rs", PROCESS_SPAWN),
        vec![]
    );
    assert_eq!(hits("crates/common/src/par.rs", PROCESS_SPAWN), vec![]);
}

#[test]
fn env_read_fixture_flags_env_access_outside_sanctioned_modules() {
    let got = hits("crates/serve/src/fixture.rs", ENV_READ);
    assert_eq!(
        got,
        vec![("env-read".to_string(), 2), ("env-read".to_string(), 3)]
    );
    assert_eq!(hits("crates/cluster/src/fault.rs", ENV_READ), vec![]);
}

#[test]
fn env_read_sanction_covers_only_the_transport_arming_module() {
    // `INFERTURBO_TRANSPORT` arming is sanctioned in `transport/env.rs`;
    // env reads anywhere else in the transport (or the cluster crate)
    // still flag.
    assert_eq!(
        hits("crates/cluster/src/transport/env.rs", ENV_READ),
        vec![]
    );
    let got = hits("crates/cluster/src/transport/frame.rs", ENV_READ);
    assert_eq!(
        got,
        vec![("env-read".to_string(), 2), ("env-read".to_string(), 3)]
    );
}

#[test]
fn env_read_sanction_covers_only_the_obs_arming_module() {
    // The `INFERTURBO_TRACE` arming hook is sanctioned; any other env
    // read inside `crates/obs` still flags.
    assert_eq!(hits("crates/obs/src/arm.rs", ENV_READ), vec![]);
    let got = hits("crates/obs/src/sink.rs", ENV_READ);
    assert_eq!(
        got,
        vec![("env-read".to_string(), 2), ("env-read".to_string(), 3)]
    );
}

#[test]
fn allow_directives_suppress_only_what_they_name() {
    let got = hits("crates/core/src/fixture.rs", ALLOWS);
    assert_eq!(
        got,
        vec![
            ("panic-in-lib".to_string(), 5),
            ("malformed-allow".to_string(), 6),
            ("panic-in-lib".to_string(), 7),
            ("malformed-allow".to_string(), 8),
        ],
        "lines 3 and 4 are covered by well-formed directives; a reason-less \
         or unknown-rule directive suppresses nothing: {got:?}"
    );
}

#[test]
fn comments_strings_and_raw_strings_never_false_positive() {
    assert_eq!(
        hits("crates/pregel/src/fixture.rs", NO_FALSE_POSITIVES),
        vec![]
    );
}

#[test]
fn ratchet_rejects_increases_and_new_entries() {
    let baseline_text =
        "[[entry]]\nrule = \"panic-in-lib\"\nfile = \"crates/bench/src/a.rs\"\ncount = 3\n";
    let base = baseline::parse(baseline_text).expect("baseline parses");
    let mut current = baseline::Counts::new();
    current.insert(
        (
            "panic-in-lib".to_string(),
            "crates/bench/src/a.rs".to_string(),
        ),
        4,
    );
    current.insert(
        ("wallclock".to_string(), "crates/core/src/b.rs".to_string()),
        1,
    );
    let report = baseline::ratchet(&current, &base);
    assert_eq!(report.regressions.len(), 2, "{:?}", report.regressions);
    assert!(!report.passes());
}

#[test]
fn ratchet_accepts_decreases_and_reports_them_as_improvements() {
    let baseline_text = concat!(
        "[[entry]]\nrule = \"panic-in-lib\"\nfile = \"crates/bench/src/a.rs\"\ncount = 3\n",
        "[[entry]]\nrule = \"env-read\"\nfile = \"crates/serve/src/c.rs\"\ncount = 1\n",
    );
    let base = baseline::parse(baseline_text).expect("baseline parses");
    let mut current = baseline::Counts::new();
    // a.rs burned one entry; c.rs burned its only one (pair vanished).
    current.insert(
        (
            "panic-in-lib".to_string(),
            "crates/bench/src/a.rs".to_string(),
        ),
        2,
    );
    let report = baseline::ratchet(&current, &base);
    assert!(report.passes(), "{:?}", report.regressions);
    assert_eq!(report.improvements.len(), 2, "{:?}", report.improvements);
}

#[test]
fn baseline_round_trips_through_render_and_parse() {
    let mut counts = baseline::Counts::new();
    counts.insert(
        (
            "panic-in-lib".to_string(),
            "crates/bench/src/a.rs".to_string(),
        ),
        7,
    );
    counts.insert(
        ("wallclock".to_string(), "crates/core/src/b.rs".to_string()),
        1,
    );
    let text = baseline::render(&counts);
    assert_eq!(baseline::parse(&text).expect("round trip"), counts);
}

#[test]
fn scan_output_is_deterministic_across_runs() {
    let a = scan_file("crates/serve/src/fixture.rs", UNORDERED_ITER);
    let b = scan_file("crates/serve/src/fixture.rs", UNORDERED_ITER);
    let render =
        |v: &[inferturbo_lint::report::Violation]| inferturbo_lint::report::render_human(v);
    assert_eq!(render(&a), render(&b));
}
