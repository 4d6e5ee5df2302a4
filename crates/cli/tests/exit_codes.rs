//! Exit-code contract of the `regvault-cli` binary.
//!
//! CI pipelines (and `scripts/check.sh`) rely on the process exit status:
//! findings, divergences and malformed inputs must all be nonzero, clean
//! runs zero. These tests shell out to the real binary so the full
//! main() → run() → subcommand path is covered.

use std::path::PathBuf;
use std::process::{Command, Output};

use regvault_cli::json::Value;

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_regvault-cli"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn scratch(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "regvault_cli_exit_codes_{}_{name}",
        std::process::id()
    ));
    std::fs::write(&path, contents).expect("write scratch file");
    path
}

/// Parses a successful run's stdout as one JSON document.
fn parse_stdout(out: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    Value::parse(&stdout).unwrap_or_else(|err| panic!("{err}: {stdout}"))
}

const CLEAN_PROGRAM: &str = "main:\n  li a0, 1\n  ebreak\n";

/// A decrypted value spilled to the stack unencrypted — a verifier finding.
const SPILL_PROGRAM: &str = "main:
  addi sp, sp, -16
  crdak a0, a0, t1, [7:0]
  sd a0, 0(sp)
  ebreak
";

const CRYPTO_PROGRAM: &str = "main:
  li   t1, 0x9000
  li   a0, 0xbeef
  creak a0, a0[3:0], t1
  crdak a0, a0, t1, [3:0]
  ebreak
";

#[test]
fn verify_is_zero_on_clean_and_nonzero_on_findings() {
    let clean = scratch("clean.s", CLEAN_PROGRAM);
    let out = cli(&["verify", clean.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");

    let dirty = scratch("spill.s", SPILL_PROGRAM);
    let out = cli(&["verify", dirty.to_str().unwrap()]);
    assert!(!out.status.success(), "findings must exit nonzero: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("plain-spill"), "{stderr}");
}

#[test]
fn verify_rejects_malformed_assembly() {
    let bad = scratch("bad.s", "frobnicate the bits\n");
    let out = cli(&["verify", bad.to_str().unwrap()]);
    assert!(!out.status.success(), "{out:?}");
}

#[test]
fn record_then_replay_round_trips_and_corruption_fails() {
    let program = scratch("record.s", CRYPTO_PROGRAM);
    let bundle = std::env::temp_dir().join(format!(
        "regvault_cli_exit_codes_{}.bundle",
        std::process::id()
    ));
    let out = cli(&[
        "record",
        program.to_str().unwrap(),
        bundle.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");

    let out = cli(&["replay", bundle.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("replay OK"));

    // Flip one byte: the bundle checksum must reject it, nonzero.
    let mut bytes = std::fs::read(&bundle).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 1;
    std::fs::write(&bundle, &bytes).unwrap();
    let out = cli(&["replay", bundle.to_str().unwrap()]);
    assert!(!out.status.success(), "corrupt bundle must fail: {out:?}");
}

#[test]
fn replay_rejects_garbage_input() {
    let garbage = scratch("garbage.bundle", "this is not a bundle");
    let out = cli(&["replay", garbage.to_str().unwrap()]);
    assert!(!out.status.success(), "{out:?}");
}

#[test]
fn trace_emits_chrome_json_and_rejects_malformed_input() {
    let program = scratch("trace.s", CRYPTO_PROGRAM);
    let out = cli(&["trace", program.to_str().unwrap(), "--chrome"]);
    assert!(out.status.success(), "{out:?}");
    let doc = parse_stdout(&out);
    let Some(Value::Arr(events)) = doc.get("traceEvents") else {
        panic!("no traceEvents array: {doc:?}");
    };
    assert!(
        events
            .iter()
            .any(|e| e.get("name") == Some(&Value::from("qarma"))),
        "{doc:?}"
    );

    let bad = scratch("trace_bad.s", "not assembly at all\n");
    let out = cli(&["trace", bad.to_str().unwrap()]);
    assert!(!out.status.success(), "malformed input must fail: {out:?}");

    let out = cli(&["trace", "--workload", "no-such-workload"]);
    assert!(!out.status.success(), "unknown workload must fail: {out:?}");
}

#[test]
fn unknown_commands_exit_nonzero_with_usage() {
    let out = cli(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

/// Two encryptions under the same `(key, tweak)` pair: no error-severity
/// finding, but a tweak-diversity *warning* in whole-program mode.
const TWEAK_REUSE_PROGRAM: &str = "main:
  addi t6, sp, 8
  creak t5, t0[7:0], t6
  creak t4, a4[7:0], t6
  ebreak
";

#[test]
fn verify_workloads_corpus_gate_is_zero() {
    // The clean-or-fail invocation CI runs.
    let out = cli(&["verify", "--workloads", "--interprocedural"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("verified 68 images: 0 violation(s)"),
        "{stdout}"
    );
    assert!(stdout.contains("call graph:"), "{stdout}");
}

#[test]
fn verify_sarif_emits_a_document_and_keeps_the_exit_contract() {
    let clean = scratch("sarif_clean.s", CLEAN_PROGRAM);
    let out = cli(&["verify", clean.to_str().unwrap(), "--sarif"]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(
        parse_stdout(&out).get("version"),
        Some(&Value::from("2.1.0"))
    );

    let dirty = scratch("sarif_spill.s", SPILL_PROGRAM);
    let out = cli(&["verify", dirty.to_str().unwrap(), "--sarif"]);
    assert!(!out.status.success(), "findings must exit nonzero: {out:?}");
    // Failure output goes to stderr; the SARIF document still carries the
    // finding so CI can upload it.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("plain-spill"), "{stderr}");
}

#[test]
fn verify_fails_on_warnings_too() {
    let program = scratch("tweak_reuse.s", TWEAK_REUSE_PROGRAM);
    let file = program.to_str().unwrap();

    // Per-function mode sees nothing...
    let out = cli(&["verify", file]);
    assert!(out.status.success(), "{out:?}");

    // ...and the whole-program warning alone fails the run.
    let out = cli(&["verify", file, "--interprocedural"]);
    assert!(!out.status.success(), "a warning must fail: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("tweak-diversity"), "{stderr}");
}

#[test]
fn verify_rejects_contradictory_flag_combinations() {
    let out = cli(&["verify", "--workloads", "some.s"]);
    assert!(!out.status.success(), "{out:?}");
    let clean = scratch("flags_clean.s", CLEAN_PROGRAM);
    let out = cli(&["verify", clean.to_str().unwrap(), "--json", "--sarif"]);
    assert!(!out.status.success(), "{out:?}");
}

/// Every JSON-emitting subcommand prints exactly one document that the
/// workspace's own parser reads back. Each check is a dotted path that must
/// resolve, optionally `=` the JSON value it must hold.
#[test]
fn every_json_subcommand_prints_one_parseable_document() {
    let program = scratch("json_all.s", CRYPTO_PROGRAM);
    let file = program.to_str().unwrap();
    let cases: [(&[&str], &str); 10] = [
        (
            &["serve", "--smoke", "--json"],
            "accounting_holds=true latency.p99 tenants.0.state",
        ),
        (
            &["fleet", "--smoke", "--json"],
            "scenario.accounting_holds=true host.fork_speedup",
        ),
        (&["leakage", "--smoke", "--json"], "overall_reduction"),
        (
            &["metrics", file, "--json"],
            concat!(
                "counters.clb_hits counters.clb_misses counters.qarma_ops_ksel_a ",
                "clb_hit_rate clb.hits clb.misses",
            ),
        ),
        // The counter names perfbench reads (with a zero default, so a
        // renamed counter would otherwise read as 0 rather than fail).
        (
            &["metrics", "--workload", "syscall", "--json"],
            concat!(
                "counters.sched_syscalls counters.sched_context_switches ",
                "counters.key_invalidations counters.epoch_rekeys",
            ),
        ),
        (
            &["profile", file, "--json"],
            r#"functions.0.name="main" functions.0.crypto_ops=2 total_steps"#,
        ),
        (&["trace", file, "--json"], "emitted records.0.kind"),
        (&["trace", file, "--chrome"], "traceEvents.0.ph"),
        (&["verify", file, "--json"], "clean=true crypto_ops=2"),
        (
            &["verify", "--workloads", "--sarif"],
            r#"version="2.1.0" runs.0.tool.driver.name="regvault-verifier""#,
        ),
    ];
    for (args, checks) in cases {
        let out = cli(args);
        assert!(out.status.success(), "{args:?}: {out:?}");
        let doc = parse_stdout(&out);
        for check in checks.split(' ') {
            let (path, want) = match check.split_once('=') {
                Some((path, want)) => (path, Some(Value::parse(want).expect("check value"))),
                None => (check, None),
            };
            let got = doc.get(path);
            let ok = got.is_some() && (want.is_none() || got == want.as_ref());
            assert!(ok, "{args:?}: `{check}` resolved to {got:?}");
        }
    }
}

/// Every integer flag goes through one parser: a hex value is the same
/// number as its decimal spelling, down to the last byte of the report.
#[test]
fn hex_and_decimal_integer_flags_are_interchangeable() {
    let hex = cli(&["serve", "--smoke", "--json", "--seed", "0xc0ffee00"]);
    let dec = cli(&["serve", "--smoke", "--json", "--seed", "3237998080"]);
    assert!(hex.status.success(), "{hex:?}");
    assert_eq!(hex.stdout, dec.stdout);
}
