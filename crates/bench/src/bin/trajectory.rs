//! Perf-trajectory diff: compare freshly regenerated `BENCH_*.json`
//! artifacts against the committed copies and render a markdown delta
//! table (CI pipes it into `$GITHUB_STEP_SUMMARY`).
//!
//! Every row names one artifact and one dotted path into it
//! (`under_faults.latency.p99`), resolved with [`Value::get`]. Metrics come
//! in two flavours:
//!
//! * **gated** — deterministic simulated metrics (cycles, served counts,
//!   overhead fractions, collision reductions). A regression worse than
//!   10 % in the metric's bad direction fails the run: these numbers are
//!   seed-stable, so any drift is a real behaviour change, not host noise.
//!   A gated path that the fresh artifact no longer resolves also fails, so
//!   a renamed key cannot silently drop its gate.
//! * **informational** — host wall-clock metrics (ns, steps/s). They are
//!   shown in the table but never gate, since the committed copies may
//!   have been generated on different hardware.
//!
//! ```text
//! cargo run --release --bin trajectory -- --baseline <dir> [--fresh <dir>]
//! ```
//!
//! `--baseline <dir>` holds the committed artifacts (CI copies them aside
//! before rerunning the bench bins); `--fresh` defaults to the repo root,
//! where the bench bins write. `--baseline . --fresh .` checks that every
//! gated path resolves in the committed artifacts without regenerating any.
//!
//! Exits 0 when no gated metric regressed, 1 when one did, and 2 on a usage
//! error (an unknown flag, a flag without its value, no `--baseline`).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use regvault_bench::repo_root;
use regvault_cli::flags::{self, Flag};
use regvault_cli::json::Value;

/// Which direction of change is an improvement.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Better {
    Higher,
    Lower,
}

use Better::{Higher, Lower};

struct Metric {
    file: &'static str,
    path: &'static str,
    better: Better,
    gated: bool,
}

const fn gated(file: &'static str, path: &'static str, better: Better) -> Metric {
    Metric {
        file,
        path,
        better,
        gated: true,
    }
}

const fn info(file: &'static str, path: &'static str, better: Better) -> Metric {
    Metric {
        file,
        path,
        better,
        gated: false,
    }
}

const SERVE: &str = "BENCH_serve.json";
const FLEET: &str = "BENCH_fleet.json";
const FIG5A: &str = "BENCH_fig5a_unixbench.json";
const FIG5B: &str = "BENCH_fig5b_lmbench.json";
const FIG5C: &str = "BENCH_fig5c_spec.json";
const LEAKAGE: &str = "BENCH_leakage.json";
const HOTPATH: &str = "BENCH_hotpath.json";

/// The trajectory table. Gated rows are deterministic simulated metrics
/// only; wall-clock rows ride along for context.
const METRICS: &[Metric] = &[
    // Supervised serve scenario (deterministic per seed), fault-free and
    // under live faults.
    gated(SERVE, "baseline.rps_per_mcycle", Higher),
    gated(SERVE, "baseline.latency.p99", Lower),
    gated(SERVE, "under_faults.served", Higher),
    gated(SERVE, "under_faults.latency.p99", Lower),
    // Fleet scenario sections (deterministic); host sections are wall clock.
    gated(FLEET, "calm.scenario.latency.p99", Lower),
    gated(FLEET, "chaos_micro_restore.scenario.served", Higher),
    gated(FLEET, "chaos_micro_restore.scenario.recovery.p99", Lower),
    info(FLEET, "calm.host.fork_speedup", Higher),
    // Figure 5 overhead geomeans (deterministic simulated cycles).
    gated(FIG5A, "geomean.mean_full", Lower),
    gated(FIG5B, "geomean.mean_full", Lower),
    gated(FIG5C, "geomean.mean_full", Lower),
    // Leakage campaign (deterministic per seed).
    gated(LEAKAGE, "overall_reduction", Higher),
    gated(LEAKAGE, "total_on_collisions", Lower),
    info(LEAKAGE, "total_off_collisions", Higher),
    // Hot-path wall clock: context only, host-dependent.
    info(HOTPATH, "current.qarma_optimized_encrypt_ns", Lower),
    info(
        HOTPATH,
        "current.unixbench_syscall_full_steps_per_sec",
        Higher,
    ),
    gated(HOTPATH, "superblock.superblock_coverage", Higher),
];

/// Regression tolerance for gated metrics.
const TOLERANCE: f64 = 0.10;

/// Reads and parses one artifact; `None` (with a note on stderr) when it is
/// absent or malformed.
fn load(dir: &Path, file: &str) -> Option<Value> {
    let path = dir.join(file);
    let text = std::fs::read_to_string(&path).ok()?;
    Value::parse(&text)
        .map_err(|err| eprintln!("{}: {err}", path.display()))
        .ok()
}

/// Compares one metric between the committed and fresh documents: the
/// rendered table row, plus the failure it records, if any.
fn compare(
    metric: &Metric,
    before: Option<&Value>,
    after: Option<&Value>,
) -> (String, Option<String>) {
    let artifact = metric
        .file
        .trim_start_matches("BENCH_")
        .trim_end_matches(".json");
    let label = format!("{artifact}:{}", metric.path);
    let number = |doc: Option<&Value>| doc?.get(metric.path)?.as_f64();
    let (before, after) = match (number(before), number(after)) {
        (Some(before), Some(after)) => (before, after),
        // A metric new in this tree has nothing to ratchet against yet.
        (None, Some(after)) => return (format!("| {label} | — | {after:.4} | — | new |"), None),
        (before, None) => {
            let committed = before.map_or("—".to_owned(), |b| format!("{b:.4}"));
            let status = if metric.gated { "**MISSING**" } else { "n/a" };
            let failure = format!("{label}: gated path does not resolve in the fresh artifact");
            let line = format!("| {label} | {committed} | — | — | {status} |");
            return (line, metric.gated.then_some(failure));
        }
    };
    // Signed relative change, oriented so positive = improvement; any move
    // off a zero baseline counts as infinitely large.
    let sign = if metric.better == Higher { 1.0 } else { -1.0 };
    let delta = if after == before {
        0.0
    } else {
        sign * (after - before) / before.abs()
    };
    let regressed = metric.gated && delta < -TOLERANCE;
    let status = match (regressed, metric.gated) {
        (true, _) => "**REGRESSED**",
        (false, true) => "ok (gated)",
        (false, false) => "info",
    };
    let pct = format!("{:+.1}%", delta * 100.0);
    let line = format!("| {label} | {before:.4} | {after:.4} | {pct} | {status} |");
    (
        line,
        regressed.then(|| format!("{label}: {before:.4} -> {after:.4} ({pct})")),
    )
}

fn main() -> ExitCode {
    let (mut baseline_dir, mut fresh_dir) = (None::<String>, repo_root());
    let usage = flags::parse_env_or_exit(
        "trajectory",
        &mut [
            Flag::text("--baseline", "DIR", &mut baseline_dir),
            Flag::text("--fresh", "DIR", &mut fresh_dir),
        ],
        "",
    );
    let Some(baseline_dir) = baseline_dir.map(PathBuf::from) else {
        flags::usage_error("`--baseline` is required", &usage);
    };

    println!("## Bench trajectory\n");
    println!("| metric | committed | fresh | delta | status |");
    println!("|---|---:|---:|---:|---|");

    let mut failures = Vec::new();
    for metric in METRICS {
        let before = load(&baseline_dir, metric.file);
        let after = load(&fresh_dir, metric.file);
        let (line, failure) = compare(metric, before.as_ref(), after.as_ref());
        println!("{line}");
        failures.extend(failure);
    }
    println!();

    if failures.is_empty() {
        println!(
            "No gated metric regressed beyond {:.0}% or went missing.",
            TOLERANCE * 100.0
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "**{} gated metric(s) regressed beyond {:.0}% or went missing:**\n",
            failures.len(),
            TOLERANCE * 100.0
        );
        for failure in &failures {
            println!("- {failure}");
            eprintln!("FAIL: {failure}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regvault_cli::json;

    /// A serve artifact whose fault-free and faulted sections share leaf
    /// keys (`served`, `latency.p99`).
    fn serve_doc(faulted_served: u64) -> Value {
        let section = |served: u64, p99: u64| {
            json!({
                "served": served,
                "rps_per_mcycle": 33.8,
                "latency": json!({ "p99": p99 }),
            })
        };
        json!({
            "baseline": section(2000, 56_888),
            "under_faults": section(faulted_served, 117_274),
        })
    }

    fn failures(before: &Value, after: &Value, file: &str) -> Vec<String> {
        METRICS
            .iter()
            .filter(|m| m.file == file)
            .filter_map(|m| compare(m, Some(before), Some(after)).1)
            .collect()
    }

    #[test]
    fn faulted_section_regression_fails_the_run() {
        // Only `under_faults.served` moves (-20%). A first-match lookup of
        // `served` would read the fault-free section and pass.
        let committed = serve_doc(458);
        let fresh = serve_doc(366);
        let failed = failures(&committed, &fresh, SERVE);
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert!(
            failed[0].starts_with("serve:under_faults.served"),
            "{failed:?}"
        );
        // An improvement of the same size passes: the gate is directional.
        assert!(failures(&committed, &serve_doc(550), SERVE).is_empty());
        assert!(failures(&committed, &committed, SERVE).is_empty());
    }

    #[test]
    fn unresolved_gated_path_fails_but_new_metric_passes() {
        let metric = gated(SERVE, "under_faults.served", Higher);
        let (renamed, ok) = (json!({ "under_faults": json!({}) }), serve_doc(458));
        let fails = |before, after| compare(&metric, before, after).1.is_some();
        assert!(fails(Some(&renamed), Some(&renamed)));
        assert!(fails(None, None));
        assert!(fails(Some(&ok), Some(&renamed)));
        assert!(!fails(Some(&renamed), Some(&ok)));
        // Informational rows never fail, resolved or not.
        let metric = info(SERVE, "nowhere", Higher);
        assert!(compare(&metric, None, None).1.is_none());
    }
}
