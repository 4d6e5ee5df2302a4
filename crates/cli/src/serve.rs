//! The `serve` subcommand: run the supervised multi-tenant server scenario
//! and report sustained throughput, latency quantiles, and recovery
//! accounting.

use std::fmt::Write as _;

use regvault_metrics::HistogramData;
use regvault_server::{ServeConfig, ServeReport, Supervisor};

use crate::flags::{self, Flag};
use crate::json;
use crate::json::Value;
use crate::{parse_config, CliError};

/// Parsed `serve` arguments.
#[derive(Debug, Clone, Default)]
pub struct ServeArgs {
    /// Scenario configuration.
    pub config: ServeConfig,
    /// Emit machine-readable JSON.
    pub json: bool,
    /// Smoke mode: a short faulted run that exits non-zero unless the
    /// accounting identity holds and the run completed.
    pub smoke: bool,
}

/// The `serve` flag table, writing into `args`.
pub(crate) fn flag_table(args: &mut ServeArgs) -> Vec<Flag<'_>> {
    let config = &mut args.config;
    vec![
        Flag::int("--tenants", "N", &mut config.tenants),
        Flag::int("--requests", "N", &mut config.requests),
        Flag::int("--rate", "CYCLES", &mut config.mean_interarrival),
        Flag::int("--faults", "CYCLES", &mut config.fault_interval),
        Flag::int("--seed", "S", &mut config.seed),
        Flag::int("--queue-cap", "N", &mut config.queue_cap),
        Flag::value("--config", "LABEL", |label| {
            parse_config(label).map(|protection| config.protection = protection)
        }),
        Flag::action("--no-micro-reboot", || config.micro_reboot = false),
        Flag::int("--deadline-factor", "K", &mut config.deadline_factor),
        Flag::switch("--json", &mut args.json),
        Flag::switch("--smoke", &mut args.smoke),
    ]
}

/// Parses `serve` flags.
///
/// # Errors
///
/// Describes the offending flag or value.
pub fn parse_serve_args(args: &[String]) -> Result<ServeArgs, CliError> {
    let mut parsed = ServeArgs::default();
    flags::parse_flags(args, &mut flag_table(&mut parsed))?;
    let config = &mut parsed.config;
    if parsed.smoke {
        // Short but adversarial: live faults on, small request budget.
        config.requests = config.requests.min(150);
        if config.fault_interval == 0 {
            config.fault_interval = 50_000;
        }
    }
    Ok(parsed)
}

/// The `{count, mean, p50, p90, p99}` summary of a cycle-latency histogram,
/// shared by the serve and fleet reports.
pub(crate) fn latency_json(latency: &HistogramData) -> Value {
    let q = |x: f64| latency.quantile(x).unwrap_or(0);
    json!({
        "count": latency.count(),
        "mean": latency.mean(),
        "p50": q(0.5),
        "p90": q(0.9),
        "p99": q(0.99),
    })
}

/// The serve report as JSON: the one serializer behind `serve --json` and
/// each section of `BENCH_serve.json`.
#[must_use]
pub fn to_json(r: &ServeReport) -> Value {
    let tenants: Vec<Value> = r
        .tenants
        .iter()
        .map(|t| {
            json!({
                "slot": t.slot,
                "state": t.state,
                "served": t.served,
                "failed": t.failed,
                "shed": t.shed,
                "respawns": t.respawns,
                "respawns_denied": t.respawns_denied,
                "breaker_opens": t.breaker_opens,
            })
        })
        .collect();
    json!({
        "offered": r.offered,
        "served": r.served,
        "failed": r.failed,
        "shed": r.shed,
        "shed_deadline": r.shed_deadline,
        "accounting_holds": r.accounting_holds(),
        "rps_per_mcycle": r.rps_per_mcycle(),
        "faults_injected": r.faults_injected,
        "recoveries": r.recoveries,
        "respawns": r.respawns,
        "respawns_denied": r.respawns_denied,
        "frontend_respawns": r.frontend_respawns,
        "cold_restarts": r.cold_restarts,
        "micro_reboots": r.micro_reboots,
        "micro_reboot_mismatches": r.micro_reboot_mismatches,
        "breaker_opens": r.breaker_opens,
        "terminal_tenants": r.terminal_tenants,
        "cycles": r.cycles,
        "aborted": r.aborted,
        "latency": latency_json(&r.latency),
        "tenants": tenants,
    })
}

/// Renders a serve report for humans.
#[must_use]
pub fn render_human(report: &ServeReport) -> String {
    let q = |x: f64| report.latency.quantile(x).unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "serve: {} offered = {} served + {} failed + {} shed ({})",
        report.offered,
        report.served,
        report.failed,
        report.shed,
        if report.accounting_holds() {
            "accounting holds"
        } else {
            "ACCOUNTING VIOLATION"
        }
    );
    let _ = writeln!(
        out,
        "  throughput: {:.2} served/Mcycle over {} cycles",
        report.rps_per_mcycle(),
        report.cycles
    );
    let _ = writeln!(
        out,
        "  latency   : p50={} p90={} p99={} cycles (n={})",
        q(0.5),
        q(0.9),
        q(0.99),
        report.latency.count()
    );
    let _ = writeln!(
        out,
        "  faults    : {} injected, {} fail-overs, {} respawns \
         ({} denied), {} frontend respawns, {} micro reboots, {} cold restarts",
        report.faults_injected,
        report.recoveries,
        report.respawns,
        report.respawns_denied,
        report.frontend_respawns,
        report.micro_reboots,
        report.cold_restarts
    );
    if report.shed_deadline > 0 {
        let _ = writeln!(
            out,
            "  deadline  : {} stale request(s) shed at dequeue",
            report.shed_deadline
        );
    }
    let _ = writeln!(
        out,
        "  breakers  : {} opens, {} terminal tenant(s)",
        report.breaker_opens, report.terminal_tenants
    );
    for t in &report.tenants {
        let _ = writeln!(
            out,
            "  tenant {}  : {:<22} served={} failed={} shed={} respawns={}",
            t.slot, t.state, t.served, t.failed, t.shed, t.respawns
        );
    }
    if report.aborted {
        let _ = writeln!(out, "  ABORTED: run stopped at its safety guard");
    }
    out
}

/// A run's health criteria, shared by `serve --smoke` and the bench bin:
/// the run completed, the accounting identity holds, and every tenant ends
/// recovered (serving/probation/restarting) or explicitly quarantined
/// behind an open breaker — there is no fourth state.
///
/// # Errors
///
/// Describes the first criterion the report misses.
pub fn gate(report: &ServeReport) -> Result<(), CliError> {
    let known = |state: &str| {
        matches!(
            state,
            "serving" | "probation" | "restarting" | "breaker-open" | "breaker-open-terminal"
        )
    };
    if report.aborted {
        Err("run aborted at its safety guard".to_owned())
    } else if !report.accounting_holds() {
        Err("accounting identity violated".to_owned())
    } else if !report.tenants.iter().all(|t| known(t.state)) {
        Err("tenant in unknown supervision state".to_owned())
    } else {
        Ok(())
    }
}

/// Runs the serve scenario.
///
/// # Errors
///
/// Returns flag-parse failures, kernel boot failures, and — in `--smoke`
/// mode — a non-zero exit when the run aborted or the accounting identity
/// is violated.
pub fn cmd_serve(args: &[String]) -> Result<String, CliError> {
    let args = parse_serve_args(args)?;
    let report = Supervisor::new(args.config)
        .map_err(|e| format!("serve: kernel boot failed: {e}"))?
        .run();
    let rendered = if args.json {
        to_json(&report).render()
    } else {
        render_human(&report)
    };
    if args.smoke {
        // Smoke mode always arms the injector; a zero count means it
        // silently failed to fire.
        let fired = match report.faults_injected {
            0 => Err("fault injector never fired".to_owned()),
            _ => Ok(()),
        };
        gate(&report)
            .and(fired)
            .map_err(|err| format!("{rendered}serve --smoke: {err}\n"))?;
    }
    Ok(rendered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::args as s;

    #[test]
    fn smoke_run_passes_the_gate() {
        let out = cmd_serve(&s(&["--smoke", "--seed", "9"])).expect("smoke passes");
        assert!(out.contains("accounting holds"), "{out}");
        assert!(out.contains("faults"), "{out}");
    }

    #[test]
    fn bad_flags_are_reported() {
        assert!(cmd_serve(&s(&["--bogus"])).is_err());
        assert!(cmd_serve(&s(&["--tenants"])).is_err());
        assert!(cmd_serve(&s(&["--tenants", "lots"])).is_err());
        assert!(cmd_serve(&s(&["--config", "yolo"])).is_err());
    }

    /// Seed stability: the serve scenario runs entirely in virtual time,
    /// so the full JSON body (latency quantiles included) is byte-identical
    /// for the same seed and differs for another.
    #[test]
    fn same_seed_renders_identical_json() {
        let args = |seed: &str| {
            s(&[
                "--json",
                "--requests",
                "80",
                "--faults",
                "40000",
                "--seed",
                seed,
            ])
        };
        let a = cmd_serve(&args("21")).expect("serve runs");
        let b = cmd_serve(&args("21")).expect("serve runs");
        assert_eq!(a, b, "serve JSON must be seed-stable");
        let c = cmd_serve(&args("22")).expect("serve runs");
        assert_ne!(a, c, "a different seed must actually change the run");
    }

    #[test]
    fn unprotected_config_is_accepted() {
        let out = cmd_serve(&s(&["--config", "base", "--requests", "40", "--seed", "2"]))
            .expect("base config runs");
        assert!(out.contains("accounting holds"), "{out}");
    }
}
