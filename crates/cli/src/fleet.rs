//! The `fleet` subcommand: fork a fleet of machines from one warm
//! snapshot, drive them across a work-stealing pool (optionally under a
//! chaos kill schedule), and report serving/recovery accounting.

use std::fmt::Write as _;

use regvault_server::fleet::{run_fleet, FleetConfig, FleetReport, FleetScenario};

use crate::flags::{self, Flag};
use crate::json;
use crate::json::Value;
use crate::serve::latency_json;
use crate::CliError;

/// Parsed `fleet` arguments.
#[derive(Debug, Clone, Default)]
pub struct FleetArgs {
    /// Scenario configuration.
    pub config: FleetConfig,
    /// Emit machine-readable JSON.
    pub json: bool,
    /// Smoke mode: a short chaos run that exits non-zero unless the
    /// accounting identity holds, every kill was recovered, and the warm
    /// image passed its restore-integrity checks.
    pub smoke: bool,
}

/// The `fleet` flag table, writing into `args`.
pub(crate) fn flag_table(args: &mut FleetArgs) -> Vec<Flag<'_>> {
    let config = &mut args.config;
    vec![
        Flag::int("--instances", "N", &mut config.instances),
        Flag::int("--requests", "N", &mut config.requests_per_instance),
        Flag::int("--rate", "CYCLES", &mut config.mean_interarrival),
        Flag::int("--deadline", "CYCLES", &mut config.deadline),
        Flag::int("--chaos", "K", &mut config.chaos_kill_interval),
        Flag::action("--cold", || config.micro_restore = false),
        Flag::int("--workers", "N", &mut config.workers),
        Flag::int("--seed", "S", &mut config.seed),
        Flag::switch("--json", &mut args.json),
        Flag::switch("--smoke", &mut args.smoke),
    ]
}

/// Parses `fleet` flags.
///
/// # Errors
///
/// Describes the offending flag or value.
pub fn parse_fleet_args(args: &[String]) -> Result<FleetArgs, CliError> {
    let mut parsed = FleetArgs::default();
    flags::parse_flags(args, &mut flag_table(&mut parsed))?;
    let config = &mut parsed.config;
    if parsed.smoke {
        // Short but adversarial: a small chaotic fleet.
        config.instances = config.instances.min(8);
        config.requests_per_instance = config.requests_per_instance.min(16);
        if config.chaos_kill_interval == 0 {
            config.chaos_kill_interval = 6;
        }
    }
    Ok(parsed)
}

/// The fleet report as JSON: the one serializer behind `fleet --json` and
/// each section of `BENCH_fleet.json`. The `scenario` object is
/// deterministic per seed; the `host` object carries wall-clock
/// measurements.
#[must_use]
pub fn to_json(report: &FleetReport) -> Value {
    let h = &report.host;
    json!({
        "scenario": scenario_json(&report.scenario),
        "host": json!({
            "boot_nanos": h.boot_nanos,
            "fork_nanos_mean": h.fork_nanos_mean(),
            "fork_speedup": h.fork_speedup(),
            "run_nanos": h.run_nanos,
            "workers": h.workers,
            "steps_per_sec": report.steps_per_sec(),
        }),
    })
}

/// The deterministic scenario half as JSON — identical across runs with the
/// same seed and config, for seed-stability checks.
#[must_use]
pub fn scenario_json(s: &FleetScenario) -> Value {
    let recovery = &s.recovery_latency;
    let rq = |x: f64| recovery.quantile(x).unwrap_or(0);
    json!({
        "instances": s.instances,
        "offered": s.offered,
        "served": s.served,
        "failed": s.failed,
        "shed": s.shed,
        "accounting_holds": s.accounting_holds(),
        "kills": s.kills,
        "micro_restores": s.micro_restores,
        "cold_boots": s.cold_boots,
        "restore_mismatches": s.restore_mismatches,
        "steps": s.steps,
        "busy_cycles": s.busy_cycles,
        "latency": latency_json(&s.latency),
        "recovery": json!({
            "count": recovery.count(),
            "mean": recovery.mean(),
            "p50": rq(0.5),
            "p99": rq(0.99),
        }),
        "warm_pages": s.warm_pages,
        "dirty_pages_mean": s.dirty_pages_mean(),
        "dirty_pages_max": s.dirty_pages_max,
    })
}

/// Renders a fleet report for humans.
#[must_use]
pub fn render_human(report: &FleetReport) -> String {
    let s = &report.scenario;
    let h = &report.host;
    let q = |x: f64| s.latency.quantile(x).unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fleet: {} instances, {} offered = {} served + {} failed + {} shed ({})",
        s.instances,
        s.offered,
        s.served,
        s.failed,
        s.shed,
        if s.accounting_holds() {
            "accounting holds"
        } else {
            "ACCOUNTING VIOLATION"
        }
    );
    let _ = writeln!(
        out,
        "  fork      : {} warm pages shared; {:.1} dirty pages/instance \
         (max {}); fork {:.0} ns vs boot {} ns ({:.1}x cheaper)",
        s.warm_pages,
        s.dirty_pages_mean(),
        s.dirty_pages_max,
        h.fork_nanos_mean(),
        h.boot_nanos,
        h.fork_speedup(),
    );
    let _ = writeln!(
        out,
        "  serving   : {} steps across {} workers, {:.2} Msteps/s; \
         latency p50={} p90={} p99={} cycles",
        s.steps,
        h.workers,
        report.steps_per_sec() / 1e6,
        q(0.5),
        q(0.9),
        q(0.99),
    );
    if s.kills > 0 {
        let _ = writeln!(
            out,
            "  chaos     : {} kills -> {} micro-restores + {} cold boots \
             ({} integrity mismatches); recovery p50={} p99={} cycles",
            s.kills,
            s.micro_restores,
            s.cold_boots,
            s.restore_mismatches,
            s.recovery_latency.quantile(0.5).unwrap_or(0),
            s.recovery_latency.quantile(0.99).unwrap_or(0),
        );
    }
    out
}

/// A run's health criteria, shared by `fleet --smoke` and the bench bin:
/// the accounting identity holds, every kill was recovered, and the warm
/// image passed every restore-integrity check.
///
/// # Errors
///
/// Describes the first criterion the scenario misses.
pub fn gate(s: &FleetScenario) -> Result<(), CliError> {
    if !s.accounting_holds() {
        Err("accounting identity violated".to_owned())
    } else if s.micro_restores + s.cold_boots != s.kills {
        Err("unrecovered kill".to_owned())
    } else if s.restore_mismatches > 0 {
        Err("warm image failed integrity check".to_owned())
    } else {
        Ok(())
    }
}

/// Runs the fleet scenario.
///
/// # Errors
///
/// Returns flag-parse failures and — in `--smoke` mode — a non-zero exit
/// when the accounting identity is violated, a kill went unrecovered, or
/// the warm image failed a restore-integrity check.
pub fn cmd_fleet(args: &[String]) -> Result<String, CliError> {
    let args = parse_fleet_args(args)?;
    let report = run_fleet(&args.config);
    let rendered = if args.json {
        to_json(&report).render()
    } else {
        render_human(&report)
    };
    if args.smoke {
        let s = &report.scenario;
        let chaos = if s.kills == 0 {
            Err("chaos never fired".to_owned())
        } else if s.served == 0 {
            Err("nothing served through chaos".to_owned())
        } else {
            Ok(())
        };
        gate(s)
            .and(chaos)
            .map_err(|err| format!("{rendered}fleet --smoke: {err}\n"))?;
    }
    Ok(rendered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::args as s;

    #[test]
    fn smoke_run_passes_the_gate() {
        let out = cmd_fleet(&s(&["--smoke", "--seed", "11"])).expect("smoke passes");
        assert!(out.contains("accounting holds"), "{out}");
        assert!(out.contains("chaos"), "{out}");
    }

    #[test]
    fn cold_mode_recovers_by_booting() {
        let out = cmd_fleet(&s(&[
            "--instances",
            "4",
            "--requests",
            "10",
            "--chaos",
            "4",
            "--cold",
            "--seed",
            "5",
        ]))
        .expect("cold fleet runs");
        assert!(out.contains("cold boots"), "{out}");
        assert!(out.contains("0 micro-restores"), "{out}");
    }

    #[test]
    fn bad_flags_are_reported() {
        assert!(cmd_fleet(&s(&["--bogus"])).is_err());
        assert!(cmd_fleet(&s(&["--instances"])).is_err());
        assert!(cmd_fleet(&s(&["--instances", "lots"])).is_err());
    }

    /// Seed stability: the deterministic scenario body is byte-identical
    /// across runs with the same seed — including across different worker
    /// counts — and changes with the seed.
    #[test]
    fn same_seed_renders_identical_scenario_json() {
        let cfg = FleetConfig {
            instances: 5,
            requests_per_instance: 10,
            chaos_kill_interval: 4,
            seed: 0xABCD,
            ..FleetConfig::default()
        };
        let scenario = |cfg: &FleetConfig| scenario_json(&run_fleet(cfg).scenario).render();
        let a = scenario(&cfg);
        let b = scenario(&FleetConfig { workers: 1, ..cfg });
        assert_eq!(a, b, "scenario body must be seed-stable");
        let c = scenario(&FleetConfig {
            seed: 0xABCE,
            ..cfg
        });
        assert_ne!(a, c, "a different seed must actually change the run");
    }
}
