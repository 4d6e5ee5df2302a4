//! The `leakage` subcommand: run the ciphertext side-channel campaign
//! over the workload corpus (plus the supervised serve scenario) and
//! report dictionary collisions with the nonce-diversified rekey
//! mitigation off vs on.

use std::fmt::Write as _;

use regvault_attacks::leakage::{
    cip_frame_windows, measure_scenario, trap_storm_scenario, GuestScenario, LeakageReport,
    ScenarioLeakage,
};
use regvault_attacks::oracle::{CollisionReport, MemOracle};
use regvault_server::{ServeConfig, Supervisor};
use regvault_workloads::{lmbench::Lmbench, spec::Spec, unixbench::UnixBench, Workload};

use crate::flags::{self, Flag};
use crate::json;
use crate::json::Value;
use crate::CliError;

/// Default campaign seed (shared with the bench bin so the committed
/// `BENCH_leakage.json` reproduces byte-for-byte).
pub const DEFAULT_SEED: u64 = 0x5EC7_0C11;

/// Parsed `leakage` arguments.
#[derive(Debug, Clone)]
pub struct LeakageArgs {
    /// Campaign seed.
    pub seed: u64,
    /// Emit machine-readable JSON.
    pub json: bool,
    /// Smoke mode: a trimmed corpus, exiting non-zero unless the
    /// unmitigated runs leak and the mitigation cuts collisions >= 10x.
    pub smoke: bool,
}

impl Default for LeakageArgs {
    fn default() -> Self {
        Self {
            seed: DEFAULT_SEED,
            json: false,
            smoke: false,
        }
    }
}

/// The `leakage` flag table, writing into `args`.
pub(crate) fn flag_table(args: &mut LeakageArgs) -> Vec<Flag<'_>> {
    vec![
        Flag::int("--seed", "S", &mut args.seed),
        Flag::switch("--json", &mut args.json),
        Flag::switch("--smoke", &mut args.smoke),
    ]
}

/// Parses `leakage` flags.
///
/// # Errors
///
/// Describes the offending flag or value.
pub fn parse_leakage_args(args: &[String]) -> Result<LeakageArgs, CliError> {
    let mut parsed = LeakageArgs::default();
    flags::parse_flags(args, &mut flag_table(&mut parsed))?;
    Ok(parsed)
}

fn workload_scenario(workload: &dyn Workload) -> GuestScenario {
    let (image, entry) = workload.program();
    GuestScenario::new(workload.name(), image, entry)
}

/// The guest corpus: the synthetic trap storm plus (full mode) every
/// UnixBench/LMbench/SPEC workload.
#[must_use]
pub fn corpus(smoke: bool) -> Vec<GuestScenario> {
    let mut scenarios = vec![trap_storm_scenario()];
    if smoke {
        scenarios.push(workload_scenario(&UnixBench::Syscall));
        scenarios.push(workload_scenario(&UnixBench::Context1));
    } else {
        for w in UnixBench::ALL {
            scenarios.push(workload_scenario(&w));
        }
        for w in Lmbench::ALL {
            scenarios.push(workload_scenario(&w));
        }
        for w in Spec::ALL {
            scenarios.push(workload_scenario(&w));
        }
    }
    scenarios
}

/// Runs the supervised serve scenario with the oracle installed, one arm
/// per mitigation setting. Fault injection stays off: a cold restart
/// boots a fresh kernel and would silently drop the oracle mid-run.
///
/// # Errors
///
/// Describes a kernel boot/run failure.
pub fn serve_scenario(seed: u64, smoke: bool) -> Result<ScenarioLeakage, CliError> {
    let arm = |epoch_rekey: bool| -> Result<(CollisionReport, u64), CliError> {
        let cfg = ServeConfig {
            requests: if smoke { 60 } else { 200 },
            fault_interval: 0,
            seed,
            epoch_rekey,
            ..ServeConfig::default()
        };
        let mut supervisor = Supervisor::new(cfg).map_err(|e| format!("serve boot: {e:?}"))?;
        supervisor
            .kernel_mut()
            .machine_mut()
            .install_tracer(Box::new(MemOracle::watching(cip_frame_windows())));
        let report = supervisor.run_instrumented();
        if report.aborted {
            return Err("serve leakage scenario aborted".to_owned());
        }
        let rekeys = supervisor.kernel_mut().machine().engine().epoch_rekeys();
        let oracle = supervisor
            .kernel_mut()
            .machine_mut()
            .take_tracer()
            .ok_or("serve run lost the oracle (unexpected cold restart?)")?
            .into_any()
            .downcast::<MemOracle>()
            .map_err(|_| "tracer was not the oracle".to_owned())?;
        Ok((oracle.report(), rekeys))
    };
    let (off, _) = arm(false)?;
    let (on, epoch_rekeys) = arm(true)?;
    Ok(ScenarioLeakage {
        name: "serve".to_owned(),
        off,
        on,
        epoch_rekeys,
    })
}

/// Runs the whole campaign (guest corpus + serve scenario).
///
/// # Errors
///
/// Describes the first scenario failure.
pub fn run_campaign(seed: u64, smoke: bool) -> Result<LeakageReport, CliError> {
    let mut scenarios = Vec::new();
    for scenario in corpus(smoke) {
        scenarios.push(
            measure_scenario(&scenario, seed)
                .map_err(|e| format!("leakage scenario `{}`: {e:?}", scenario.name))?,
        );
    }
    scenarios.push(serve_scenario(seed, smoke)?);
    Ok(LeakageReport { scenarios })
}

fn collisions_json(c: &CollisionReport) -> Value {
    json!({
        "observations": c.observations,
        "distinct_pairs": c.distinct_pairs,
        "collisions": c.collisions,
        "colliding_pairs": c.colliding_pairs,
        "rate": c.collision_rate(),
    })
}

/// The campaign as JSON: the one serializer behind `leakage --json` and
/// `BENCH_leakage.json` (byte-stable per seed).
#[must_use]
pub fn to_json(report: &LeakageReport, seed: u64) -> Value {
    let scenarios: Vec<Value> = report
        .scenarios
        .iter()
        .map(|row| {
            json!({
                "name": row.name.as_str(),
                "off": collisions_json(&row.off),
                "on": collisions_json(&row.on),
                "epoch_rekeys": row.epoch_rekeys,
                "reduction": row.reduction(),
            })
        })
        .collect();
    json!({
        "seed": seed,
        "scenarios": scenarios,
        "total_off_collisions": report.total_off_collisions(),
        "total_on_collisions": report.total_on_collisions(),
        "overall_reduction": report.overall_reduction(),
    })
}

/// Renders the campaign for humans: one row per scenario plus the totals.
#[must_use]
pub fn render_human(report: &LeakageReport, seed: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ciphertext-leakage campaign (seed {seed:#x}, oracle on the interrupt-frame windows)"
    );
    let _ = writeln!(
        out,
        "{:<14} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "scenario", "obs", "coll (off)", "coll (on)", "rekeys", "reduction"
    );
    for row in &report.scenarios {
        let _ = writeln!(
            out,
            "{:<14} {:>12} {:>12} {:>12} {:>12} {:>9.1}x",
            row.name,
            row.off.observations,
            row.off.collisions,
            row.on.collisions,
            row.epoch_rekeys,
            row.reduction()
        );
    }
    let _ = writeln!(
        out,
        "total: {} collisions unmitigated, {} mitigated ({:.1}x reduction)",
        report.total_off_collisions(),
        report.total_on_collisions(),
        report.overall_reduction()
    );
    out
}

/// The campaign's pass criteria, shared by `leakage --smoke` and the bench
/// bin: the unmitigated corpus must leak, the mitigation must cut
/// collisions at least 10x, and some mitigated run must actually rekey.
///
/// # Errors
///
/// Describes the first criterion the report misses.
pub fn gate(report: &LeakageReport) -> Result<(), CliError> {
    if report.total_off_collisions() == 0 {
        return Err("unmitigated corpus shows no collisions — \
                    the oracle is not observing the side channel"
            .to_owned());
    }
    if report.overall_reduction() < 10.0 {
        return Err(format!(
            "mitigation reduction {:.1}x is below the 10x floor (off={} on={})",
            report.overall_reduction(),
            report.total_off_collisions(),
            report.total_on_collisions()
        ));
    }
    if report.scenarios.iter().all(|r| r.epoch_rekeys == 0) {
        return Err("no mitigated run performed a rekey — the knob is dead".to_owned());
    }
    Ok(())
}

/// `leakage [--seed S] [--json] [--smoke]`.
///
/// # Errors
///
/// Flag errors, scenario failures, and (smoke mode) a failed leakage
/// gate: the unmitigated corpus must leak and the mitigation must cut
/// collisions at least 10x.
pub fn cmd_leakage(args: &[String]) -> Result<String, CliError> {
    let parsed = parse_leakage_args(args)?;
    let report = run_campaign(parsed.seed, parsed.smoke)?;
    if parsed.smoke {
        gate(&report).map_err(|err| format!("leakage smoke: {err}"))?;
    }
    if parsed.json {
        Ok(to_json(&report, parsed.seed).render())
    } else {
        Ok(render_human(&report, parsed.seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_campaign_passes_its_own_gate() {
        let out = cmd_leakage(&["--smoke".to_owned()]).unwrap();
        assert!(out.contains("trap_storm"));
        assert!(out.contains("serve"));
    }

    #[test]
    fn json_output_is_byte_stable_per_seed() {
        let args = ["--smoke".to_owned(), "--json".to_owned()];
        let a = cmd_leakage(&args).unwrap();
        let b = cmd_leakage(&args).unwrap();
        assert_eq!(a, b);
        let doc = Value::parse(&a).expect("leakage --json parses");
        assert_eq!(doc.get("seed"), Some(&Value::Int(DEFAULT_SEED)));
    }

    #[test]
    fn unknown_flag_is_rejected() {
        assert!(cmd_leakage(&["--bogus".to_owned()]).is_err());
    }
}
