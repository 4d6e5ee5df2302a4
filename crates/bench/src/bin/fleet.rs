//! Snapshot-forked fleet benchmark: fork cost, aggregate throughput, and
//! chaos recovery (micro-restore vs cold boot).
//!
//! Runs the [`regvault_server::fleet`] scenario three ways — a calm fleet
//! (no chaos), a chaotic fleet recovering by re-forking the warm snapshot
//! (micro-restore), and the same chaotic fleet recovering by full cold
//! boots — and writes `BENCH_fleet.json` at the repository root. The
//! deterministic scenario section is seed-stable; the host section
//! carries wall-clock measurements (boot vs fork nanos, steps/s).
//!
//! The run fails loudly if:
//!
//! * the accounting identity (offered = served + failed + shed) is ever
//!   violated, in any run;
//! * a fork is not at least 10x cheaper than a cold boot (wall clock);
//! * under chaos, micro-restore does not beat cold boot on both recovery
//!   latency (p99) and served fraction;
//! * any warm image fails its restore-integrity check, or a kill goes
//!   unrecovered.
//!
//! ```text
//! cargo run --release --bin fleet            # full run, rewrites the JSON
//! cargo run --release --bin fleet -- --quick # small run, no JSON rewrite
//! ```

use std::process::ExitCode;

use regvault_bench::{quick_flag, write_figure_json};
use regvault_cli::fleet::{gate, render_human, to_json};
use regvault_cli::json;
use regvault_server::fleet::{run_fleet, FleetConfig};

fn main() -> ExitCode {
    let quick = quick_flag("fleet");
    let (instances, requests) = if quick { (16, 12) } else { (64, 48) };
    let seed = 0xF1EE_7C0DE;
    let chaos = 8; // mean requests between kills

    println!(
        "snapshot-forked fleet: {instances} instances x {requests} requests, \
         chaos interval {chaos}, seed {seed:#x}\n"
    );

    let [calm, micro, cold] = [
        ("calm", 0, true),
        ("chaos-micro", chaos, true),
        ("chaos-cold", chaos, false),
    ]
    .map(|(label, chaos_kill_interval, micro_restore)| {
        let report = run_fleet(&FleetConfig {
            instances,
            requests_per_instance: requests,
            seed,
            chaos_kill_interval,
            micro_restore,
            ..FleetConfig::default()
        });
        print!("[{label}] {}", render_human(&report));
        report
    });

    let mut ok = true;
    for (label, r) in [
        ("calm", &calm),
        ("chaos-micro", &micro),
        ("chaos-cold", &cold),
    ] {
        if let Err(err) = gate(&r.scenario) {
            eprintln!("FAIL: {label}: {err}");
            ok = false;
        }
    }
    // Fork cheapness: stamping out an instance must be at least 10x
    // cheaper than cold-booting one (the CoW headline).
    if calm.host.fork_speedup() < 10.0 {
        eprintln!(
            "FAIL: fork speedup {:.1}x < 10x (fork {:.0} ns, boot {} ns)",
            calm.host.fork_speedup(),
            calm.host.fork_nanos_mean(),
            calm.host.boot_nanos
        );
        ok = false;
    }
    // Chaos comparison: micro-restore must beat cold boot on recovery
    // latency and keep at least as many requests served.
    if micro.scenario.kills == 0 || cold.scenario.kills == 0 {
        eprintln!("FAIL: chaos schedule never fired");
        ok = false;
    } else {
        let m99 = micro.scenario.recovery_latency.quantile(0.99).unwrap_or(0);
        let c50 = cold
            .scenario
            .recovery_latency
            .quantile(0.5)
            .unwrap_or(u64::MAX);
        if m99 >= c50 {
            eprintln!("FAIL: micro-restore p99 {m99} >= cold-boot p50 {c50}");
            ok = false;
        }
        if micro.scenario.served < cold.scenario.served {
            eprintln!(
                "FAIL: micro-restore served {} < cold-boot served {}",
                micro.scenario.served, cold.scenario.served
            );
            ok = false;
        }
    }

    println!(
        "\nchaos: {} kills; micro-restore rec p99 {} cycles vs cold-boot {} cycles; \
         served {} vs {}",
        micro.scenario.kills,
        micro.scenario.recovery_latency.quantile(0.99).unwrap_or(0),
        cold.scenario.recovery_latency.quantile(0.99).unwrap_or(0),
        micro.scenario.served,
        cold.scenario.served,
    );

    if quick {
        println!("\n--quick: skipping BENCH_fleet.json rewrite");
    } else {
        let doc = json!({
            "bench": "fleet",
            "instances": instances,
            "requests_per_instance": requests,
            "seed": seed,
            "chaos_kill_interval": chaos,
            "calm": to_json(&calm),
            "chaos_micro_restore": to_json(&micro),
            "chaos_cold_boot": to_json(&cold),
        });
        println!();
        write_figure_json("fleet", &doc);
    }

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
