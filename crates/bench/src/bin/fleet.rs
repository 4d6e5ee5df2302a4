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

use regvault_bench::{write_figure_json, FleetBench};
use regvault_cli::flags::{self, Flag};
use regvault_cli::fleet::{gate, render_human};

fn main() -> ExitCode {
    let mut quick = false;
    flags::parse_env_or_exit("fleet", &mut [Flag::switch("--quick", &mut quick)], "");
    let bench = FleetBench::run(quick);
    let [(_, calm), (_, micro), (_, cold)] = &bench.runs;
    let c = &bench.config;

    println!(
        "snapshot-forked fleet: {} instances x {} requests, \
         chaos interval {}, seed {:#x}\n",
        c.instances, c.requests_per_instance, c.chaos_kill_interval, c.seed
    );
    let mut ok = true;
    for (label, report) in &bench.runs {
        print!("[{label}] {}", render_human(report));
        if let Err(err) = gate(&report.scenario) {
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
        println!();
        write_figure_json("fleet", &bench.to_json());
    }

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
