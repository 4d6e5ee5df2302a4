//! Supervised multi-tenant serve benchmark: sustained request serving
//! under live fault injection.
//!
//! Runs the [`regvault_server`] scenario twice under full protection — a
//! fault-free baseline and a faulted run with the seeded injector firing
//! continuously — and writes `BENCH_serve.json` at the repository root:
//! sustained throughput (served requests per million simulated cycles),
//! p50/p90/p99 end-to-end latency, recovery counts (fail-overs, respawns,
//! cold restarts), and shed counts. The run fails loudly if the accounting
//! identity (offered = served + failed + shed) is ever violated or a
//! faulted tenant is neither recovered nor explicitly quarantined.
//!
//! ```text
//! cargo run --release --bin serve            # full run, rewrites the JSON
//! cargo run --release --bin serve -- --quick # small run, no JSON rewrite
//! ```

use std::process::ExitCode;

use regvault_bench::write_figure_json;
use regvault_cli::flags::{self, Flag};
use regvault_cli::json;
use regvault_cli::serve::{gate, render_human, to_json};
use regvault_server::{ServeConfig, Supervisor};

fn main() -> ExitCode {
    let mut quick = false;
    flags::parse_env_or_exit("serve", &mut [Flag::switch("--quick", &mut quick)], "");
    let (requests, fault_interval) = if quick {
        (200, 50_000)
    } else {
        (2_000, 30_000)
    };
    let seed = 0xC0FF_EE00;

    println!(
        "supervised multi-tenant serve: {requests} requests, 4 tenants, \
         full protection, seed {seed:#x}\n"
    );

    // Three runs from one seed: fault-free, under faults, and the same
    // faulted run with micro-reboot off (the cold-restart recovery
    // baseline, where escalations pay the full cold-reboot penalty).
    let [baseline, faulted, cold_only] = [
        ("baseline", 0, true),
        ("under-faults", fault_interval, true),
        ("cold-respawn", fault_interval, false),
    ]
    .map(|(label, fault_interval, micro_reboot)| {
        let config = ServeConfig {
            requests,
            seed,
            fault_interval,
            micro_reboot,
            ..ServeConfig::default()
        };
        let report = Supervisor::new(config).expect("kernel boot").run();
        print!("[{label}] {}", render_human(&report));
        report
    });

    let mut ok = true;
    for (label, r) in [
        ("baseline", &baseline),
        ("under-faults", &faulted),
        ("cold-respawn", &cold_only),
    ] {
        if let Err(err) = gate(r) {
            eprintln!("FAIL: {label}: {err}");
            ok = false;
        }
    }
    if faulted.faults_injected == 0 {
        eprintln!("FAIL: fault injector never fired");
        ok = false;
    }
    if faulted.served == 0 {
        eprintln!("FAIL: no request survived the fault campaign");
        ok = false;
    }

    if quick {
        println!("\n--quick: skipping BENCH_serve.json rewrite");
    } else {
        let doc = json!({
            "bench": "serve",
            "requests": requests,
            "tenants": 4_u64,
            "seed": seed,
            "fault_interval_cycles": fault_interval,
            "baseline": to_json(&baseline),
            "under_faults": to_json(&faulted),
            "under_faults_cold_respawn": to_json(&cold_only),
        });
        println!();
        write_figure_json("serve", &doc);
    }

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
