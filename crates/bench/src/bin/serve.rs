//! Supervised multi-tenant serve benchmark: sustained request serving
//! under live fault injection.
//!
//! Runs the [`regvault_server`] scenario three times under full protection —
//! fault-free, under seeded faults with micro-reboot recovery, and under the
//! same faults with cold restarts only — and writes `BENCH_serve.json`:
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

use regvault_bench::{write_figure_json, ServeBench};
use regvault_cli::flags::{self, Flag};
use regvault_cli::serve::{gate, render_human};

fn main() -> ExitCode {
    let mut quick = false;
    flags::parse_env_or_exit("serve", &mut [Flag::switch("--quick", &mut quick)], "");
    let bench = ServeBench::run(quick);

    println!(
        "supervised multi-tenant serve: {} requests, 4 tenants, \
         full protection, seed {:#x}\n",
        bench.config.requests, bench.config.seed
    );
    let mut ok = true;
    for (label, report) in &bench.runs {
        print!("[{label}] {}", render_human(report));
        if let Err(err) = gate(report) {
            eprintln!("FAIL: {label}: {err}");
            ok = false;
        }
    }
    let faulted = &bench.runs[1].1;
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
        println!();
        write_figure_json("serve", &bench.to_json());
    }

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
