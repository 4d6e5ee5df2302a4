//! Ciphertext side-channel campaign: dictionary collisions over the
//! workload corpus (UnixBench/LMbench/SPEC guests, a synthetic trap
//! storm, and the supervised serve scenario) with the nonce-diversified
//! epoch-rekey mitigation off vs on.
//!
//! Writes `BENCH_leakage.json` at the repository root. The campaign is
//! fully deterministic per seed — the simulated scenarios carry no host
//! timing — so the artifact is byte-stable and diffable in CI.
//!
//! The run fails loudly if:
//!
//! * the unmitigated corpus shows no collisions (the oracle stopped
//!   observing the side channel);
//! * the mitigation does not cut collisions at least 10x overall;
//! * a mitigated run performs no rekeys (the knob is dead).
//!
//! ```text
//! cargo run --release --bin leakage            # full run, rewrites the JSON
//! cargo run --release --bin leakage -- --quick # trimmed corpus, no JSON
//! ```

use std::process::ExitCode;

use regvault_bench::write_figure_json;
use regvault_cli::flags::{self, Flag};
use regvault_cli::leakage::{gate, render_human, run_campaign, to_json, DEFAULT_SEED};

fn main() -> ExitCode {
    let mut quick = false;
    flags::parse_env_or_exit("leakage", &mut [Flag::switch("--quick", &mut quick)], "");
    let seed = DEFAULT_SEED;
    let report = match run_campaign(seed, quick) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("FAIL: {err}");
            return ExitCode::FAILURE;
        }
    };

    print!("{}", render_human(&report, seed));

    if let Err(err) = gate(&report) {
        eprintln!("FAIL: {err}");
        return ExitCode::FAILURE;
    }

    if quick {
        println!("(--quick: skipping BENCH_leakage.json rewrite)");
        return ExitCode::SUCCESS;
    }

    write_figure_json("leakage", &to_json(&report, seed));
    ExitCode::SUCCESS
}
