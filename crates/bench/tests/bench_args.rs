//! A bench binary's usage error (a typo such as `--quik`, a stray argument)
//! exits 2 with a usage line before running anything: it never rewrites a
//! committed `BENCH_*.json`, and CI can tell it from a failed gate (exit 1).

use std::process::{Command, Output};

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe).args(args).output().expect("runs")
}

#[test]
fn bench_bins_reject_unknown_arguments() {
    for (exe, stem) in [
        (env!("CARGO_BIN_EXE_serve"), "serve"),
        (env!("CARGO_BIN_EXE_fleet"), "fleet"),
        (env!("CARGO_BIN_EXE_leakage"), "leakage"),
        (env!("CARGO_BIN_EXE_fig5a_unixbench"), "fig5a_unixbench"),
        (env!("CARGO_BIN_EXE_fig5b_lmbench"), "fig5b_lmbench"),
        (env!("CARGO_BIN_EXE_fig5c_spec"), "fig5c_spec"),
        (env!("CARGO_BIN_EXE_golden"), "golden"),
    ] {
        let artifact = regvault_bench::repo_root().join(format!("BENCH_{stem}.json"));
        let before = std::fs::read(&artifact).ok();
        for args in [&["--bogus"][..], &["stray"]] {
            let out = run(exe, args);
            assert_eq!(out.status.code(), Some(2), "{stem} {args:?}: {out:?}");
            assert!(out.stdout.is_empty(), "{stem} ran: {out:?}");
            assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
        }
        assert_eq!(std::fs::read(&artifact).ok(), before, "{stem} wrote");
    }
}
