//! The `serve`, `fleet` and `leakage` bench binaries accept only `--quick`.
//! Any other argument (a typo such as `--quik`) must exit 2 with a usage
//! line before running anything, so it never starts the full bench and
//! rewrites the committed `BENCH_*.json`.

use std::process::Command;

#[test]
fn bench_bins_reject_unknown_arguments() {
    for (exe, stem) in [
        (env!("CARGO_BIN_EXE_serve"), "serve"),
        (env!("CARGO_BIN_EXE_fleet"), "fleet"),
        (env!("CARGO_BIN_EXE_leakage"), "leakage"),
    ] {
        let artifact = regvault_bench::repo_root().join(format!("BENCH_{stem}.json"));
        let before = std::fs::read(&artifact).ok();
        let out = Command::new(exe).arg("--bogus").output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{stem}: {out:?}");
        assert!(out.stdout.is_empty(), "{stem} ran: {out:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
        assert_eq!(std::fs::read(&artifact).ok(), before, "{stem} wrote");
    }
}
