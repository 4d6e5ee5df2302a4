//! Shared helpers for the table/figure regenerator binaries.
//!
//! Each binary under `src/bin/` regenerates one artifact of the paper's
//! evaluation:
//!
//! | binary | artifact |
//! |---|---|
//! | `table3_hwcost` | Table 3: relative hardware resource cost |
//! | `table4_pentest` | Table 4: penetration test results |
//! | `clb_hit_ratio` | §4.4.1: CLB hit ratio and overhead reduction |
//! | `fig5a_unixbench` | Figure 5a: UnixBench overheads |
//! | `fig5b_lmbench` | Figure 5b: LMbench overheads |
//! | `fig5c_spec` | Figure 5c: SPEC intspeed overheads |
//! | `ablations` | design-choice ablations called out in DESIGN.md |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;

use regvault_cli::json;
use regvault_cli::json::Value;
use regvault_workloads::{OverheadRow, Workload};

/// The repository root (two levels above this crate's manifest), where the
/// machine-readable `BENCH_*.json` artifacts live.
#[must_use]
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the repo root")
        .to_path_buf()
}

/// The `BENCH_hotpath.json` rows that `hotpath --check` guards: the syscall
/// half-floor, the dhry2 superblock-tier floors, the epoch-rekey half-floor
/// and the recorded tracing-off overhead. The check exits 1 naming any of
/// them that does not resolve, so regenerating the artifact without a row
/// cannot silently drop its gate.
pub const HOTPATH_GUARDED_PATHS: [&str; 4] = [
    "current.unixbench_syscall_off_steps_per_sec",
    "current.unixbench_dhry2_off_steps_per_sec",
    "mitigation.unixbench_syscall_full_rekey_steps_per_sec",
    "tracing.tracing_off_overhead_pct",
];

/// Converts Figure 5 style overhead rows into the JSON shape shared by the
/// `fig5*` binaries: per-workload base cycles and per-config overhead
/// fractions, plus the geometric-mean row.
#[must_use]
pub fn overhead_rows_to_json(figure: &str, rows: &[OverheadRow]) -> Value {
    let key = |label: &str| label.to_lowercase().replace('-', "_");
    let workloads: Vec<Value> = rows
        .iter()
        .map(|row| {
            let mut obj = vec![
                ("name".to_owned(), row.name.into()),
                ("base_cycles".to_owned(), row.base_cycles.into()),
            ];
            obj.extend(row.overheads.iter().map(|(label, overhead)| {
                (format!("overhead_{}", key(label)), Value::Num(*overhead))
            }));
            Value::Obj(obj)
        })
        .collect();
    let means = ["RA", "FP", "NON-CONTROL", "FULL"].map(|label| {
        let mean = regvault_workloads::mean_overhead(rows, label);
        (format!("mean_{}", key(label)), Value::Num(mean))
    });
    json!({
        "figure": figure,
        "workloads": workloads,
        "geomean": Value::Obj(means.into()),
    })
}

/// Writes a figure's JSON artifact as `BENCH_<stem>.json` at the repo root
/// and reports the path on stdout.
///
/// # Panics
///
/// Panics when the file cannot be written — the harness treats that as a
/// broken checkout.
pub fn write_figure_json(stem: &str, value: &Value) {
    let path = repo_root().join(format!("BENCH_{stem}.json"));
    std::fs::write(&path, value.render()).expect("write benchmark JSON");
    println!("wrote {}", path.display());
}

/// Formats an overhead fraction as a `+x.xx%` cell.
#[must_use]
pub fn pct(overhead: f64) -> String {
    format!("{:+6.2}%", overhead * 100.0)
}

/// Prints one Figure 5 style table and returns the rows.
///
/// # Panics
///
/// Panics when a workload fails to run — the harness treats that as a
/// broken build rather than a measurement.
pub fn print_overhead_table(title: &str, workloads: &[&dyn Workload]) -> Vec<OverheadRow> {
    println!("\n=== {title} ===");
    println!(
        "{:<12} {:>14} {:>9} {:>9} {:>12} {:>9}",
        "workload", "base cycles", "RA", "FP", "NON-CONTROL", "FULL"
    );
    let mut rows = Vec::new();
    for workload in workloads {
        let row = regvault_workloads::sweep(*workload, 8)
            .unwrap_or_else(|err| panic!("{} failed: {err}", workload.name()));
        print!("{:<12} {:>14}", row.name, row.base_cycles);
        for (_, overhead) in &row.overheads {
            print!(" {:>9}", pct(*overhead));
        }
        println!();
        rows.push(row);
    }
    println!("{:-<70}", "");
    print!("{:<12} {:>14}", "average", "");
    for label in ["RA", "FP", "NON-CONTROL", "FULL"] {
        let mean = regvault_workloads::mean_overhead(&rows, label);
        print!(" {:>9}", pct(mean));
    }
    println!();
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats_signed_percentages() {
        assert_eq!(pct(0.026), " +2.60%");
        assert_eq!(pct(-0.004), " -0.40%");
    }
}
