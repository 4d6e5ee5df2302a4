//! Shared code of the table/figure regenerator binaries.
//!
//! Each binary under `src/bin/` regenerates one artifact of the paper's
//! evaluation or one scenario report:
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
//! | `serve`, `fleet`, `leakage` | `BENCH_serve.json`, `BENCH_fleet.json`, `BENCH_leakage.json` |
//! | `hotpath` | `BENCH_hotpath.json`: CI perf guards, superblock counters |
//! | `golden` | exact check of every deterministic committed artifact |
//!
//! Every deterministic `BENCH_*.json` document is built by one function:
//! [`Fig5::to_json`], [`ServeBench::to_json`], [`FleetBench::to_json`],
//! [`superblock_section`] and `regvault_cli::leakage::to_json`. The bin
//! that owns an artifact writes it; `golden` rebuilds it in memory with the
//! same function and compares it with the committed copy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;
use std::time::Instant;

use regvault_cli::json::Value;
use regvault_cli::{fleet, json, serve};
use regvault_kernel::{Kernel, KernelConfig, ProtectionConfig};
use regvault_server::{run_fleet, FleetConfig, FleetReport, ServeConfig, ServeReport, Supervisor};
use regvault_sim::{MachineConfig, Tracer};
use regvault_workloads::lmbench::Lmbench;
use regvault_workloads::spec::Spec;
use regvault_workloads::unixbench::UnixBench;
use regvault_workloads::{mean_overhead, OverheadRow, Workload, STEP_BUDGET, TIMER_INTERVAL};

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

/// One panel of Figure 5: a workload suite swept over the protection
/// configs on the paper's 8-entry CLB.
pub struct Fig5 {
    /// The artifact stem (`BENCH_<stem>.json`), which is also the bin name.
    pub stem: &'static str,
    figure: &'static str,
    paper_full_mean: &'static str,
    sweep: fn() -> Vec<OverheadRow>,
}

/// One overhead row per item. Panics when a workload fails to run: the
/// harness treats that as a broken build rather than a measurement.
fn sweep<W: Workload>(items: &[W]) -> Vec<OverheadRow> {
    let row = |w: &W| {
        regvault_workloads::sweep(w, 8).unwrap_or_else(|err| panic!("{} failed: {err}", w.name()))
    };
    items.iter().map(row).collect()
}

impl Fig5 {
    /// The three panels: UnixBench, LMbench and SPEC CPU2017 intspeed.
    pub const ALL: [Fig5; 3] = [
        Fig5 {
            stem: "fig5a_unixbench",
            figure: "Figure 5a: UnixBench",
            paper_full_mean: "2.6%",
            sweep: || sweep(&UnixBench::ALL),
        },
        Fig5 {
            stem: "fig5b_lmbench",
            figure: "Figure 5b: LMbench",
            paper_full_mean: "2.5%",
            sweep: || sweep(&Lmbench::ALL),
        },
        Fig5 {
            stem: "fig5c_spec",
            figure: "Figure 5c: SPEC2017 intspeed",
            paper_full_mean: "close to zero",
            sweep: || sweep(&Spec::ALL),
        },
    ];

    /// Runs the sweep: one overhead row per workload.
    #[must_use]
    pub fn rows(&self) -> Vec<OverheadRow> {
        (self.sweep)()
    }

    /// The artifact: per-workload base cycles and per-config overhead
    /// fractions, plus the geometric-mean row.
    #[must_use]
    pub fn to_json(&self, rows: &[OverheadRow]) -> Value {
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
        let means = CONFIGS.map(|label| {
            let mean = mean_overhead(rows, label);
            (format!("mean_{}", key(label)), Value::Num(mean))
        });
        json!({
            "figure": self.figure,
            "workloads": workloads,
            "geomean": Value::Obj(means.into()),
        })
    }

    /// The panel's bin: sweeps, prints the table, writes the artifact and
    /// compares the FULL mean with the paper's. Takes no arguments.
    pub fn main(&self) {
        regvault_cli::flags::parse_env_or_exit(self.stem, &mut [], "");
        let rows = self.rows();
        println!("\n=== {} results ===", self.figure);
        println!(
            "{:<12} {:>14} {:>9} {:>9} {:>12} {:>9}",
            "workload", "base cycles", "RA", "FP", "NON-CONTROL", "FULL"
        );
        for row in &rows {
            print!("{:<12} {:>14}", row.name, row.base_cycles);
            for (_, overhead) in &row.overheads {
                print!(" {:>9}", pct(*overhead));
            }
            println!();
        }
        println!("{:-<70}", "");
        print!("{:<12} {:>14}", "average", "");
        for label in CONFIGS {
            print!(" {:>9}", pct(mean_overhead(&rows, label)));
        }
        println!();
        write_figure_json(self.stem, &self.to_json(&rows));
        println!(
            "\naverage overhead for full protection: {:.2}% (paper: {})",
            mean_overhead(&rows, "FULL") * 100.0,
            self.paper_full_mean
        );
    }
}

/// The protected configs of Figure 5, in column order.
const CONFIGS: [&str; 4] = ["RA", "FP", "NON-CONTROL", "FULL"];

/// Formats an overhead fraction as a `+x.xx%` cell.
fn pct(overhead: f64) -> String {
    format!("{:+6.2}%", overhead * 100.0)
}

/// Writes a JSON artifact as `BENCH_<stem>.json` at the repo root and
/// reports the path on stdout.
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

/// The serve bench: three supervised 4-tenant FULL runs from one seed —
/// fault-free, under faults, and the same faulted run with micro-reboot off
/// (the cold-restart recovery baseline).
pub struct ServeBench {
    /// The faulted runs' config; the fault-free run injects no faults.
    pub config: ServeConfig,
    /// `baseline`, `under-faults` (micro-reboot on, the default) and
    /// `cold-respawn`, with their reports.
    pub runs: [(&'static str, ServeReport); 3],
}

impl ServeBench {
    /// Runs the bench: 2,000 requests with a fault every 30k cycles, or
    /// with `quick` 200 with a fault every 50k.
    #[must_use]
    pub fn run(quick: bool) -> Self {
        let (requests, fault_interval) = if quick {
            (200, 50_000)
        } else {
            (2_000, 30_000)
        };
        let config = ServeConfig {
            requests,
            seed: 0xC0FF_EE00,
            fault_interval,
            ..ServeConfig::default()
        };
        let runs = [
            ("baseline", 0, true),
            ("under-faults", fault_interval, true),
            ("cold-respawn", fault_interval, false),
        ]
        .map(|(label, fault_interval, micro_reboot)| {
            let config = ServeConfig {
                fault_interval,
                micro_reboot,
                ..config
            };
            (label, Supervisor::new(config).expect("kernel boot").run())
        });
        ServeBench { config, runs }
    }

    /// `BENCH_serve.json`.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let [baseline, faulted, cold] = self.runs.each_ref().map(|(_, r)| serve::to_json(r));
        json!({
            "bench": "serve",
            "requests": self.config.requests,
            "tenants": 4_u64,
            "seed": self.config.seed,
            "fault_interval_cycles": self.config.fault_interval,
            "baseline": baseline,
            "under_faults": faulted,
            "under_faults_cold_respawn": cold,
        })
    }
}

/// The fleet bench: one snapshot-forked fleet run calm, under chaos kills
/// recovering by re-forking the warm snapshot (micro-restore), and under
/// the same kills recovering by cold boot.
pub struct FleetBench {
    /// The chaotic runs' config; the calm run kills nothing.
    pub config: FleetConfig,
    /// `calm`, `chaos-micro` and `chaos-cold`, with their reports.
    pub runs: [(&'static str, FleetReport); 3],
}

impl FleetBench {
    /// Runs the bench: 64 instances x 48 requests, or with `quick` 16 x 12,
    /// with a kill every 8 requests on average under chaos.
    #[must_use]
    pub fn run(quick: bool) -> Self {
        let (instances, requests_per_instance) = if quick { (16, 12) } else { (64, 48) };
        let config = FleetConfig {
            instances,
            requests_per_instance,
            seed: 0xF1EE_7C0DE,
            chaos_kill_interval: 8,
            ..FleetConfig::default()
        };
        let runs = [
            ("calm", 0, true),
            ("chaos-micro", config.chaos_kill_interval, true),
            ("chaos-cold", config.chaos_kill_interval, false),
        ]
        .map(|(label, chaos_kill_interval, micro_restore)| {
            let config = FleetConfig {
                chaos_kill_interval,
                micro_restore,
                ..config
            };
            (label, run_fleet(&config))
        });
        FleetBench { config, runs }
    }

    /// `BENCH_fleet.json`: each run's deterministic `scenario` section and
    /// its wall-clock `host` section.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let [calm, micro, cold] = self.runs.each_ref().map(|(_, r)| fleet::to_json(r));
        json!({
            "bench": "fleet",
            "instances": self.config.instances,
            "requests_per_instance": self.config.requests_per_instance,
            "seed": self.config.seed,
            "chaos_kill_interval": self.config.chaos_kill_interval,
            "calm": calm,
            "chaos_micro_restore": micro,
            "chaos_cold_boot": cold,
        })
    }
}

/// The machine every `hotpath` row runs on: the paper's 8-entry CLB.
#[must_use]
pub fn hotpath_machine() -> MachineConfig {
    MachineConfig {
        clb_entries: 8,
        ..MachineConfig::default()
    }
}

/// One `hotpath` guest run: boots a kernel, loads `workload`, zeroes the
/// counters when `reset_stats` (the throughput rows count only the guest's
/// instructions), installs `tracer` and runs to completion, checking the
/// result. Returns the kernel and the boot-plus-run wall time in seconds.
pub fn run_guest(
    workload: &dyn Workload,
    protection: ProtectionConfig,
    machine: MachineConfig,
    tracer: Option<Box<dyn Tracer>>,
    reset_stats: bool,
) -> (Kernel, f64) {
    let start = Instant::now();
    let mut kernel = Kernel::boot(KernelConfig {
        protection,
        machine,
        timer_interval: Some(TIMER_INTERVAL),
    })
    .expect("kernel boots");
    let (image, entry) = workload.program();
    if reset_stats {
        kernel.machine_mut().reset_stats();
    }
    if let Some(tracer) = tracer {
        kernel.machine_mut().install_tracer(tracer);
    }
    let result = kernel
        .run_user(&image, entry, STEP_BUDGET)
        .expect("workload runs");
    let secs = start.elapsed().as_secs_f64();
    let expected = workload.expected().unwrap_or(result);
    assert_eq!(result, expected, "{} result", workload.name());
    (kernel, secs)
}

/// `BENCH_hotpath.json`'s deterministic `superblock` section: the tier's
/// counters over one dhry2 run with protection off. They run from boot (no
/// reset): the rows are defined over the whole run, and a reset also
/// rearms the timer.
#[must_use]
pub fn superblock_section() -> Value {
    let off = ProtectionConfig::off();
    let (kernel, _) = run_guest(&UnixBench::Dhry2, off, hotpath_machine(), None, false);
    let sb = kernel.machine().superblock_stats();
    // Fraction of all retired instructions that went through a superblock.
    let coverage = sb.insns as f64 / kernel.machine().stats().instret.max(1) as f64;
    json!({
        "superblock_hits": sb.hits as f64,
        "superblock_insns": sb.insns as f64,
        "superblock_side_exits": sb.side_exits as f64,
        "superblock_built": sb.built as f64,
        "superblock_invalidations": sb.invalidations as f64,
        "superblock_coverage": coverage,
    })
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
