//! Regenerates Table 3: relative hardware resource cost over the SoC,
//! compared with the FPU, for the CLB-0 and CLB-8 configurations.

use regvault_core::hwcost::{clb_sweep, soc_report};

fn main() {
    regvault_cli::flags::parse_env_or_exit("table3_hwcost", &mut [], "");
    println!("Table 3: RegVault relative hardware resource cost over the entire SoC\n");
    println!(
        "{:<6} {:<6} {:>16} {:>8} {:>8}   {:>16} {:>8} {:>8}",
        "CLB", "", "crypto-engine", "CLB", "FPU", "(paper: engine)", "(CLB)", "(FPU)"
    );
    let paper = [
        // (entries, metric, engine, clb, fpu)
        (0usize, "#LUT", 4.88, f64::NAN, 25.28),
        (0, "#FF", 4.79, f64::NAN, 12.40),
        (8, "#LUT", 4.42, 4.30, 24.39),
        (8, "#FF", 4.55, 4.84, 11.78),
    ];
    for (entries, metric, p_engine, p_clb, p_fpu) in paper {
        let report = soc_report(entries);
        let (engine, clb, fpu) = if metric == "#LUT" {
            (
                report.crypto_engine_lut_pct(),
                report.clb_lut_pct(),
                report.fpu_lut_pct(),
            )
        } else {
            (
                report.crypto_engine_ff_pct(),
                report.clb_ff_pct(),
                report.fpu_ff_pct(),
            )
        };
        let clb_cell = if entries == 0 {
            "N/A".to_owned()
        } else {
            format!("{clb:.2}%")
        };
        let p_clb_cell = if p_clb.is_nan() {
            "N/A".to_owned()
        } else {
            format!("{p_clb:.2}%")
        };
        println!(
            "{:<6} {:<6} {:>15.2}% {:>8} {:>7.2}%   {:>15.2}% {:>8} {:>7.2}%",
            entries, metric, engine, clb_cell, fpu, p_engine, p_clb_cell, p_fpu
        );
    }

    println!("\nCLB size sweep (ablation):");
    println!(
        "{:<8} {:>10} {:>10} {:>10} {:>10}",
        "entries", "CLB LUTs", "CLB %LUT", "CLB FFs", "CLB %FF"
    );
    for report in clb_sweep(&[0, 2, 4, 8, 16, 32, 64]) {
        println!(
            "{:<8} {:>10} {:>9.2}% {:>10} {:>9.2}%",
            report.clb_entries,
            report.clb_luts,
            report.clb_lut_pct(),
            report.clb_ffs,
            report.clb_ff_pct()
        );
    }
}
