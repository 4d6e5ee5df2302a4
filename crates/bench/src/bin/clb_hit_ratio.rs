//! Regenerates §4.4.1: CLB hit ratio under a UnixBench-shaped run and the
//! overhead reduction the CLB buys (paper: an 8-entry CLB reaches 51.7 %
//! hit ratio and cuts the full-protection UnixBench overhead from 4.5 %
//! to 2.6 %).

use regvault_kernel::ProtectionConfig;
use regvault_workloads::{measure, unixbench::UnixBench};

fn suite_cycles(protection: ProtectionConfig, clb_entries: usize) -> (u64, u64, u64) {
    let mut cycles = 0;
    let mut hits = 0;
    let mut lookups = 0;
    for item in UnixBench::ALL {
        let m = measure(&item, protection, clb_entries).expect("workload runs");
        cycles += m.cycles;
        hits += m.clb.hits;
        lookups += m.clb.hits + m.clb.misses;
    }
    (cycles, hits, lookups)
}

fn main() {
    regvault_cli::flags::parse_env_or_exit("clb_hit_ratio", &mut [], "");
    println!("CLB performance (paper §4.4.1), UnixBench suite under FULL protection\n");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>12}",
        "entries", "lookups", "hit ratio", "cycles", "overhead"
    );
    let mut rows = Vec::new();
    for entries in [0usize, 2, 4, 8, 16, 32] {
        let (base_cycles, _, _) = suite_cycles(ProtectionConfig::off(), entries);
        let (full_cycles, hits, lookups) = suite_cycles(ProtectionConfig::full(), entries);
        let hit_ratio = if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        };
        let overhead = full_cycles as f64 / base_cycles as f64 - 1.0;
        println!(
            "{:<10} {:>12} {:>11.1}% {:>12} {:>11.2}%",
            entries,
            lookups,
            hit_ratio * 100.0,
            full_cycles,
            overhead * 100.0
        );
        rows.push((entries, hit_ratio, overhead));
    }
    let no_clb = rows.iter().find(|r| r.0 == 0).expect("clb-0 row");
    let clb8 = rows.iter().find(|r| r.0 == 8).expect("clb-8 row");
    println!(
        "\n8-entry CLB: {:.1}% hit ratio (paper: 51.7%); overhead {:.2}% -> {:.2}% \
         (paper: 4.5% -> 2.6%)",
        clb8.1 * 100.0,
        no_clb.2 * 100.0,
        clb8.2 * 100.0
    );
}
