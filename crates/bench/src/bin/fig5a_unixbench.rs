//! Regenerates Figure 5a: UnixBench overheads under RA / FP / NON-CONTROL
//! / FULL protection (paper: 2.6 % average for FULL).

use regvault_bench::{overhead_rows_to_json, print_overhead_table, write_figure_json};
use regvault_workloads::{unixbench::UnixBench, Workload};

fn main() {
    regvault_cli::flags::parse_env_or_exit("fig5a_unixbench", &mut [], "");
    let items: Vec<&dyn Workload> = UnixBench::ALL.iter().map(|w| w as &dyn Workload).collect();
    let rows = print_overhead_table("Figure 5a: UnixBench results", &items);
    write_figure_json(
        "fig5a_unixbench",
        &overhead_rows_to_json("Figure 5a: UnixBench", &rows),
    );
    let full = regvault_workloads::mean_overhead(&rows, "FULL");
    println!(
        "\naverage overhead for full protection: {:.2}% (paper: 2.6%)",
        full * 100.0
    );
}
