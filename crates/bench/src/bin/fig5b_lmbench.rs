//! Regenerates Figure 5b: LMbench overheads (paper: 2.5 % average FULL).

use regvault_bench::{overhead_rows_to_json, print_overhead_table, write_figure_json};
use regvault_workloads::{lmbench::Lmbench, Workload};

fn main() {
    regvault_cli::flags::parse_env_or_exit("fig5b_lmbench", &mut [], "");
    let items: Vec<&dyn Workload> = Lmbench::ALL.iter().map(|w| w as &dyn Workload).collect();
    let rows = print_overhead_table("Figure 5b: LMbench results", &items);
    write_figure_json(
        "fig5b_lmbench",
        &overhead_rows_to_json("Figure 5b: LMbench", &rows),
    );
    let full = regvault_workloads::mean_overhead(&rows, "FULL");
    println!(
        "\naverage overhead for full protection: {:.2}% (paper: 2.5%)",
        full * 100.0
    );
}
