//! Regenerates Figure 5c: SPEC CPU2017 intspeed overheads (paper:
//! close-to-zero average for FULL).

use regvault_bench::{overhead_rows_to_json, print_overhead_table, write_figure_json};
use regvault_workloads::{spec::Spec, Workload};

fn main() {
    regvault_cli::flags::parse_env_or_exit("fig5c_spec", &mut [], "");
    let items: Vec<&dyn Workload> = Spec::ALL.iter().map(|w| w as &dyn Workload).collect();
    let rows = print_overhead_table("Figure 5c: SPEC2017 intspeed results", &items);
    write_figure_json(
        "fig5c_spec",
        &overhead_rows_to_json("Figure 5c: SPEC2017 intspeed", &rows),
    );
    let full = regvault_workloads::mean_overhead(&rows, "FULL");
    println!(
        "\naverage overhead for full protection: {:.2}% (paper: close to zero)",
        full * 100.0
    );
}
