//! Regenerates Figure 5b: LMbench overheads (paper: 2.5 % average FULL).

fn main() {
    regvault_bench::Fig5::ALL[1].main();
}
