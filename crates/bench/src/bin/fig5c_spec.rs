//! Regenerates Figure 5c: SPEC CPU2017 intspeed overheads (paper:
//! close-to-zero average for FULL).

fn main() {
    regvault_bench::Fig5::ALL[2].main();
}
