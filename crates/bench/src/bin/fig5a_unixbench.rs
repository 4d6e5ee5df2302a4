//! Regenerates Figure 5a: UnixBench overheads under RA / FP / NON-CONTROL
//! / FULL protection (paper: 2.6 % average for FULL).

fn main() {
    regvault_bench::Fig5::ALL[0].main();
}
