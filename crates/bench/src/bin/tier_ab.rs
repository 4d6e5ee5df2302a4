//! Interleaved A/B of the superblock tier on event-heavy and compute-heavy
//! guests: same process, same host window, tier on vs off.

use std::time::Instant;

use regvault_kernel::{Kernel, KernelConfig, ProtectionConfig};
use regvault_sim::MachineConfig;
use regvault_workloads::{
    lmbench::Lmbench, unixbench::UnixBench, Workload, STEP_BUDGET, TIMER_INTERVAL,
};

fn rate(workload: &dyn Workload, tier: bool) -> f64 {
    let mut kernel = Kernel::boot(KernelConfig {
        protection: ProtectionConfig::off(),
        machine: MachineConfig {
            clb_entries: 8,
            superblock_tier: tier,
            ..MachineConfig::default()
        },
        timer_interval: Some(TIMER_INTERVAL),
    })
    .expect("kernel boots");
    let (image, entry) = workload.program();
    kernel.machine_mut().reset_stats();
    let start = Instant::now();
    kernel.run_user(&image, entry, STEP_BUDGET).expect("runs");
    let elapsed = start.elapsed().as_secs_f64();
    kernel.machine().stats().instret as f64 / elapsed
}

fn main() {
    regvault_cli::flags::parse_env_or_exit("tier_ab", &mut [], "");
    for (name, wl) in [
        ("syscall", &UnixBench::Syscall as &dyn Workload),
        ("null", &Lmbench::Null),
        ("dhry2", &UnixBench::Dhry2),
    ] {
        let (mut on, mut off) = (0.0f64, 0.0f64);
        for _ in 0..6 {
            on = on.max(rate(wl, true));
            off = off.max(rate(wl, false));
        }
        println!(
            "{name:<8} tier-on {:>8.1}M  tier-off {:>8.1}M  ratio {:.3}",
            on / 1e6,
            off / 1e6,
            on / off
        );
    }
}
