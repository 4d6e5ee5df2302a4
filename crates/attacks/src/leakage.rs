//! Seeded ciphertext-leakage campaign (CipherGuard-style dictionary attack).
//!
//! Each scenario boots a fully protected kernel twice over the same guest
//! program and seed — once with [`epoch_rekey`] off, once on — with a
//! [`MemOracle`] snooping the interrupt-context frame windows on the
//! kernel stacks. The off run quantifies the raw ciphertext side channel
//! (every re-save of an unchanged register is a dictionary hit); the on
//! run quantifies what the nonce-diversified rekey mitigation leaves
//! behind. The campaign is fully deterministic per seed, so its numbers
//! are byte-stable across runs and machines.
//!
//! The module deliberately takes guest programs as `(image, entry)` pairs:
//! the workload corpus (UnixBench/LMbench/SPEC) and the serve scenario
//! live in crates *above* this one, and the CLI/bench layers supply them
//! via [`GuestScenario`].
//!
//! [`epoch_rekey`]: regvault_sim::MachineConfig::epoch_rekey

use regvault_kernel::layout::kernel_stack_top;
use regvault_kernel::thread::MAX_THREADS;
use regvault_kernel::{trap, Kernel, KernelConfig, KernelError, ProtectionConfig};
use regvault_sim::MachineConfig;

use crate::oracle::{CollisionReport, MemOracle};

/// Timer period for campaign runs (cycles) — matches the benchmark
/// corpus, so every scenario sees realistic preemption-driven context
/// save/restore traffic on top of its syscall traps.
pub const TIMER_INTERVAL: u64 = 150_000;

/// Default per-scenario instruction budget.
pub const STEP_BUDGET: u64 = 400_000_000;

/// The half-open address windows the oracle watches: every thread's
/// interrupt-context frame. This is where the ciphertext side channel
/// lives — the dictionary inference only works over *encrypted* memory
/// (plaintext kernel data the attacker reads directly, no inference
/// needed), and the CIP frames are the encrypted region the kernel
/// rewrites constantly.
#[must_use]
pub fn cip_frame_windows() -> Vec<(u64, u64)> {
    (0..MAX_THREADS)
        .map(|tid| {
            let top = kernel_stack_top(tid);
            (top - trap::FRAME_SIZE, top)
        })
        .collect()
}

/// One guest program the campaign runs.
#[derive(Debug, Clone)]
pub struct GuestScenario {
    /// Display name (figure label).
    pub name: String,
    /// Guest program image.
    pub image: Vec<u8>,
    /// Entry offset into the image.
    pub entry: u64,
    /// Instruction budget for the run.
    pub step_budget: u64,
}

impl GuestScenario {
    /// A scenario with the default step budget.
    #[must_use]
    pub fn new(name: &str, image: Vec<u8>, entry: u64) -> Self {
        Self {
            name: name.to_owned(),
            image,
            entry,
            step_budget: STEP_BUDGET,
        }
    }
}

/// A synthetic trap-storm guest: a tight `yield` loop with fixed values
/// parked in the saved-callee registers. Every yield context-switches, so
/// the kernel re-encrypts the same plaintexts to the same frame slots over
/// and over — the worst case for the ciphertext dictionary and the fixture
/// scenario for the campaign.
#[must_use]
pub fn trap_storm_scenario() -> GuestScenario {
    let source = "li   s1, 0
         li   s2, 400
         li   s3, 0x1111
         li   s4, 0x2222
         li   s5, 0x3333
         li   s6, 0x4444
        loop:
         li   a7, 13    # yield
         ecall
         addi s1, s1, 1
         blt  s1, s2, loop
         mv   a0, s1
         ebreak";
    let program = regvault_isa::asm::assemble(source).expect("trap storm assembles");
    let entry = program.symbol("main").unwrap_or(0);
    GuestScenario::new("trap_storm", program.bytes().to_vec(), entry)
}

/// Leakage measured for one scenario, mitigation off vs on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioLeakage {
    /// Scenario name.
    pub name: String,
    /// Dictionary results with `epoch_rekey` off.
    pub off: CollisionReport,
    /// Dictionary results with `epoch_rekey` on.
    pub on: CollisionReport,
    /// Rekey operations the mitigated run performed (one per context
    /// save), from the `epoch_rekeys` counter.
    pub epoch_rekeys: u64,
}

impl ScenarioLeakage {
    /// Collision reduction factor (off collisions per on collision). An
    /// on-run with zero collisions divides by one, so the factor is a
    /// conservative lower bound in the perfect case.
    #[must_use]
    pub fn reduction(&self) -> f64 {
        self.off.collisions as f64 / self.on.collisions.max(1) as f64
    }
}

/// The whole campaign's results.
#[derive(Debug, Clone, PartialEq)]
pub struct LeakageReport {
    /// Per-scenario rows, in run order.
    pub scenarios: Vec<ScenarioLeakage>,
}

impl LeakageReport {
    /// Total collisions across scenarios with the mitigation off.
    #[must_use]
    pub fn total_off_collisions(&self) -> u64 {
        self.scenarios.iter().map(|s| s.off.collisions).sum()
    }

    /// Total collisions across scenarios with the mitigation on.
    #[must_use]
    pub fn total_on_collisions(&self) -> u64 {
        self.scenarios.iter().map(|s| s.on.collisions).sum()
    }

    /// Campaign-wide collision reduction factor.
    #[must_use]
    pub fn overall_reduction(&self) -> f64 {
        self.total_off_collisions() as f64 / self.total_on_collisions().max(1) as f64
    }
}

/// Runs one guest under full protection with the oracle installed and
/// returns what the dictionary saw plus the rekey count.
fn observed_run(
    scenario: &GuestScenario,
    seed: u64,
    epoch_rekey: bool,
) -> Result<(CollisionReport, u64), KernelError> {
    let mut kernel = Kernel::boot(KernelConfig {
        protection: ProtectionConfig::full(),
        machine: MachineConfig {
            seed,
            epoch_rekey,
            ..MachineConfig::default()
        },
        timer_interval: Some(TIMER_INTERVAL),
    })?;
    kernel
        .machine_mut()
        .install_tracer(Box::new(MemOracle::watching(cip_frame_windows())));
    kernel.run_user(&scenario.image, scenario.entry, scenario.step_budget)?;
    let rekeys = kernel.machine().engine().epoch_rekeys();
    let oracle = kernel
        .machine_mut()
        .take_tracer()
        .expect("oracle still installed")
        .into_any()
        .downcast::<MemOracle>()
        .expect("tracer is the oracle");
    Ok((oracle.report(), rekeys))
}

/// Measures one scenario with the mitigation off and on (same seed).
///
/// # Errors
///
/// Propagates kernel errors from either run.
pub fn measure_scenario(
    scenario: &GuestScenario,
    seed: u64,
) -> Result<ScenarioLeakage, KernelError> {
    let (off, _) = observed_run(scenario, seed, false)?;
    let (on, epoch_rekeys) = observed_run(scenario, seed, true)?;
    Ok(ScenarioLeakage {
        name: scenario.name.clone(),
        off,
        on,
        epoch_rekeys,
    })
}

/// Runs the full campaign over `scenarios` with one seed.
///
/// # Errors
///
/// Propagates the first kernel error; a correctly assembled corpus never
/// trips one.
pub fn campaign(scenarios: &[GuestScenario], seed: u64) -> Result<LeakageReport, KernelError> {
    let mut rows = Vec::with_capacity(scenarios.len());
    for scenario in scenarios {
        rows.push(measure_scenario(scenario, seed)?);
    }
    Ok(LeakageReport { scenarios: rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trap_storm_leaks_without_mitigation_and_not_with_it() {
        let row = measure_scenario(&trap_storm_scenario(), 0xA11CE).unwrap();
        assert!(
            row.off.collisions > 100,
            "unmitigated trap storm must leak heavily, saw {}",
            row.off.collisions
        );
        assert!(
            row.reduction() >= 10.0,
            "mitigation must cut collisions >= 10x: off={} on={}",
            row.off.collisions,
            row.on.collisions
        );
        assert!(row.epoch_rekeys > 0, "mitigated run must rekey");
    }

    #[test]
    fn campaign_is_deterministic_per_seed() {
        let scenarios = vec![trap_storm_scenario()];
        let a = campaign(&scenarios, 7).unwrap();
        let b = campaign(&scenarios, 7).unwrap();
        assert_eq!(a, b);
    }
}
