//! RegVault — hardware-assisted selective data randomization for OS
//! kernels (reproduction of the DAC '22 paper).
//!
//! This crate is the front door of the reproduction. It re-exports the
//! whole stack and adds the hardware area model behind Table 3:
//!
//! * [`regvault_qarma`] — the QARMA-64 tweakable block cipher;
//! * [`regvault_isa`] — RV64IM + the `cre`/`crd` extension, assembler;
//! * [`regvault_sim`] — the machine simulator: crypto-engine, key
//!   registers, cryptographic lookaside buffer, cycle accounting;
//! * [`regvault_compiler`] — annotation-driven instrumentation, sensitive
//!   register spill protection, RV64 codegen;
//! * [`regvault_kernel`] — the miniature protected kernel (six sensitive
//!   data classes of Table 2);
//! * [`regvault_attacks`] — the Table 4 penetration suite;
//! * [`regvault_workloads`] — the Figure 5 benchmark suites;
//! * [`hwcost`] — the structural FPGA area model (Table 3).
//!
//! # Examples
//!
//! Boot a protected kernel, run an attack, check the hardware budget:
//!
//! ```
//! use regvault_core::prelude::*;
//!
//! // The paper's headline security result, in three lines:
//! let result = run_attack(Attack::PrivilegeEscalation, ProtectionConfig::full());
//! assert!(result.outcome.defeated());
//!
//! // And the hardware budget (Table 3): the crypto-engine stays under 5%.
//! let report = hwcost::soc_report(8);
//! assert!(report.crypto_engine_lut_pct() < 5.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hwcost;

/// Typed counter/histogram metrics registry (re-export of
/// [`regvault_metrics`]): named `Counter`/`Histogram` handles with a
/// lock-free hot path, used by the kernel scheduler. See
/// `regvault_sim::Machine::metrics_snapshot` for every metric of a
/// running machine.
pub use regvault_metrics as metrics;

/// One-stop imports for examples and benches.
pub mod prelude {
    pub use crate::hwcost;
    pub use regvault_attacks::{run_all, run_attack, Attack, AttackResult, Outcome};
    pub use regvault_compiler::prelude::*;
    pub use regvault_isa::{asm, ByteRange, Insn, KeyReg, Reg};
    pub use regvault_kernel::{Kernel, KernelConfig, KernelError, ProtectionConfig, Sysno};
    pub use regvault_metrics::{Counter, Histogram, MetricsRegistry};
    pub use regvault_qarma::{Key, Qarma64, Sbox};
    pub use regvault_sim::{
        Clb, ClbStats, CostModel, CryptoEngine, Event, Machine, MachineConfig, RingTracer, Stats,
        TraceEvent, TraceRecord, Tracer, TrapCause,
    };
    pub use regvault_workloads::{
        lmbench::Lmbench, measure, spec::Spec, sweep, unixbench::UnixBench, Measurement,
        OverheadRow, Workload,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn the_whole_stack_is_reachable_from_the_prelude() {
        let cipher = Qarma64::new(Key::new(1, 2));
        let ct = cipher.encrypt(3, 4);
        assert_eq!(cipher.decrypt(ct, 4), 3);
        let report = hwcost::soc_report(0);
        assert!(report.soc_luts > 0);
    }
}
