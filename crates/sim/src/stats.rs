//! Execution statistics.

/// Coarse instruction classification used for cycle accounting and
/// instruction-mix reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum InsnClass {
    Alu,
    Branch,
    Jump,
    Load,
    Store,
    Mul,
    Div,
    Csr,
    Crypto,
    System,
}

impl InsnClass {
    /// Every class, in declaration order.
    pub const ALL: [InsnClass; 10] = [
        InsnClass::Alu,
        InsnClass::Branch,
        InsnClass::Jump,
        InsnClass::Load,
        InsnClass::Store,
        InsnClass::Mul,
        InsnClass::Div,
        InsnClass::Csr,
        InsnClass::Crypto,
        InsnClass::System,
    ];
}

/// Counters accumulated while the machine runs.
///
/// Per-class retirement counts live in a fixed array indexed by the class
/// discriminant (the retire path runs once per emulated instruction, so a
/// tree-map entry per retirement was measurable overhead); read them through
/// [`Stats::class_count`].
///
/// # Examples
///
/// ```
/// use regvault_sim::Stats;
///
/// let stats = Stats::default();
/// assert_eq!(stats.cycles, 0);
/// assert_eq!(stats.instret, 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub instret: u64,
    /// Retired instructions by class discriminant.
    pub(crate) class_counts: [u64; InsnClass::ALL.len()],
    /// Executed `cre` instructions.
    pub encrypts: u64,
    /// Executed `crd` instructions.
    pub decrypts: u64,
    /// Integrity-check failures raised by `crd`.
    pub integrity_failures: u64,
    /// Architectural exceptions delivered.
    pub exceptions: u64,
    /// Timer interrupts delivered.
    pub timer_interrupts: u64,
    /// Fetches served by the decoded-instruction cache.
    pub decode_hits: u64,
    /// Fetches that ran the full decoder.
    pub decode_misses: u64,
}

impl Stats {
    /// Records one retired instruction of `class` costing `cycles`.
    #[inline]
    pub fn retire(&mut self, class: InsnClass, cycles: u64) {
        self.cycles += cycles;
        self.instret += 1;
        self.class_counts[class as usize] += 1;
    }

    /// Records `count` retired instructions of `class`, each costing
    /// `cycles` — the batched form the kernel's straight-line charge path
    /// uses.
    #[inline]
    pub fn retire_n(&mut self, class: InsnClass, cycles: u64, count: u64) {
        self.cycles += cycles * count;
        self.instret += count;
        self.class_counts[class as usize] += count;
    }

    /// Count of retired instructions in `class`.
    #[must_use]
    pub fn class_count(&self, class: InsnClass) -> u64 {
        self.class_counts[class as usize]
    }

    /// Fraction of retired instructions that were RegVault crypto ops.
    #[must_use]
    pub fn crypto_fraction(&self) -> f64 {
        if self.instret == 0 {
            0.0
        } else {
            self.class_count(InsnClass::Crypto) as f64 / self.instret as f64
        }
    }

    /// Decode-cache hit ratio in `[0, 1]`; zero before any fetch.
    #[must_use]
    pub fn decode_hit_ratio(&self) -> f64 {
        let total = self.decode_hits + self.decode_misses;
        if total == 0 {
            0.0
        } else {
            self.decode_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retire_accumulates() {
        let mut stats = Stats::default();
        stats.retire(InsnClass::Alu, 1);
        stats.retire(InsnClass::Crypto, 3);
        stats.retire(InsnClass::Crypto, 1);
        assert_eq!(stats.cycles, 5);
        assert_eq!(stats.instret, 3);
        assert_eq!(stats.class_count(InsnClass::Crypto), 2);
        assert!((stats.crypto_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn retire_n_matches_a_loop_of_retires() {
        let mut batched = Stats::default();
        batched.retire_n(InsnClass::Load, 2, 5);
        let mut looped = Stats::default();
        for _ in 0..5 {
            looped.retire(InsnClass::Load, 2);
        }
        assert_eq!(batched, looped);
    }

    #[test]
    fn empty_stats_have_zero_fraction() {
        assert_eq!(Stats::default().crypto_fraction(), 0.0);
        assert_eq!(Stats::default().decode_hit_ratio(), 0.0);
    }
}
