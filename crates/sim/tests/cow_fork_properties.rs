//! Copy-on-write fork properties and the micro-reboot equivalence
//! regression:
//!
//! * N machines forked from one snapshot are fully isolated — each fork
//!   sees exactly its own writes, under any interleaving;
//! * a fork that never writes stays bit-for-bit identical to the parent
//!   image (its architectural digest equals the snapshot's);
//! * a micro-rebooted machine (re-forked from the warm snapshot after
//!   running and being corrupted) is indistinguishable from a machine
//!   freshly restored from the same snapshot: identical step results and
//!   architectural digests over a 10k-step lockstep run;
//! * microarchitectural state (superblock tier, decode cache) resets
//!   across a restore and re-warms without architectural effect.

use proptest::prelude::*;
use regvault_isa::{asm, KeyReg, Reg};
use regvault_sim::{Machine, MachineConfig};

const TEXT_BASE: u64 = 0x8000_0000;
const DATA_BASE: u64 = 0x9000;
const DATA_SLOTS: u64 = 256;

/// A warm parent: keys programmed, data region mapped and zeroed, a
/// crypto round-trip loop loaded and run once to the break.
fn warm_machine(seed: u64, iters: u64) -> Machine {
    let program = asm::assemble(&format!(
        "li   t1, 0x9000
         li   s0, 0x9000
         li   s2, {iters}
loop:
         creak a0, a0[3:0], t1
         sd   a0, 0(s0)
         ld   a1, 0(s0)
         crdak a1, a1, t1, [3:0]
         addi a0, a1, 1
         addi s2, s2, -1
         blt  zero, s2, loop
         ebreak"
    ))
    .expect("loop assembles");
    let mut machine = Machine::new(MachineConfig {
        seed,
        ..MachineConfig::default()
    });
    machine
        .write_key_register(KeyReg::A, seed | 1, seed.rotate_left(17) | 1)
        .expect("general key");
    for slot in 0..DATA_SLOTS {
        machine
            .memory_mut()
            .write_u64(DATA_BASE + slot * 8, 0)
            .expect("data region maps");
    }
    machine.load_program(TEXT_BASE, program.bytes());
    machine.hart_mut().set_pc(TEXT_BASE);
    machine
}

proptest! {
    /// Forks are isolated: each of N forks sees exactly its own writes
    /// (tagged by fork index), no matter how writes interleave, and a fork
    /// that never wrote still matches the parent image bit-for-bit.
    #[test]
    fn forks_are_isolated_under_interleaved_writes(
        seed in any::<u64>(),
        forks in 2usize..6,
        writes in prop::collection::vec((0..6usize, 0..DATA_SLOTS, any::<u64>()), 1..64),
    ) {
        let mut parent = warm_machine(seed, 4);
        parent.hart_mut().set_reg(Reg::A0, 0x5EED);
        parent.run_until_break(10_000).expect("warm run");
        let snap = parent.snapshot();

        let mut fleet: Vec<Machine> = (0..forks)
            .map(|_| Machine::fork_from(&snap).expect("fork"))
            .collect();
        // One extra fork that never writes: the bit-for-bit control.
        let untouched = Machine::fork_from(&snap).expect("control fork");

        for &(who, slot, value) in &writes {
            let who = who % forks;
            // Tag the value with the writer so collisions are detectable.
            let tagged = value ^ (who as u64).rotate_left(56);
            fleet[who]
                .memory_mut()
                .write_u64(DATA_BASE + slot * 8, tagged)
                .expect("fork write");
        }

        // Replay the log per fork to compute what each one must see.
        for (who, fork) in fleet.iter().enumerate() {
            let mut expected = vec![None; DATA_SLOTS as usize];
            for &(w, slot, value) in &writes {
                if w % forks == who {
                    expected[slot as usize] = Some(value ^ (who as u64).rotate_left(56));
                }
            }
            for (slot, want) in expected.iter().enumerate() {
                let addr = DATA_BASE + slot as u64 * 8;
                let got = fork.memory().read_u64(addr).expect("fork read");
                match want {
                    Some(v) => prop_assert_eq!(got, *v, "fork {} slot {}", who, slot),
                    None => {
                        let parent_val = untouched.memory().read_u64(addr).expect("read");
                        prop_assert_eq!(got, parent_val, "fork {} slot {} must stay parent's", who, slot);
                    }
                }
            }
        }

        // The control fork never wrote: still the parent image, exactly.
        prop_assert_eq!(untouched.arch_digest(), snap.digest());
        prop_assert_eq!(untouched.arch_digest(), parent.arch_digest());
        prop_assert_eq!(untouched.cow_dirty_pages(&snap), 0);
        // And it still shares every page with the parent (CoW, not copies).
        prop_assert_eq!(
            untouched.memory().shared_pages_with(parent.memory()),
            snap.page_count()
        );
    }
}

/// The micro-reboot regression: a machine that ran past the warm point,
/// got corrupted, and was re-forked from the warm snapshot must be
/// bit-for-bit equivalent to a machine freshly restored from that same
/// snapshot — identical step results and architectural digests over a
/// 10k-step lockstep run.
#[test]
fn micro_reboot_is_bit_for_bit_equivalent_to_fresh_restore() {
    let mut parent = warm_machine(7, 4_000);
    parent.hart_mut().set_reg(Reg::A0, 0xBEEF);
    let warm = parent.snapshot();

    // The "crashed" instance: runs a while, then gets scribbled on.
    let mut crashed = Machine::fork_from(&warm).expect("fork");
    // The budget ends mid-loop by design: we want a partially-run machine.
    let _ = crashed.run(2_500);
    crashed
        .memory_mut()
        .write_u64(TEXT_BASE, 0xDEAD_DEAD_DEAD_DEAD)
        .expect("corrupt code page");
    let _ = crashed.write_key_register(KeyReg::A, 0, 0);

    // Micro-reboot: discard the wreck, re-fork the warm image.
    let mut rebooted = Machine::fork_from(&warm).expect("micro-reboot fork");
    assert_eq!(
        rebooted.arch_digest(),
        warm.digest(),
        "restore-integrity check"
    );
    // Microarchitectural state must not leak across the reboot.
    let sb = rebooted.superblock_stats();
    assert_eq!(sb.hits, 0, "superblock tier resets across restore");

    // The reference: a fresh boot-to-snapshot machine.
    let mut fresh = Machine::fork_from(&warm).expect("fresh restore");

    let mut steps = 0u64;
    while steps < 10_000 {
        let a = rebooted.step();
        let b = fresh.step();
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "step {steps}: rebooted and fresh diverged"
        );
        steps += 1;
        if steps.is_multiple_of(1_000) {
            assert_eq!(
                rebooted.arch_digest(),
                fresh.arch_digest(),
                "digest divergence at step {steps}"
            );
        }
        if !matches!(a, Ok(None)) {
            break;
        }
    }
    assert!(
        steps >= 10_000,
        "loop body must sustain 10k lockstep steps, got {steps}"
    );
    assert_eq!(rebooted.arch_digest(), fresh.arch_digest());

    // Run both to the break through the batch path (single-stepping above
    // bypasses the superblock tier by design): the tier re-warms on the
    // rebooted machine with no architectural effect.
    rebooted
        .run_until_break(1_000_000)
        .expect("rebooted finishes");
    fresh.run_until_break(1_000_000).expect("fresh finishes");
    assert_eq!(rebooted.arch_digest(), fresh.arch_digest());
    assert!(
        rebooted.superblock_stats().hits > 0,
        "hot loop re-enters the superblock tier after restore"
    );
}

/// Forking is O(shared pointers): the fork shares every page with the
/// snapshot until written, and writing one page dirties exactly one.
#[test]
fn fork_copies_nothing_until_written() {
    let mut parent = warm_machine(3, 4);
    parent.hart_mut().set_reg(Reg::A0, 1);
    parent.run_until_break(10_000).expect("warm run");
    let snap = parent.snapshot();

    let mut fork = Machine::fork_from(&snap).expect("fork");
    assert_eq!(fork.cow_dirty_pages(&snap), 0);
    // Slot 1 — the warm loop only touches slot 0 as its scratch word.
    let addr = DATA_BASE + 8;
    let parent_before = parent.memory().read_u64(addr).unwrap();
    fork.memory_mut().write_u64(addr, 42).expect("one write");
    assert_eq!(fork.cow_dirty_pages(&snap), 1, "one write dirties one page");
    assert_eq!(
        fork.memory().shared_pages_with(parent.memory()),
        snap.page_count() - 1
    );
    // The parent is untouched by the fork's write.
    assert_eq!(parent.memory().read_u64(addr).unwrap(), parent_before);
    assert_ne!(fork.memory().read_u64(addr).unwrap(), parent_before);
}
