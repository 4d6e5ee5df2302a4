//! One owner per counted fact: `Machine::metrics_snapshot` must report what
//! the owning structs hold, across fork, in-place restore and reset.

use regvault_isa::{asm, KeyReg};
use regvault_sim::{Machine, MachineConfig};

const ITERS: u64 = 50;

/// Key `a` programmed and a `cre`/`crd` loop of `ITERS` iterations loaded:
/// each iteration misses on the encrypt of a fresh value and hits on the
/// decrypt of its ciphertext. One rekey epoch is issued on the unused `b`.
fn crypto_loop() -> Machine {
    let program = asm::assemble(&format!(
        "li t1, 0x9000
         li s0, 0x9000
         li s2, {ITERS}
loop:    creak a0, a0[3:0], t1
         sd a0, 0(s0)
         ld a1, 0(s0)
         crdak a1, a1, t1, [3:0]
         addi a0, a1, 1
         addi s2, s2, -1
         blt zero, s2, loop
         ebreak"
    ))
    .expect("loop assembles");
    let mut machine = Machine::new(MachineConfig {
        epoch_rekey: true,
        ..MachineConfig::default()
    });
    machine
        .write_key_register(KeyReg::A, 0x1357, 0x2468)
        .unwrap();
    machine.load_program(0x8000_0000, program.bytes());
    machine.hart_mut().set_pc(0x8000_0000);
    machine.issue_key_epoch(KeyReg::B);
    machine
}

fn metric(machine: &Machine, name: &str) -> u64 {
    let metrics = machine.metrics_snapshot();
    metrics.get(name).unwrap_or_else(|| panic!("no `{name}`"))
}

fn assert_clb_exported(machine: &Machine) {
    let clb = machine.engine().clb().stats();
    assert_eq!(metric(machine, "clb_hits"), clb.hits, "clb_hits");
    assert_eq!(metric(machine, "clb_misses"), clb.misses, "clb_misses");
}

/// Exported counters the snapshot does not carry: the engine's tallies
/// and the superblock tier's (`superblock_cached` is a live gauge).
fn unsnapshotted(name: &str) -> bool {
    matches!(name, "key_invalidations" | "epoch_rekeys")
        || name.starts_with("qarma_ops_ksel_")
        || (name.starts_with("superblock_") && name != "superblock_cached")
}

#[test]
fn fresh_run_and_fork_export_the_owned_counts() {
    let mut parent = crypto_loop();
    parent.run_until_break(100_000).expect("loop finishes");
    let clb = parent.engine().clb().stats();
    assert_eq!((clb.hits, clb.misses), (ITERS, ITERS));
    assert_clb_exported(&parent);
    // Every QARMA run is a CLB miss.
    let metrics = parent.metrics_snapshot();
    let qarma = metrics
        .counters()
        .filter(|c| c.0.starts_with("qarma_ops_ksel_"));
    assert_eq!(qarma.map(|c| c.1).sum::<u64>(), clb.misses);
    assert_eq!(metrics.get("qarma_ops_ksel_a"), Some(ITERS));

    let fork = Machine::fork_from(&parent.snapshot()).expect("fork");
    assert_eq!(fork.engine().clb().stats(), clb);
    assert_clb_exported(&fork);
}

#[test]
fn in_place_restore_keeps_only_the_snapshotted_counts() {
    let mut machine = crypto_loop();
    let cold = machine.snapshot();
    machine.run_until_break(100_000).expect("loop finishes");
    assert!(metric(&machine, "superblock_hits") > 0, "the tier engaged");
    machine.restore(&cold).expect("cold snapshot is full");
    assert_eq!(machine.engine().clb().stats().hits, 0);
    assert_clb_exported(&machine);
    let metrics = machine.metrics_snapshot();
    let zeroed: Vec<(&str, u64)> = metrics.counters().filter(|c| unsnapshotted(c.0)).collect();
    assert_eq!(zeroed.len(), 15, "{zeroed:?}");
    assert!(zeroed.iter().all(|c| c.1 == 0), "{zeroed:?}");
}

#[test]
fn reset_stats_zeroes_every_exported_simulator_counter() {
    let mut machine = crypto_loop();
    machine.run_until_break(100_000).expect("loop finishes");
    machine.reset_stats();
    for (name, value) in machine.metrics_snapshot().counters() {
        // Occupancy gauges describe cache contents, which reset keeps warm.
        if !matches!(name, "clb_occupancy" | "superblock_cached") {
            assert_eq!(value, 0, "{name} survived reset_stats");
        }
    }
}
