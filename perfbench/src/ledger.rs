//! The traced run: spans around each call into a layer, unit-cost
//! calibration of public entry points, per-job counts from the program's
//! public stats, and a ledger that splits the measured host time into
//! count × unit cost per layer plus a residual.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use regvault_isa::{ByteRange, KeyReg};
use regvault_kernel::{Kernel, KernelConfig, ProtectionConfig};
use regvault_qarma::{Key, Qarma64};
use regvault_sim::{Clb, CryptoEngine, Machine, MachineConfig};
use regvault_workloads::unixbench::UnixBench;
use regvault_workloads::{Workload as Guest, STEP_BUDGET, TIMER_INTERVAL};

use crate::jobs::{Counts, Setup, Spans, Workload, FLEET_WORKERS};
use crate::stats::{median, quartiles, splitmix};
use crate::{closed_loop, metric, Args, Metric};

/// Timed batches per calibrated entry point.
const BATCHES: usize = 15;

/// A calibrated unit cost: median and quartiles over [`BATCHES`] batches.
#[derive(Debug, Clone, Copy, Default)]
struct Cost {
    q1: f64,
    median: f64,
    q3: f64,
}

impl Cost {
    fn of(samples: &[f64]) -> Self {
        let (q1, median, q3) = quartiles(samples);
        Self { q1, median, q3 }
    }
}

/// Times `BATCHES` batches; `batch` returns the host ns per operation of
/// one batch.
fn calibrate(mut batch: impl FnMut() -> f64) -> Cost {
    Cost::of(&(0..BATCHES).map(|_| batch()).collect::<Vec<_>>())
}

/// Runs `dhry2reg` (user mode only) on a fresh OFF kernel and returns the
/// host ns of `run_user`, the interpreted instructions and those the
/// superblock tier retired.
fn run_dhry2(image: &[u8], entry: u64, superblock_tier: bool) -> (f64, u64, u64) {
    let mut kernel = Kernel::boot(KernelConfig {
        protection: ProtectionConfig::off(),
        machine: MachineConfig {
            superblock_tier,
            ..MachineConfig::default()
        },
        timer_interval: Some(TIMER_INTERVAL),
    })
    .expect("boot");
    kernel.machine_mut().reset_stats();
    let start = Instant::now();
    let result = kernel.run_user(image, entry, STEP_BUDGET);
    let ns = start.elapsed().as_nanos() as f64;
    assert_eq!(result.ok(), UnixBench::Dhry2.expected(), "dhry2 self-check");
    let machine = kernel.machine();
    let stats = machine.stats();
    (
        ns,
        stats.decode_hits + stats.decode_misses,
        machine.superblock_stats().insns,
    )
}

fn per_op(start: Instant, ops: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / ops as f64
}

/// Unit costs of the layers' public entry points, in host ns.
struct Calibration {
    key_schedule: Cost,
    encrypt: Cost,
    decrypt: Cost,
    clb_hit: Cost,
    clb_miss_insert: Cost,
    engine_miss: Cost,
    fork: Cost,
    digest_page: Cost,
    kernel_clone: Cost,
    /// `run_user` ns per interpreted instruction of a user-only guest.
    interp: Cost,
    /// The same with the superblock tier off.
    single_step: Cost,
    /// Per instruction retired inside superblocks, with the single-stepped
    /// remainder of the tier-on run costed at `single_step`.
    tier: Cost,
}

impl Calibration {
    fn run(setup: &Setup, seed: u64) -> Self {
        let mut state = seed;
        let words: Vec<u64> = (0..4096).map(|_| splitmix(&mut state)).collect();
        let key = Key::new(words[0], words[1]);
        let cipher = Qarma64::new(key);

        let key_schedule = calibrate(|| {
            let start = Instant::now();
            for pair in words.chunks_exact(2) {
                black_box(Qarma64::new(Key::new(black_box(pair[0]), pair[1])));
            }
            per_op(start, words.len() / 2)
        });
        let encrypt = calibrate(|| {
            let start = Instant::now();
            let mut acc = 0;
            for pair in words.chunks_exact(2) {
                acc ^= cipher.encrypt(black_box(pair[0]), pair[1]);
            }
            black_box(acc);
            per_op(start, words.len() / 2)
        });
        let decrypt = calibrate(|| {
            let start = Instant::now();
            let mut acc = 0;
            for pair in words.chunks_exact(2) {
                acc ^= cipher.decrypt(black_box(pair[0]), pair[1]);
            }
            black_box(acc);
            per_op(start, words.len() / 2)
        });

        // An 8-entry CLB (the paper's size) holding the looked-up tuples.
        let mut clb = Clb::new(8);
        for i in 0..8 {
            clb.insert(1, i, i, words[i as usize]);
        }
        let clb_hit = calibrate(|| {
            const OPS: usize = 65_536;
            let start = Instant::now();
            for i in 0..OPS as u64 {
                let t = i & 7;
                black_box(clb.lookup_encrypt(1, black_box(t), t));
            }
            per_op(start, OPS)
        });
        assert!(
            clb.lookup_encrypt(1, 3, 3).is_some(),
            "calibration lookups hit"
        );
        let mut fresh = 0u64;
        let clb_miss_insert = calibrate(|| {
            let start = Instant::now();
            for &w in &words {
                fresh += 1;
                if black_box(clb.lookup_encrypt(1, fresh, w)).is_none() {
                    clb.insert(1, fresh, w, !w);
                }
            }
            per_op(start, words.len())
        });

        // A zero-entry CLB: every encrypt runs the QARMA datapath.
        let mut engine = CryptoEngine::new(0, seed);
        let engine_miss = calibrate(|| {
            let start = Instant::now();
            for pair in words.chunks_exact(2) {
                black_box(engine.encrypt(KeyReg::A, pair[1], black_box(pair[0]), ByteRange::FULL));
            }
            per_op(start, words.len() / 2)
        });

        let fork = calibrate(|| {
            const OPS: usize = 16;
            let start = Instant::now();
            for _ in 0..OPS {
                black_box(Machine::fork_from(&setup.snapshot).expect("warm snapshot forks"));
            }
            per_op(start, OPS)
        });

        let pages = setup.snapshot.page_count().max(1);
        let forked = Machine::fork_from(&setup.snapshot).expect("warm snapshot forks");
        let digest_page = calibrate(|| {
            const OPS: usize = 16;
            let start = Instant::now();
            for _ in 0..OPS {
                black_box(black_box(&forked).arch_digest());
            }
            per_op(start, OPS * pages)
        });
        let kernel_clone = calibrate(|| {
            const OPS: usize = 16;
            let start = Instant::now();
            for _ in 0..OPS {
                black_box(setup.warm.clone());
            }
            per_op(start, OPS)
        });

        // A user-only guest: nearly every retired instruction is
        // interpreted, so run_user time / interpreted instructions is the
        // interpreter's unit cost.
        let (image, entry) = UnixBench::Dhry2.program();
        let (mut interp, mut single_step, mut tier) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..BATCHES {
            let (step_ns, step_insns, _) = run_dhry2(&image, entry, false);
            let (ns, insns, sb_insns) = run_dhry2(&image, entry, true);
            let step = step_ns / step_insns as f64;
            interp.push(ns / insns as f64);
            single_step.push(step);
            tier.push((ns - (insns - sb_insns) as f64 * step) / sb_insns.max(1) as f64);
        }
        let (interp, single_step, tier) =
            (Cost::of(&interp), Cost::of(&single_step), Cost::of(&tier));

        Self {
            key_schedule,
            encrypt,
            decrypt,
            clb_hit,
            clb_miss_insert,
            engine_miss,
            fork,
            digest_page,
            kernel_clone,
            interp,
            single_step,
            tier,
        }
    }

    fn print(&self) {
        println!("  calibration (host ns per operation: median [q1, q3] of {BATCHES} batches)");
        for (name, c) in [
            ("Qarma64::new (key schedule)", self.key_schedule),
            ("Qarma64::encrypt", self.encrypt),
            ("Qarma64::decrypt", self.decrypt),
            ("Clb::lookup_encrypt hit", self.clb_hit),
            ("Clb::lookup_encrypt miss + insert", self.clb_miss_insert),
            ("CryptoEngine::encrypt, CLB bypassed", self.engine_miss),
            ("Machine::fork_from", self.fork),
            ("Machine::arch_digest, per page", self.digest_page),
            ("Kernel::clone (warm FULL kernel)", self.kernel_clone),
            ("dhry2 run_user per interpreted insn", self.interp),
            ("  superblock tier off", self.single_step),
            ("  per superblock-tier insn", self.tier),
        ] {
            println!(
                "    {name:<38} {:>12.2} [{:.2}, {:.2}]",
                c.median, c.q1, c.q3
            );
        }
    }
}

/// Span durations by name and job id.
struct SpanTable(BTreeMap<(&'static str, usize), Vec<f64>>);

impl SpanTable {
    fn new(spans: &Spans) -> Self {
        let mut table: BTreeMap<_, Vec<f64>> = BTreeMap::new();
        for s in &spans.records {
            table
                .entry((s.name, s.job))
                .or_default()
                .push(s.dur_ns as f64);
        }
        Self(table)
    }

    /// Sum over jobs of each job's median `name` span, in ns: the span's
    /// host time for one pass.
    fn pass_ns(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(_, d)| median(d))
            .sum()
    }

    /// Median of every `name` span, in ns.
    fn median_ns(&self, name: &str) -> f64 {
        let all: Vec<f64> = self
            .0
            .iter()
            .filter(|((n, _), _)| *n == name)
            .flat_map(|(_, d)| d.iter().copied())
            .collect();
        median(&all)
    }
}

/// Writes the spans as a Chrome trace (`chrome://tracing`, Perfetto).
fn write_spans(spans: &Spans, workload: Workload, seed: u64) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("{}-seed{seed}.trace.json", workload.name()));
    let events: Vec<String> = spans
        .records
        .iter()
        .map(|s| {
            format!(
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"job\": {}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.job
            )
        })
        .collect();
    let body = format!("[\n{}\n]\n", events.join(",\n"));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => println!(
            "  spans: {} written to {}",
            spans.records.len(),
            path.display()
        ),
        Err(e) => println!("  spans: could not write {}: {e}", path.display()),
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Instructions per guest program and configuration: interpreted vs
/// charged in bulk by the kernel model (OFF and FULL).
fn print_honest_counts(setup: &Setup, first: &[Counts]) {
    println!(
        "  instret split per program (interpreted = decode hits + misses; charged = the rest)"
    );
    println!(
        "    {:<11} {:>12} {:>12} {:>7}   {:>12} {:>12} {:>7}",
        "program", "OFF instret", "interpreted", "share", "FULL instret", "interpreted", "share"
    );
    for (p, program) in setup.programs.iter().enumerate() {
        let off = &first[p * 5];
        let full = &first[p * 5 + crate::jobs::FULL];
        println!(
            "    {:<11} {:>12} {:>12} {:>6.1}%   {:>12} {:>12} {:>6.1}%",
            program.name,
            off.instret,
            off.interp,
            100.0 * ratio(off.interp, off.instret),
            full.instret,
            full.interp,
            100.0 * ratio(full.interp, full.instret)
        );
    }
}

pub fn per_layer(args: &Args, setup: &Setup, compile_ms: f64) -> (Vec<Metric>, u64, u64) {
    let cal = Calibration::run(setup, args.seed);
    let jobs = setup.jobs.len();
    let (mut traced_ns, mut plain_ns) = (vec![Vec::new(); jobs], vec![Vec::new(); jobs]);
    let mut spans = Spans::new();
    // Each job alternates between traced and untraced passes, so every job
    // has both and their difference is the tracing overhead.
    let (c, passes) = closed_loop(
        setup,
        args.seed,
        Duration::from_secs(args.seconds),
        2,
        |pass, id| (pass + id as u64).is_multiple_of(2),
        &mut spans,
        |id, traced, out| {
            let sink = if traced {
                &mut traced_ns[id]
            } else {
                &mut plain_ns[id]
            };
            sink.push(out.host_ns as f64);
        },
    );
    let table = SpanTable::new(&spans);
    let first: Vec<Counts> = c.first_pass().map(|o| o.counts).collect();
    let mut n = Counts::default();
    for counts in &first {
        n.add(counts);
    }
    let recovery = c
        .first_pass()
        .fold(regvault_metrics::HistogramData::default(), |mut h, o| {
            h.merge(&o.recovery);
            h
        });

    let sum_medians = |v: &[Vec<f64>]| {
        v.iter()
            .filter(|d| !d.is_empty())
            .map(|d| median(d))
            .sum::<f64>()
    };
    let trace_overhead_pct = 100.0 * (sum_medians(&traced_ns) / sum_medians(&plain_ns) - 1.0);

    // The ledger closes on the host time of the call that runs the
    // simulation: run_user (Figure 5), Supervisor::run (serve), and
    // run_fleet times its worker threads (fleet).
    let (measured_name, measured_ns) = match setup.workload {
        Workload::Fig5User | Workload::Fig5Kernel => ("run_user", table.pass_ns("run_user")),
        Workload::ServeFaults => ("Supervisor::run", table.pass_ns("Supervisor::run")),
        Workload::FleetChaos => (
            "run_fleet x workers",
            table.pass_ns("run_fleet") * FLEET_WORKERS as f64,
        ),
    };
    // Fleet forks are timed by the program itself (FleetHostStats) on the
    // fleet's own warm image; serve micro-reboots clone the warm kernel and
    // re-check its digest.
    let forks = n.instances + n.micro_restores;
    let fork_cost = if n.instances > 0 {
        let ns = n.fleet_fork_ns as f64 / n.instances as f64;
        Cost {
            q1: ns,
            median: ns,
            q3: ns,
        }
    } else {
        cal.fork
    };
    let digest_pages = n.restore_pages + n.micro_reboots * setup.snapshot.page_count() as u64;
    let rows: Vec<(&str, u64, Cost)> = vec![
        ("sim.interp (superblock-tier insns)", n.sb_insns, cal.tier),
        (
            "sim.interp (single-stepped insns)",
            n.interp - n.sb_insns,
            cal.single_step,
        ),
        (
            "qarma (CLB misses, engine datapath)",
            n.clb_misses,
            cal.engine_miss,
        ),
        (
            "qarma (key writes x key schedule)",
            n.key_writes,
            cal.key_schedule,
        ),
        ("sim.clb (hits)", n.clb_hits, cal.clb_hit),
        (
            "kernel (micro-reboot clones)",
            n.micro_reboots,
            cal.kernel_clone,
        ),
        ("sim.snapshot (forks)", forks, fork_cost),
        ("sim.snapshot (digest pages)", digest_pages, cal.digest_page),
    ];
    let attributed_ns: f64 = rows
        .iter()
        .map(|(_, count, cost)| *count as f64 * cost.median)
        .sum();
    let residual_ns = measured_ns - attributed_ns;
    let qarma_ns = n.clb_misses as f64 * cal.engine_miss.median
        + n.key_writes as f64 * cal.key_schedule.median;

    println!(
        "perfbench {} seed={} seconds={} (traced): {passes} passes, {} jobs, {} failed",
        args.workload.name(),
        args.seed,
        args.seconds,
        c.attempted,
        c.failed
    );
    for error in &c.errors {
        println!("  FAILED {error}");
    }
    cal.print();
    if setup.workload.whole_passes() {
        print_honest_counts(setup, &first);
    }
    println!(
        "  ledger {}: {measured_name} host time per pass {:.3} ms (sum over {jobs} jobs of each \
         job's median traced span)",
        args.workload.name(),
        measured_ns / 1e6
    );
    for (name, count, cost) in &rows {
        let ns = *count as f64 * cost.median;
        println!(
            "    {name:<38} {count:>12} x {:>9.2} ns = {:>10.3} ms {:>6.1}%",
            cost.median,
            ns / 1e6,
            100.0 * ns / measured_ns
        );
    }
    println!(
        "    {:<38} {:>41.3} ms {:>6.1}%",
        "residual (kernel model, unattributed)",
        residual_ns / 1e6,
        100.0 * residual_ns / measured_ns
    );
    if setup.workload == Workload::ServeFaults {
        println!("    (serve machine counts cover the kernel generation live at each job's end)");
    }
    write_spans(&spans, args.workload, args.seed);

    let boot_us = if table.median_ns("Kernel::boot") > 0.0 {
        table.median_ns("Kernel::boot") / 1e3
    } else {
        median(
            &setup
                .boot_ns
                .iter()
                .map(|&ns| ns as f64)
                .collect::<Vec<_>>(),
        ) / 1e3
    };
    let run_user_ms = if setup.workload.whole_passes() {
        measured_ns / 1e6
    } else {
        0.0
    };
    let fleet_jobs: Vec<&Counts> = first.iter().filter(|k| k.instances > 0).collect();
    let fleet_median =
        |f: &dyn Fn(&Counts) -> f64| median(&fleet_jobs.iter().map(|k| f(k)).collect::<Vec<_>>());
    let metrics = vec![
        metric("compiler.compile_ms", compile_ms, "ms", "lower"),
        metric("kernel.boot_us", boot_us, "us", "lower"),
        metric("kernel.run_user_ms", run_user_ms, "ms", "lower"),
        metric(
            "kernel.charged_insns",
            (n.instret - n.interp) as f64,
            "insns",
            "lower",
        ),
        metric("kernel.syscalls", n.syscalls as f64, "count", "lower"),
        metric(
            "kernel.context_switches",
            n.context_switches as f64,
            "count",
            "lower",
        ),
        metric("kernel.traps", n.traps as f64, "count", "lower"),
        metric(
            "kernel.residual_ns_per_syscall",
            // Only Figure 5 runs close the ledger on kernel work alone.
            if run_user_ms > 0.0 && n.syscalls > 0 {
                residual_ns / n.syscalls as f64
            } else {
                0.0
            },
            "ns",
            "lower",
        ),
        metric("sim.instret", n.instret as f64, "insns", "lower"),
        metric("sim.interp.insns", n.interp as f64, "insns", "lower"),
        metric("sim.interp.ns_per_insn", cal.interp.median, "ns", "lower"),
        metric(
            "sim.interp.single_step_ns",
            cal.single_step.median,
            "ns",
            "lower",
        ),
        metric("sim.interp.tier_ns", cal.tier.median, "ns", "lower"),
        metric(
            "sim.interp.superblock_coverage",
            ratio(n.sb_insns, n.interp),
            "ratio",
            "higher",
        ),
        metric(
            "sim.interp.decode_hit_ratio",
            ratio(n.decode_hits, n.decode_hits + n.decode_misses),
            "ratio",
            "higher",
        ),
        metric(
            "sim.interp.superblock_side_exits",
            n.sb_side_exits as f64,
            "count",
            "lower",
        ),
        metric("qarma.encrypt_ns", cal.encrypt.median, "ns", "lower"),
        metric("qarma.decrypt_ns", cal.decrypt.median, "ns", "lower"),
        metric(
            "qarma.key_schedule_ns",
            cal.key_schedule.median,
            "ns",
            "lower",
        ),
        metric("qarma.attributed_ms", qarma_ns / 1e6, "ms", "lower"),
        metric("sim.engine.miss_ns", cal.engine_miss.median, "ns", "lower"),
        metric(
            "sim.engine.crypto_ops",
            n.crypto_ops as f64,
            "count",
            "lower",
        ),
        metric(
            "sim.engine.key_writes",
            n.key_writes as f64,
            "count",
            "lower",
        ),
        metric(
            "sim.engine.epoch_rekeys",
            n.epoch_rekeys as f64,
            "count",
            "lower",
        ),
        metric("sim.clb.hit_ns", cal.clb_hit.median, "ns", "lower"),
        metric(
            "sim.clb.miss_insert_ns",
            cal.clb_miss_insert.median,
            "ns",
            "lower",
        ),
        metric("sim.clb.hits", n.clb_hits as f64, "count", "higher"),
        metric("sim.clb.misses", n.clb_misses as f64, "count", "lower"),
        metric(
            "sim.clb.hit_ratio",
            ratio(n.clb_hits, n.clb_hits + n.clb_misses),
            "ratio",
            "higher",
        ),
        metric(
            "server.supervisor.new_ms",
            table.median_ns("Supervisor::new") / 1e6,
            "ms",
            "lower",
        ),
        metric(
            "server.supervisor.run_ms",
            table.median_ns("Supervisor::run") / 1e6,
            "ms",
            "lower",
        ),
        metric(
            "server.faults_injected",
            n.faults_injected as f64,
            "count",
            "lower",
        ),
        metric("server.recoveries", n.recoveries as f64, "count", "higher"),
        metric(
            "server.micro_reboots",
            n.micro_reboots as f64,
            "count",
            "lower",
        ),
        metric(
            "server.micro_reboot_ok_ratio",
            ratio(n.micro_reboots, n.micro_reboots + n.micro_reboot_mismatches),
            "ratio",
            "higher",
        ),
        metric(
            "server.cold_restarts",
            n.cold_restarts as f64,
            "count",
            "lower",
        ),
        metric(
            "server.breaker_opens",
            n.breaker_opens as f64,
            "count",
            "lower",
        ),
        metric(
            "server.terminal_tenants",
            n.terminal_tenants as f64,
            "count",
            "lower",
        ),
        metric("server.shed", n.shed as f64, "count", "lower"),
        metric("server.failed", n.failed as f64, "count", "lower"),
        metric("sim.snapshot.fork_us", cal.fork.median / 1e3, "us", "lower"),
        metric(
            "sim.snapshot.digest_ns_per_page",
            cal.digest_page.median,
            "ns",
            "lower",
        ),
        metric(
            "kernel.clone_us",
            cal.kernel_clone.median / 1e3,
            "us",
            "lower",
        ),
        metric(
            "sim.mem.dirty_pages_mean",
            ratio(n.dirty_pages, n.instances),
            "pages",
            "lower",
        ),
        metric(
            "server.fleet.boot_ms",
            fleet_median(&|k| k.fleet_boot_ns as f64) / 1e6,
            "ms",
            "lower",
        ),
        metric(
            "server.fleet.fork_us",
            fleet_median(&|k| k.fleet_fork_ns as f64 / k.instances as f64) / 1e3,
            "us",
            "lower",
        ),
        metric(
            "server.fleet.run_ms",
            table.median_ns("run_fleet") / 1e6,
            "ms",
            "lower",
        ),
        metric("server.fleet.kills", n.kills as f64, "count", "lower"),
        metric(
            "server.fleet.micro_restores",
            n.micro_restores as f64,
            "count",
            "lower",
        ),
        metric(
            "server.fleet.cold_boots",
            n.cold_boots as f64,
            "count",
            "lower",
        ),
        metric(
            "server.fleet.recovery_p99_kcycles",
            recovery.quantile(0.99).unwrap_or(0) as f64 / 1e3,
            "kcycles",
            "lower",
        ),
        metric("trace.overhead_pct", trace_overhead_pct, "%", "lower"),
        metric(
            "ledger.residual_pct",
            100.0 * residual_ns / measured_ns,
            "%",
            "lower",
        ),
    ];
    (metrics, c.attempted, c.failed)
}
