//! The four workloads: what set-up builds, what one job runs, and the
//! output checks every job must pass.
//!
//! A workload is a fixed list of jobs (one *pass*). The runner repeats the
//! pass in a closed loop, one job at a time; every repetition of a job must
//! reproduce the simulated fingerprint of its first run exactly.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use regvault_compiler::{compile, CompileConfig};
use regvault_kernel::{Kernel, KernelConfig, ProtectionConfig};
use regvault_metrics::HistogramData;
use regvault_server::fleet::{run_fleet, FleetConfig};
use regvault_server::{ServeConfig, Supervisor};
use regvault_sim::{Machine, MachineConfig, Snapshot};
use regvault_workloads::lmbench::Lmbench;
use regvault_workloads::spec::Spec;
use regvault_workloads::unixbench::UnixBench;
use regvault_workloads::{Workload as Guest, STEP_BUDGET, TIMER_INTERVAL};

use crate::stats::{splitmix, Fnv};

/// Requests per `serve_faults` job.
pub const SERVE_REQUESTS: u64 = 2_000;
/// Mean instructions between injected faults in `serve_faults`.
pub const SERVE_FAULT_INTERVAL: u64 = 30_000;
/// `serve_faults` jobs per pass, each with its own derived seed.
pub const SERVE_JOBS: usize = 160;
/// Requests in each half of the fault-free FULL-vs-OFF serve control.
pub const SERVE_CONTROL_REQUESTS: u64 = 500;
/// Snapshot-forked instances per `fleet_chaos` job.
pub const FLEET_INSTANCES: usize = 64;
/// Requests offered to each fleet instance.
pub const FLEET_REQUESTS: u64 = 48;
/// Mean requests between chaos kills.
pub const FLEET_KILL_INTERVAL: u64 = 8;
/// Fleet worker threads (fixed: never the automatic `0`).
pub const FLEET_WORKERS: usize = 2;
/// `fleet_chaos` jobs per pass, each with its own derived seed.
pub const FLEET_JOBS: usize = 128;

/// The Figure 5 protection configurations, OFF first, FULL last.
pub fn configs() -> [ProtectionConfig; 5] {
    [
        ProtectionConfig::off(),
        ProtectionConfig::ra_only(),
        ProtectionConfig::fp_only(),
        ProtectionConfig::non_control(),
        ProtectionConfig::full(),
    ]
}

/// Index of FULL in [`configs`].
pub const FULL: usize = 4;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig5User,
    Fig5Kernel,
    ServeFaults,
    FleetChaos,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Fig5User,
        Workload::Fig5Kernel,
        Workload::ServeFaults,
        Workload::FleetChaos,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig5User => "fig5_user",
            Workload::Fig5Kernel => "fig5_kernel",
            Workload::ServeFaults => "serve_faults",
            Workload::FleetChaos => "fleet_chaos",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Figure 5 passes mix very different jobs, so a run only ever stops
    /// at a pass boundary; serve and fleet jobs are alike and a run may
    /// stop after any job once the first pass is complete.
    pub fn whole_passes(self) -> bool {
        matches!(self, Workload::Fig5User | Workload::Fig5Kernel)
    }
}

/// The Figure 5 suite a guest program belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    UnixBench,
    Lmbench,
    Spec,
}

impl Suite {
    pub fn name(self) -> &'static str {
        match self {
            Suite::UnixBench => "UnixBench",
            Suite::Lmbench => "LMbench",
            Suite::Spec => "SPEC",
        }
    }
}

/// A guest image built in set-up.
pub struct Program {
    pub suite: Suite,
    pub name: &'static str,
    pub image: Vec<u8>,
    pub entry: u64,
    /// The `a0` value the guest must exit with.
    pub expected: u64,
}

/// One job of a pass.
#[derive(Debug, Clone, Copy)]
pub enum Job {
    /// Boot a kernel under `configs()[config]` and run `programs[program]`.
    Guest { program: usize, config: usize },
    /// One supervised serve scenario.
    Serve { seed: u64 },
    /// One snapshot-forked fleet scenario.
    Fleet { seed: u64 },
}

/// Everything a run needs before its first job.
pub struct Setup {
    pub workload: Workload,
    pub programs: Vec<Program>,
    /// The pass, in canonical order.
    pub jobs: Vec<Job>,
    /// Host time spent in `regvault_compiler::compile` (and building the
    /// IR it compiles).
    pub compile_ns: u64,
    /// Host time of each warm-up kernel boot.
    pub boot_ns: Vec<u64>,
    /// The warm FULL-protection kernel and its snapshot (clone, fork and
    /// digest calibration).
    pub warm: Kernel,
    pub snapshot: Snapshot,
}

fn kernel_config(protection: ProtectionConfig) -> KernelConfig {
    KernelConfig {
        protection,
        machine: MachineConfig::default(),
        timer_interval: Some(TIMER_INTERVAL),
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Setup {
    /// Builds the guest images and the job list, boots one warm kernel per
    /// protection configuration the workload uses, and checks that a fork
    /// of the warm FULL kernel reproduces it.
    pub fn build(workload: Workload, seed: u64) -> Result<Self, String> {
        let mut programs = Vec::new();
        let mut compile_ns = 0;
        let asm_program = |suite: Suite, guest: &dyn Guest| {
            let (image, entry) = guest.program();
            Program {
                suite,
                name: guest.name(),
                image,
                entry,
                expected: guest.expected().unwrap_or(0),
            }
        };
        match workload {
            Workload::Fig5User => {
                programs.push(asm_program(Suite::UnixBench, &UnixBench::Dhry2));
                for spec in Spec::ALL {
                    let start = Instant::now();
                    let compiled = compile(&spec.module(), &CompileConfig::none())
                        .map_err(|e| format!("{} does not compile: {e}", spec.name()))?;
                    compile_ns += elapsed_ns(start);
                    let entry = compiled
                        .entry_offset()
                        .ok_or_else(|| format!("{} has no entry", spec.name()))?;
                    programs.push(Program {
                        suite: Suite::Spec,
                        name: spec.name(),
                        image: compiled.bytes().to_vec(),
                        entry,
                        // The guest returns the low 32 bits of its checksum.
                        expected: spec.reference() & 0xFFFF_FFFF,
                    });
                }
            }
            Workload::Fig5Kernel => {
                for item in UnixBench::ALL
                    .into_iter()
                    .filter(|i| *i != UnixBench::Dhry2)
                {
                    programs.push(asm_program(Suite::UnixBench, &item));
                }
                for probe in Lmbench::ALL {
                    programs.push(asm_program(Suite::Lmbench, &probe));
                }
            }
            Workload::ServeFaults | Workload::FleetChaos => {}
        }

        let mut state = seed;
        let jobs: Vec<Job> = match workload {
            Workload::Fig5User | Workload::Fig5Kernel => (0..programs.len())
                .flat_map(|program| (0..5).map(move |config| Job::Guest { program, config }))
                .collect(),
            Workload::ServeFaults => (0..SERVE_JOBS)
                .map(|_| Job::Serve {
                    seed: splitmix(&mut state),
                })
                .collect(),
            Workload::FleetChaos => (0..FLEET_JOBS)
                .map(|_| Job::Fleet {
                    seed: splitmix(&mut state),
                })
                .collect(),
        };

        let warm_configs: Vec<ProtectionConfig> = match workload {
            Workload::Fig5User | Workload::Fig5Kernel => configs().to_vec(),
            Workload::ServeFaults | Workload::FleetChaos => vec![ProtectionConfig::full()],
        };
        let mut boot_ns = Vec::new();
        let mut warm = None;
        for protection in warm_configs {
            let start = Instant::now();
            let kernel =
                Kernel::boot(kernel_config(protection)).map_err(|e| format!("boot: {e}"))?;
            boot_ns.push(elapsed_ns(start));
            warm = Some(kernel);
        }
        let warm = warm.expect("at least one warm configuration");
        let snapshot = warm.machine().snapshot();
        let fork = Machine::fork_from(&snapshot).map_err(|e| format!("fork: {e}"))?;
        if fork.arch_digest() != warm.machine().arch_digest() {
            return Err("a fork of the warm kernel does not reproduce it".into());
        }
        Ok(Self {
            workload,
            programs,
            jobs,
            compile_ns,
            boot_ns,
            warm,
            snapshot,
        })
    }
}

/// Per-job counts read from the program's public stats and reports.
/// Summed over a pass they feed the per-layer metrics and the ledger.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub instret: u64,
    /// Guest instructions the simulator fetched and decoded, including
    /// those the superblock tier dispatched (decode hits + misses); the
    /// rest of `instret` is work the kernel model charges in bulk.
    pub interp: u64,
    pub decode_hits: u64,
    pub decode_misses: u64,
    pub sb_insns: u64,
    pub sb_side_exits: u64,
    pub syscalls: u64,
    pub context_switches: u64,
    pub traps: u64,
    pub clb_hits: u64,
    pub clb_misses: u64,
    pub crypto_ops: u64,
    pub key_writes: u64,
    pub epoch_rekeys: u64,
    pub faults_injected: u64,
    pub recoveries: u64,
    pub micro_reboots: u64,
    pub micro_reboot_mismatches: u64,
    pub cold_restarts: u64,
    pub breaker_opens: u64,
    pub terminal_tenants: u64,
    pub shed: u64,
    pub failed: u64,
    /// Fleet instances, each forked once from the warm image.
    pub instances: u64,
    pub kills: u64,
    pub micro_restores: u64,
    pub cold_boots: u64,
    pub dirty_pages: u64,
    /// Pages hashed by micro-restore integrity checks (restores x warm
    /// image pages).
    pub restore_pages: u64,
    pub fleet_boot_ns: u64,
    pub fleet_fork_ns: u64,
}

impl Counts {
    fn from_machine(machine: &Machine) -> Self {
        let stats = machine.stats();
        let metrics = machine.metrics_snapshot();
        let metric = |name: &str| metrics.get(name).unwrap_or(0);
        let clb = machine.engine().clb().stats();
        let sb = machine.superblock_stats();
        let syscalls = metric("sched_syscalls");
        Self {
            instret: stats.instret,
            interp: stats.decode_hits + stats.decode_misses,
            decode_hits: stats.decode_hits,
            decode_misses: stats.decode_misses,
            sb_insns: sb.insns,
            sb_side_exits: sb.side_exits,
            syscalls,
            context_switches: metric("sched_context_switches"),
            traps: syscalls + stats.timer_interrupts + stats.exceptions,
            clb_hits: clb.hits,
            clb_misses: clb.misses,
            crypto_ops: stats.encrypts + stats.decrypts,
            key_writes: metric("key_invalidations"),
            epoch_rekeys: metric("epoch_rekeys"),
            ..Self::default()
        }
    }

    pub fn add(&mut self, o: &Counts) {
        macro_rules! sum {
            ($($f:ident),*) => { $( self.$f += o.$f; )* };
        }
        sum!(
            instret,
            interp,
            decode_hits,
            decode_misses,
            sb_insns,
            sb_side_exits,
            syscalls,
            context_switches,
            traps,
            clb_hits,
            clb_misses,
            crypto_ops,
            key_writes,
            epoch_rekeys,
            faults_injected,
            recoveries,
            micro_reboots,
            micro_reboot_mismatches,
            cold_restarts,
            breaker_opens,
            terminal_tenants,
            shed,
            failed,
            instances,
            kills,
            micro_restores,
            cold_boots,
            dirty_pages,
            restore_pages,
            fleet_boot_ns,
            fleet_fork_ns
        );
    }
}

/// What one job produced.
pub struct Outcome {
    /// Host time of the whole job.
    pub host_ns: u64,
    /// Simulated cycles the job spanned.
    pub cycles: u64,
    /// Requests offered (a Figure 5 job is one request).
    pub offered: u64,
    /// Requests served (a Figure 5 job that passed its checks is served).
    pub served: u64,
    /// Simulated latency of served requests.
    pub latency: HistogramData,
    /// Simulated recovery latency (fleet only).
    pub recovery: HistogramData,
    /// Exact fingerprint of the job's simulated behaviour.
    pub fingerprint: u64,
    /// First failed output check, if any.
    pub error: Option<String>,
    pub counts: Counts,
}

impl Outcome {
    fn failed(error: String) -> Self {
        Self {
            host_ns: 0,
            cycles: 0,
            offered: 1,
            served: 0,
            latency: HistogramData::default(),
            recovery: HistogramData::default(),
            fingerprint: 0,
            error: Some(error),
            counts: Counts::default(),
        }
    }
}

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub job: usize,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// In-memory span log of a traced run.
pub struct Spans {
    origin: Instant,
    pub records: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            records: Vec::new(),
        }
    }
}

/// Runs `f`, recording a span around it when a log is present.
fn span<T>(
    log: &mut Option<&mut Spans>,
    name: &'static str,
    job: usize,
    f: impl FnOnce() -> T,
) -> T {
    let Some(log) = log else { return f() };
    let start = Instant::now();
    let out = f();
    log.records.push(Span {
        name,
        job,
        start_ns: u64::try_from(start.duration_since(log.origin).as_nanos()).unwrap_or(u64::MAX),
        dur_ns: elapsed_ns(start),
    });
    out
}

/// Runs job `id` of the pass. Spans are recorded only when `log` is given.
pub fn run_job(setup: &Setup, id: usize, mut log: Option<&mut Spans>) -> Outcome {
    let start = Instant::now();
    let job = setup.jobs[id];
    let result = catch_unwind(AssertUnwindSafe(|| match job {
        Job::Guest { program, config } => guest_job(setup, id, program, config, &mut log),
        Job::Serve { seed } => serve_job(serve_config(seed), id, &mut log),
        Job::Fleet { seed } => fleet_job(fleet_config(seed), id, &mut log),
    }));
    let mut outcome = result.unwrap_or_else(|_| Outcome::failed(format!("job {id} panicked")));
    outcome.host_ns = elapsed_ns(start);
    outcome
}

fn guest_job(
    setup: &Setup,
    id: usize,
    program: usize,
    config: usize,
    log: &mut Option<&mut Spans>,
) -> Outcome {
    let p = &setup.programs[program];
    let booted = span(log, "Kernel::boot", id, || {
        Kernel::boot(kernel_config(configs()[config]))
    });
    let mut kernel = match booted {
        Ok(kernel) => kernel,
        Err(e) => return Outcome::failed(format!("{}: boot: {e}", p.name)),
    };
    kernel.machine_mut().reset_stats();
    let result = span(log, "run_user", id, || {
        kernel.run_user(&p.image, p.entry, STEP_BUDGET)
    });
    span(log, "check", id, || {
        let machine = kernel.machine();
        let stats = machine.stats();
        let clb = machine.engine().clb().stats();
        let value = result.as_ref().map_or(u64::MAX, |v| *v);
        let error = match &result {
            Err(e) => Some(format!("{} [{}]: {e}", p.name, configs()[config].label())),
            Ok(v) if *v != p.expected => Some(format!(
                "{} [{}]: returned {v}, expected {}",
                p.name,
                configs()[config].label(),
                p.expected
            )),
            Ok(_) => None,
        };
        let fingerprint = Fnv::new()
            .word(stats.cycles)
            .word(stats.instret)
            .word(stats.encrypts + stats.decrypts)
            .word(clb.hits)
            .word(clb.misses)
            .word(clb.evictions)
            .word(clb.invalidations)
            .word(value)
            .finish();
        let mut latency = HistogramData::default();
        latency.record(stats.cycles);
        Outcome {
            host_ns: 0,
            cycles: stats.cycles,
            offered: 1,
            served: u64::from(error.is_none()),
            latency,
            recovery: HistogramData::default(),
            fingerprint,
            error,
            counts: Counts::from_machine(machine),
        }
    })
}

/// The `serve_faults` scenario: `ServeConfig` defaults (FULL protection,
/// micro-reboot and the deadline shedder on) with faults and epoch rekeying.
pub fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        requests: SERVE_REQUESTS,
        seed,
        fault_interval: SERVE_FAULT_INTERVAL,
        epoch_rekey: true,
        ..ServeConfig::default()
    }
}

fn serve_job(cfg: ServeConfig, id: usize, log: &mut Option<&mut Spans>) -> Outcome {
    let built = span(log, "Supervisor::new", id, || Supervisor::new(cfg));
    let mut supervisor = match built {
        Ok(s) => s,
        Err(e) => return Outcome::failed(format!("serve seed {:#x}: boot: {e}", cfg.seed)),
    };
    let report = span(log, "Supervisor::run", id, || supervisor.run_instrumented());
    span(log, "check", id, || {
        let error = (!report.accounting_holds()).then(|| {
            format!(
                "serve seed {:#x}: offered {} != served {} + failed {} + shed {}",
                cfg.seed, report.offered, report.served, report.failed, report.shed
            )
        });
        // The report holds no host-side field, so its whole rendering is
        // the simulated fingerprint.
        let fingerprint = Fnv::new().bytes(format!("{report:?}").as_bytes()).finish();
        // Machine counts cover the kernel generation live at the end of
        // the run: micro-reboots and cold restarts swap the machine.
        let mut counts = Counts::from_machine(supervisor.kernel_mut().machine());
        counts.faults_injected = report.faults_injected;
        counts.recoveries = report.recoveries;
        counts.micro_reboots = report.micro_reboots;
        counts.micro_reboot_mismatches = report.micro_reboot_mismatches;
        counts.cold_restarts = report.cold_restarts;
        counts.breaker_opens = report.breaker_opens;
        counts.terminal_tenants = report.terminal_tenants as u64;
        counts.shed = report.shed;
        counts.failed = report.failed;
        Outcome {
            host_ns: 0,
            cycles: report.cycles,
            offered: report.offered,
            served: report.served,
            latency: report.latency.clone(),
            recovery: HistogramData::default(),
            fingerprint,
            error,
            counts,
        }
    })
}

/// The `fleet_chaos` scenario.
pub fn fleet_config(seed: u64) -> FleetConfig {
    FleetConfig {
        instances: FLEET_INSTANCES,
        requests_per_instance: FLEET_REQUESTS,
        seed,
        workers: FLEET_WORKERS,
        chaos_kill_interval: FLEET_KILL_INTERVAL,
        micro_restore: true,
        ..FleetConfig::default()
    }
}

fn fleet_job(cfg: FleetConfig, id: usize, log: &mut Option<&mut Spans>) -> Outcome {
    let report = span(log, "run_fleet", id, || run_fleet(&cfg));
    span(log, "check", id, || {
        let s = &report.scenario;
        let error = if !s.accounting_holds() {
            Some(format!(
                "fleet seed {:#x}: accounting identity violated",
                cfg.seed
            ))
        } else if s.restore_mismatches != 0 {
            Some(format!(
                "fleet seed {:#x}: {} restores failed the integrity check",
                cfg.seed, s.restore_mismatches
            ))
        } else {
            None
        };
        let fingerprint = Fnv::new().bytes(format!("{s:?}").as_bytes()).finish();
        let counts = Counts {
            // Fleet instances are bare machines: every step is interpreted.
            instret: s.steps,
            interp: s.steps,
            failed: s.failed,
            shed: s.shed,
            instances: s.instances,
            kills: s.kills,
            micro_restores: s.micro_restores,
            cold_boots: s.cold_boots,
            dirty_pages: s.dirty_pages_total,
            restore_pages: s.micro_restores * s.warm_pages,
            fleet_boot_ns: report.host.boot_nanos,
            fleet_fork_ns: report.host.fork_nanos_total,
            ..Counts::default()
        };
        Outcome {
            host_ns: 0,
            cycles: s.busy_cycles,
            offered: s.offered,
            served: s.served,
            latency: s.latency.clone(),
            recovery: s.recovery_latency.clone(),
            fingerprint,
            error,
            counts,
        }
    })
}
