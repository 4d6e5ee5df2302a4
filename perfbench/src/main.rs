//! RegVault performance benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig5_user --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One invocation runs one workload (see `perfbench/README.md`) in a closed
//! loop for `--seconds` of host time and checks every job's output. With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` it records
//! spans around each call into a layer, calibrates unit costs and prints the
//! per-layer metrics and the ledger. Human-readable lines come first; the
//! last line of standard output is one JSON object.

mod jobs;
mod ledger;
mod stats;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use regvault_kernel::ProtectionConfig;
use regvault_metrics::HistogramData;
use regvault_server::fleet::run_fleet;
use regvault_server::{ServeConfig, Supervisor};

use jobs::{run_job, Job, Outcome, Setup, Suite, Workload, FULL};
use stats::{geomean_overhead, median, quantile_u64, shuffle, tail, Fnv};

/// Serve and fleet jobs whose seeds also run the untimed control of
/// `overhead_full_pct`.
const CONTROL_JOBS: usize = 16;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// Paper Figure 5 FULL-protection averages (percent).
const PAPER_FULL_PCT: [(Suite, f64); 3] = [
    (Suite::UnixBench, 2.6),
    (Suite::Lmbench, 2.5),
    (Suite::Spec, 0.0),
];
/// Paper §4.4.1: hit ratio of an 8-entry CLB on UnixBench (percent).
const PAPER_CLB_HIT_PCT: f64 = 51.7;

const USAGE: &str = "usage: perfbench --workload <fig5_user|fig5_kernel|serve_faults|fleet_chaos> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The job order of pass `pass`: a seeded shuffle for Figure 5, the
/// canonical order (each job already carries a derived seed) otherwise.
fn pass_order(setup: &Setup, seed: u64, pass: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..setup.jobs.len()).collect();
    if setup.workload.whole_passes() {
        let mut state = seed ^ pass.wrapping_mul(0xA24B_AED4_963E_E407);
        shuffle(&mut order, &mut state);
    }
    order
}

/// Everything the closed loop observed.
struct Collector {
    /// The first outcome of each job: the simulated reference.
    first: Vec<Option<Outcome>>,
    /// Every job's host time, in ms.
    job_ms: Vec<f64>,
    host_ns: u64,
    cycles: u64,
    offered: u64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Collector {
    fn new(jobs: usize) -> Self {
        Self {
            first: (0..jobs).map(|_| None).collect(),
            job_ms: Vec::new(),
            host_ns: 0,
            cycles: 0,
            offered: 0,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// Records one job; a repetition whose fingerprint differs from the
    /// job's first run fails its check.
    fn record(&mut self, id: usize, mut out: Outcome) {
        if let Some(first) = &self.first[id] {
            if out.error.is_none() && first.fingerprint != out.fingerprint {
                out.error = Some(format!(
                    "job {id}: simulated fingerprint changed on repetition"
                ));
            }
        }
        self.attempted += 1;
        if let Some(error) = &out.error {
            self.failed += 1;
            if self.errors.len() < 10 {
                self.errors.push(error.clone());
            }
        }
        self.job_ms.push(out.host_ns as f64 / 1e6);
        self.host_ns += out.host_ns;
        self.cycles += out.cycles;
        self.offered += out.offered;
        if self.first[id].is_none() {
            self.first[id] = Some(out);
        }
    }

    fn first_pass(&self) -> impl Iterator<Item = &Outcome> {
        self.first
            .iter()
            .map(|o| o.as_ref().expect("the first pass always completes"))
    }

    /// Fingerprint of the whole pass in canonical job order, so it does
    /// not depend on the shuffle.
    fn sim_digest(&self) -> u64 {
        self.first_pass()
            .fold(Fnv::new(), |h, o| h.word(o.fingerprint))
            .finish()
    }
}

/// Runs passes until `budget` has elapsed (at least `min_passes`),
/// stopping only at pass boundaries when the workload needs it. `traced`
/// decides per (pass, job) whether spans are recorded.
fn closed_loop(
    setup: &Setup,
    seed: u64,
    budget: Duration,
    min_passes: u64,
    mut traced: impl FnMut(u64, usize) -> bool,
    spans: &mut jobs::Spans,
    mut on_job: impl FnMut(usize, bool, &Outcome),
) -> (Collector, u64) {
    let mut c = Collector::new(setup.jobs.len());
    let start = Instant::now();
    let mut pass = 0;
    'outer: loop {
        for id in pass_order(setup, seed, pass) {
            let trace = traced(pass, id);
            let out = run_job(setup, id, trace.then_some(&mut *spans));
            on_job(id, trace, &out);
            c.record(id, out);
            let extra_pass = pass >= min_passes;
            if extra_pass && !setup.workload.whole_passes() && start.elapsed() >= budget {
                break 'outer;
            }
        }
        pass += 1;
        if pass >= min_passes && start.elapsed() >= budget {
            break;
        }
    }
    (c, pass)
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub better: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        better,
    }
}

/// Prints the metric table and the final JSON line.
fn print_result(metrics: &[Metric], attempted: u64, failed: u64) {
    for m in metrics {
        println!(
            "  {:<38} {:>16.6} {:<8} ({} is better)",
            m.name, m.value, m.unit, m.better
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
}

/// Simulated FULL-vs-OFF overhead of each guest program in the pass.
fn per_program_overheads(setup: &Setup, c: &Collector) -> Vec<(Suite, f64)> {
    let mut cycles = vec![[0u64; 5]; setup.programs.len()];
    for (job, out) in setup.jobs.iter().zip(c.first_pass()) {
        if let Job::Guest { program, config } = *job {
            cycles[program][config] = out.cycles;
        }
    }
    setup
        .programs
        .iter()
        .zip(&cycles)
        .map(|(p, c)| (p.suite, c[FULL] as f64 / c[0].max(1) as f64 - 1.0))
        .collect()
}

/// `overhead_full_pct`. Figure 5 workloads: geomean FULL-vs-OFF cycle
/// overhead over the pass. `serve_faults`: FULL-vs-OFF mean simulated
/// request latency of fault-free control serves. `fleet_chaos` (whose
/// handler has no unprotected build): mean simulated request latency of
/// the chaos fleet over calm control fleets. The controls reuse the seeds
/// of the first [`CONTROL_JOBS`] jobs and run after the timed section.
fn overhead_full_pct(setup: &Setup, c: &Collector) -> f64 {
    let job_seed = |job: &Job| match *job {
        Job::Serve { seed } | Job::Fleet { seed } => seed,
        Job::Guest { .. } => 0,
    };
    let control_jobs = &setup.jobs[..CONTROL_JOBS.min(setup.jobs.len())];
    match setup.workload {
        Workload::Fig5User | Workload::Fig5Kernel => {
            let overheads: Vec<f64> = per_program_overheads(setup, c)
                .into_iter()
                .map(|(_, o)| o)
                .collect();
            100.0 * geomean_overhead(&overheads)
        }
        Workload::ServeFaults => {
            let mean_latency = |protection: ProtectionConfig| {
                let mut latency = HistogramData::default();
                for job in control_jobs {
                    let cfg = ServeConfig {
                        requests: jobs::SERVE_CONTROL_REQUESTS,
                        fault_interval: 0,
                        protection,
                        ..jobs::serve_config(job_seed(job))
                    };
                    if let Ok(s) = Supervisor::new(cfg) {
                        latency.merge(&s.run().latency);
                    }
                }
                latency.mean()
            };
            100.0
                * (mean_latency(ProtectionConfig::full()) / mean_latency(ProtectionConfig::off())
                    - 1.0)
        }
        Workload::FleetChaos => {
            let (mut chaos, mut calm) = (HistogramData::default(), HistogramData::default());
            for (job, out) in control_jobs.iter().zip(c.first_pass()) {
                let cfg = jobs::fleet_config(job_seed(job));
                let control = run_fleet(&regvault_server::FleetConfig {
                    chaos_kill_interval: 0,
                    ..cfg
                });
                chaos.merge(&out.latency);
                calm.merge(&control.scenario.latency);
            }
            100.0 * (chaos.mean() / calm.mean() - 1.0)
        }
    }
}

/// The simulator against the paper's reported results (Figure 5 only).
fn print_paper_comparison(setup: &Setup, c: &Collector) {
    let overheads = per_program_overheads(setup, c);
    for (suite, paper) in PAPER_FULL_PCT {
        let mine: Vec<f64> = overheads
            .iter()
            .filter(|(s, _)| *s == suite)
            .map(|(_, o)| *o)
            .collect();
        if mine.is_empty() {
            continue;
        }
        let sim = 100.0 * geomean_overhead(&mine);
        println!(
            "  paper  {:<9} FULL overhead: simulated {sim:+.2}% over {} items vs paper {paper:.1}% \
             (error {:+.2} points)",
            suite.name(),
            mine.len(),
            sim - paper
        );
    }
    let (mut hits, mut lookups, mut items) = (0u64, 0u64, 0);
    for (job, out) in setup.jobs.iter().zip(c.first_pass()) {
        if let Job::Guest {
            program,
            config: FULL,
        } = *job
        {
            if setup.programs[program].suite == Suite::UnixBench {
                hits += out.counts.clb_hits;
                lookups += out.counts.clb_hits + out.counts.clb_misses;
                items += 1;
            }
        }
    }
    if lookups > 0 {
        let ratio = 100.0 * hits as f64 / lookups as f64;
        println!(
            "  paper  8-entry CLB hit ratio on {items} UnixBench items under FULL: {ratio:.1}% vs \
             paper {PAPER_CLB_HIT_PCT}% (error {:+.1} points)",
            ratio - PAPER_CLB_HIT_PCT
        );
    }
    println!(
        "  paper  the cycle model is compared with the paper's averages only; it is otherwise \
         not validated against hardware"
    );
}

fn end_to_end(args: &Args, setup: &Setup, setup_s: f64) -> (Vec<Metric>, u64, u64) {
    let budget = Duration::from_secs(args.seconds);
    let mut spans = jobs::Spans::new();
    let (c, passes) = closed_loop(
        setup,
        args.seed,
        budget,
        1,
        |_, _| false,
        &mut spans,
        |_, _, _| {},
    );
    let host_s = c.host_ns as f64 / 1e9;
    let (tail_ms, tail_pct) = tail(&c.job_ms);
    let (mut offered, mut served) = (0u64, 0u64);
    let mut latency = HistogramData::default();
    let mut job_cycles = Vec::new();
    for out in c.first_pass() {
        offered += out.offered;
        served += out.served;
        latency.merge(&out.latency);
        job_cycles.push(out.cycles);
    }
    // Figure 5 "requests" are whole jobs: use the exact per-job p99.
    let p99_cycles = if setup.workload.whole_passes() {
        quantile_u64(&job_cycles, 0.99)
    } else {
        latency.quantile(0.99).unwrap_or(0)
    };
    println!(
        "perfbench {} seed={} seconds={}: {passes} passes, {} jobs, {} failed, {:.3} s in jobs",
        args.workload.name(),
        args.seed,
        args.seconds,
        c.attempted,
        c.failed,
        host_s
    );
    for error in &c.errors {
        println!("  FAILED {error}");
    }
    println!(
        "  job_ms_tail is the p{tail_pct:.2} of {} job times (10 samples beyond it)",
        c.job_ms.len()
    );
    println!(
        "  sim_digest {} {:#018x}",
        args.workload.name(),
        c.sim_digest()
    );
    if setup.workload.whole_passes() {
        print_paper_comparison(setup, &c);
    }
    let metrics = vec![
        metric("setup_s", setup_s, "s", "lower"),
        metric(
            "mcycles_per_s",
            c.cycles as f64 / 1e6 / host_s,
            "Mcycles/s",
            "higher",
        ),
        metric("job_ms_p50", median(&c.job_ms), "ms", "lower"),
        metric("job_ms_tail", tail_ms, "ms", "lower"),
        metric("req_per_s", c.offered as f64 / host_s, "1/s", "higher"),
        metric(
            "overhead_full_pct",
            overhead_full_pct(setup, &c),
            "%",
            "lower",
        ),
        metric(
            "served_frac",
            served as f64 / offered.max(1) as f64,
            "ratio",
            "higher",
        ),
        metric(
            "req_p99_kcycles",
            p99_cycles as f64 / 1e3,
            "kcycles",
            "lower",
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MB", "lower"),
        metric(
            "ok_frac",
            1.0 - c.failed as f64 / c.attempted as f64,
            "ratio",
            "higher",
        ),
    ];
    (metrics, c.attempted, c.failed)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (mut setup_s, mut compile_ms) = (Vec::new(), Vec::new());
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let built = Setup::build(args.workload, args.seed);
        setup_s.push(start.elapsed().as_secs_f64());
        match built {
            Ok(s) => {
                compile_ms.push(s.compile_ns as f64 / 1e6);
                setup = Some(s);
            }
            Err(msg) => {
                eprintln!("perfbench: set-up failed: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    let setup = setup.expect("SETUP_REPS > 0");
    let (metrics, attempted, failed) = if args.trace {
        ledger::per_layer(&args, &setup, median(&compile_ms))
    } else {
        end_to_end(&args, &setup, median(&setup_s))
    };
    print_result(&metrics, attempted, failed);
    ExitCode::SUCCESS
}
