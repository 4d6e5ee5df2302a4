//! The observability subcommands: `trace`, `metrics` and `profile`.
//!
//! All three run a guest — either a bare-metal assembly file or a named
//! benchmark workload under the protected kernel — with a tracer and the
//! metrics registry active, then export what was observed:
//!
//! * `trace` — the structured event stream, as rendered text, JSON records,
//!   or Chrome `trace_event` JSON (loadable in Perfetto / `chrome://tracing`);
//! * `metrics` — every counter and histogram from the machine's registry
//!   (CLB hit/miss, per-ksel QARMA ops, scheduler counters, syscall-latency
//!   histograms), human-readable or JSON;
//! * `profile` — a per-function flat profile attributing retired
//!   instructions and crypto operations to the symbol table's function
//!   extents (recovered by `regvault_verifier::cfg`).

use std::fmt::Write as _;

use regvault_isa::asm;
use regvault_kernel::{Kernel, KernelConfig, ProtectionConfig};
use regvault_metrics::{HistogramData, MetricsRegistry};
use regvault_sim::{
    ClbStats, MachineConfig, RingTracer, TraceEvent, TraceRecord, Tracer, TrapCause,
};
use regvault_verifier::cfg::{regions_from_symbols, FuncRegion};
use regvault_workloads::{
    lmbench::Lmbench, unixbench::UnixBench, Workload, STEP_BUDGET, TIMER_INTERVAL,
};

use crate::json;
use crate::json::Value;
use crate::{boot_bare_machine, CliError};

/// Base address bare programs load at ([`crate::boot_bare_machine`]).
const BARE_CODE_BASE: u64 = 0x8000_0000;

/// What to run under observation.
#[derive(Debug, Clone)]
pub enum TraceSubject {
    /// A bare-metal assembly source (kernel privilege, keys installed).
    Bare(String),
    /// A named benchmark workload run under the full-protection kernel.
    Workload(String),
}

/// Output flavor for `trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// One rendered line per record.
    Human,
    /// A JSON object with a `records` array.
    Json,
    /// Chrome `trace_event` JSON for Perfetto.
    Chrome,
}

/// Everything observable that a run produced.
struct RunArtifacts {
    tracer: Option<Box<dyn Tracer>>,
    metrics: MetricsRegistry,
    clb: ClbStats,
    outcome: String,
}

/// Resolves a workload name against the UnixBench and LMbench suites.
fn find_workload(name: &str) -> Result<(Box<dyn Workload>, String), CliError> {
    for item in UnixBench::ALL {
        if Workload::name(&item) == name {
            let source = item.source();
            return Ok((Box::new(item), source));
        }
    }
    for item in Lmbench::ALL {
        if Workload::name(&item) == name {
            let source = item.source();
            return Ok((Box::new(item), source));
        }
    }
    let mut known: Vec<&str> = UnixBench::ALL.iter().map(Workload::name).collect();
    known.extend(Lmbench::ALL.iter().map(Workload::name));
    Err(format!(
        "unknown workload `{name}` (expected one of: {})",
        known.join(", ")
    ))
}

/// Runs `subject` with `tracer` installed and collects the artifacts.
fn execute(subject: &TraceSubject, tracer: Box<dyn Tracer>) -> Result<RunArtifacts, CliError> {
    match subject {
        TraceSubject::Bare(source) => {
            let mut machine = boot_bare_machine(source, false)?;
            machine.install_tracer(tracer);
            let outcome = match machine.run_until_break(10_000_000) {
                Ok(()) => "break".to_owned(),
                Err(e) => e.to_string(),
            };
            Ok(RunArtifacts {
                tracer: machine.take_tracer(),
                metrics: machine.metrics_snapshot(),
                clb: machine.engine().clb().stats(),
                outcome,
            })
        }
        TraceSubject::Workload(name) => {
            let (workload, _source) = find_workload(name)?;
            let (image, entry) = workload.program();
            let mut kernel = Kernel::boot(KernelConfig {
                protection: ProtectionConfig::full(),
                machine: MachineConfig::default(),
                timer_interval: Some(TIMER_INTERVAL),
            })
            .map_err(|e| e.to_string())?;
            kernel.machine_mut().reset_stats();
            kernel.machine_mut().install_tracer(tracer);
            let outcome = match kernel.run_user(&image, entry, STEP_BUDGET) {
                Ok(value) => format!("break (a0 = {value})"),
                Err(e) => e.to_string(),
            };
            Ok(RunArtifacts {
                tracer: kernel.machine_mut().take_tracer(),
                metrics: kernel.machine().metrics_snapshot(),
                clb: kernel.machine().engine().clb().stats(),
                outcome,
            })
        }
    }
}

/// `crd` for a decryption, `cre` for an encryption.
fn direction(decrypt: bool) -> &'static str {
    if decrypt {
        "crd"
    } else {
        "cre"
    }
}

/// An event's payload as a JSON object.
fn args_json(event: &TraceEvent) -> Value {
    match event {
        TraceEvent::InsnRetire { pc, insn } => {
            json!({ "pc": format!("{pc:#x}"), "insn": insn.to_string() })
        }
        TraceEvent::ClbHit { ksel, decrypt } | TraceEvent::ClbMiss { ksel, decrypt } => {
            json!({ "ksel": *ksel, "dir": direction(*decrypt) })
        }
        TraceEvent::ClbEvict { ksel } | TraceEvent::ClbInvalidate { ksel } => {
            json!({ "ksel": *ksel })
        }
        TraceEvent::QarmaOp {
            ksel,
            tweak,
            decrypt,
        } => json!({
            "ksel": *ksel,
            "tweak": format!("{tweak:#x}"),
            "dir": direction(*decrypt),
        }),
        TraceEvent::CipOpen { frame } | TraceEvent::CipClose { frame } => {
            json!({ "frame": format!("{frame:#x}") })
        }
        TraceEvent::TrapEnter { cause } | TraceEvent::TrapExit { cause } => match cause {
            TrapCause::Syscall(num) => json!({ "cause": "syscall", "sysno": *num }),
            TrapCause::Timer => json!({ "cause": "timer" }),
            TrapCause::Exception(cause) => {
                json!({ "cause": "exception", "detail": format!("{cause:?}") })
            }
        },
        TraceEvent::Fault { kind, effect } => {
            json!({ "kind": format!("{kind:?}"), "effect": format!("{effect:?}") })
        }
        TraceEvent::ContextSwitch { from, to } => json!({ "from": *from, "to": *to }),
        TraceEvent::MemStore { addr, value } => {
            json!({ "addr": format!("{addr:#x}"), "value": format!("{value:#x}") })
        }
    }
}

/// The retained records as Chrome `trace_event` JSON. Trap entry/exit
/// become `B`/`E` duration events (they nest properly in this kernel);
/// everything else becomes a thread-scoped instant event. The timestamp
/// axis is simulated cycles.
fn chrome_json(records: &[&TraceRecord]) -> Value {
    let events: Vec<Value> = records
        .iter()
        .map(|record| {
            let (name, cat, ph) = match &record.event {
                TraceEvent::TrapEnter { cause } => (cause.label(), "trap", "B"),
                TraceEvent::TrapExit { cause } => (cause.label(), "trap", "E"),
                event => (event.kind(), "sim", "i"),
            };
            let mut event = json!({
                "name": name,
                "cat": cat,
                "ph": ph,
                "ts": record.cycle,
                "pid": 1_u64,
                "tid": 1_u64,
                "args": args_json(&record.event),
            });
            // Only instant events carry a scope (`s`: thread), right after `ph`.
            if let (true, Value::Obj(pairs)) = (ph == "i", &mut event) {
                pairs.insert(3, ("s".to_owned(), "t".into()));
            }
            event
        })
        .collect();
    json!({ "traceEvents": events, "displayTimeUnit": "ns" })
}

/// The retained records as a `{records, emitted, dropped, outcome}` object.
fn trace_json(records: &[&TraceRecord], ring: &RingTracer, outcome: &str) -> Value {
    let records: Vec<Value> = records
        .iter()
        .map(|record| {
            json!({
                "cycle": record.cycle,
                "instret": record.instret,
                "kind": record.event.kind(),
                "args": args_json(&record.event),
            })
        })
        .collect();
    json!({
        "records": records,
        "emitted": ring.emitted(),
        "dropped": ring.dropped_any(),
        "outcome": outcome,
    })
}

/// `trace` subcommand: run under a [`RingTracer`] and export the stream.
///
/// # Errors
///
/// Assembler diagnostics and unknown workload names.
pub fn cmd_trace(
    subject: &TraceSubject,
    format: TraceFormat,
    limit: usize,
) -> Result<String, CliError> {
    let artifacts = execute(subject, Box::new(RingTracer::new(limit.max(1))))?;
    let tracer = artifacts.tracer.expect("tracer survives the run");
    let ring = tracer
        .into_any()
        .downcast::<RingTracer>()
        .expect("the installed tracer is a ring");
    let records = ring.records();
    match format {
        TraceFormat::Chrome => Ok(chrome_json(&records).render()),
        TraceFormat::Json => Ok(trace_json(&records, &ring, &artifacts.outcome).render()),
        TraceFormat::Human => {
            let mut out = String::new();
            for record in &records {
                let _ = writeln!(out, "{}", record.render());
            }
            let _ = writeln!(
                out,
                "{} record(s) shown of {} emitted; outcome: {}",
                records.len(),
                ring.emitted(),
                artifacts.outcome
            );
            Ok(out)
        }
    }
}

/// A histogram's summary statistics plus its raw log2 buckets as
/// `[lower_bound, count]` pairs (empty buckets elided), so downstream
/// tooling can re-derive any quantile.
fn histogram_json(data: &HistogramData) -> Value {
    let buckets: Vec<Value> = data
        .nonzero_buckets()
        .map(|(lo, n)| Value::Arr(vec![lo.into(), n.into()]))
        .collect();
    let q = |x: f64| data.quantile(x).unwrap_or(0);
    json!({
        "count": data.count(),
        "sum": data.sum(),
        "mean": data.mean(),
        "min": data.min().unwrap_or(0),
        "max": data.max().unwrap_or(0),
        "p50": q(0.50),
        "p90": q(0.90),
        "p99": q(0.99),
        "buckets": buckets,
    })
}

/// The metrics snapshot: every counter and histogram of the registry, the
/// CLB hit rate, the CLB's own stats and the run outcome.
fn metrics_json(artifacts: &RunArtifacts, hit_rate: f64) -> Value {
    let (metrics, clb) = (&artifacts.metrics, artifacts.clb);
    let counters = metrics
        .counters()
        .map(|(name, value)| (name.to_owned(), value.into()))
        .collect();
    let histograms = metrics
        .histograms()
        .map(|(name, data)| (name.to_owned(), histogram_json(data)))
        .collect();
    json!({
        "counters": Value::Obj(counters),
        "histograms": Value::Obj(histograms),
        "clb_hit_rate": hit_rate,
        "clb": json!({
            "hits": clb.hits,
            "misses": clb.misses,
            "evictions": clb.evictions,
            "invalidations": clb.invalidations,
        }),
        "outcome": artifacts.outcome.as_str(),
    })
}

/// `metrics` subcommand: run and export the machine's metrics registry.
///
/// # Errors
///
/// Assembler diagnostics and unknown workload names.
pub fn cmd_metrics(subject: &TraceSubject, json: bool) -> Result<String, CliError> {
    // A NullTracer keeps the run on the traced datapath without retaining
    // events; the metrics counters are maintained unconditionally anyway.
    let artifacts = execute(subject, Box::new(regvault_sim::NullTracer))?;
    let metrics = &artifacts.metrics;
    let clb = artifacts.clb;
    let hit_rate = clb.hit_ratio();

    if json {
        return Ok(metrics_json(&artifacts, hit_rate).render());
    }
    let mut out = String::new();
    let _ = writeln!(out, "counters:");
    let mut counters: Vec<(&str, u64)> = metrics.counters().collect();
    counters.sort_by(|a, b| a.0.cmp(b.0));
    for (name, value) in counters {
        let _ = writeln!(out, "  {name:<28} {value}");
    }
    let _ = writeln!(out, "histograms:");
    for (name, data) in metrics.histograms() {
        let _ = writeln!(
            out,
            "  {name:<28} count={} mean={:.1} min={} p50={} p90={} p99={} max={}",
            data.count(),
            data.mean(),
            data.min().unwrap_or(0),
            data.quantile(0.50).unwrap_or(0),
            data.quantile(0.90).unwrap_or(0),
            data.quantile(0.99).unwrap_or(0),
            data.max().unwrap_or(0)
        );
    }
    let _ = writeln!(
        out,
        "CLB: {:.1}% hit rate ({} hits / {} misses), {} evictions",
        hit_rate * 100.0,
        clb.hits,
        clb.misses,
        clb.evictions
    );
    let _ = writeln!(out, "outcome: {}", artifacts.outcome);
    Ok(out)
}

/// Per-function flat profiler: a [`Tracer`] that attributes retired
/// instructions and crypto operations to the function extent containing
/// the program counter (extents come from the assembler symbol table via
/// [`regions_from_symbols`]).
#[derive(Debug, Clone)]
pub struct ProfileTracer {
    code_base: u64,
    regions: Vec<FuncRegion>,
    steps: Vec<u64>,
    crypto: Vec<u64>,
    qarma: Vec<u64>,
    other_steps: u64,
    other_crypto: u64,
    other_qarma: u64,
    current: Option<usize>,
}

impl ProfileTracer {
    /// Builds a profiler over `regions` for an image loaded at `code_base`.
    #[must_use]
    pub fn new(code_base: u64, regions: Vec<FuncRegion>) -> Self {
        let n = regions.len();
        Self {
            code_base,
            regions,
            steps: vec![0; n],
            crypto: vec![0; n],
            qarma: vec![0; n],
            other_steps: 0,
            other_crypto: 0,
            other_qarma: 0,
            current: None,
        }
    }

    /// Index of the region containing byte offset `off`, if any.
    fn locate(&self, off: u64) -> Option<usize> {
        let idx = self.regions.partition_point(|r| r.start <= off);
        if idx == 0 {
            return None;
        }
        let candidate = idx - 1;
        (off < self.regions[candidate].end).then_some(candidate)
    }
}

impl Tracer for ProfileTracer {
    fn emit(&mut self, record: TraceRecord) {
        match record.event {
            TraceEvent::InsnRetire { pc, .. } => {
                self.current = self.locate(pc.wrapping_sub(self.code_base));
                match self.current {
                    Some(i) => self.steps[i] += 1,
                    None => self.other_steps += 1,
                }
            }
            // A hit or a miss is one crypto operation; a miss additionally
            // ran the QARMA core. Kernel-side crypto (CIP frames, protected
            // fields touched while servicing this function's trap) charges
            // the function that was executing.
            TraceEvent::ClbHit { .. } | TraceEvent::ClbMiss { .. } => match self.current {
                Some(i) => self.crypto[i] += 1,
                None => self.other_crypto += 1,
            },
            TraceEvent::QarmaOp { .. } => match self.current {
                Some(i) => self.qarma[i] += 1,
                None => self.other_qarma += 1,
            },
            _ => {}
        }
    }

    fn boxed_clone(&self) -> Box<dyn Tracer> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

/// The flat profile: per-function steps, crypto ops and QARMA runs, plus
/// the remainder outside every function extent.
fn profile_json(p: &ProfileTracer, total_steps: u64, outcome: &str) -> Value {
    let functions: Vec<Value> = (0..p.regions.len())
        .map(|i| {
            json!({
                "name": p.regions[i].name.as_str(),
                "steps": p.steps[i],
                "crypto_ops": p.crypto[i],
                "qarma_ops": p.qarma[i],
            })
        })
        .collect();
    json!({
        "functions": functions,
        "other": json!({
            "steps": p.other_steps,
            "crypto_ops": p.other_crypto,
            "qarma_ops": p.other_qarma,
        }),
        "total_steps": total_steps,
        "outcome": outcome,
    })
}

/// `profile` subcommand: per-function flat profile of a run.
///
/// # Errors
///
/// Assembler diagnostics and unknown workload names.
pub fn cmd_profile(subject: &TraceSubject, json: bool) -> Result<String, CliError> {
    // Pre-assemble once to build the symbol regions the profiler needs
    // before the run starts.
    let (symbols, image_len, code_base) = match subject {
        TraceSubject::Bare(source) => {
            let program = asm::assemble(source).map_err(|e| e.to_string())?;
            let symbols: Vec<(String, u64)> = program
                .symbols()
                .iter()
                .map(|(name, off)| (name.clone(), *off))
                .collect();
            (symbols, program.bytes().len() as u64, BARE_CODE_BASE)
        }
        TraceSubject::Workload(name) => {
            let (workload, source) = find_workload(name)?;
            let program = asm::assemble(&source).map_err(|e| e.to_string())?;
            let symbols: Vec<(String, u64)> = program
                .symbols()
                .iter()
                .map(|(sym, off)| (sym.clone(), *off))
                .collect();
            let (image, _) = workload.program();
            (
                symbols,
                image.len() as u64,
                regvault_kernel::layout::USER_CODE_BASE,
            )
        }
    };
    let regions = regions_from_symbols(
        symbols.iter().map(|(name, off)| (name, off)),
        image_len,
        &[],
    );
    let profiler = ProfileTracer::new(code_base, regions);
    let artifacts = execute(subject, Box::new(profiler))?;
    let profiler = artifacts
        .tracer
        .expect("tracer survives the run")
        .into_any()
        .downcast::<ProfileTracer>()
        .expect("the installed tracer is the profiler");

    let total_steps: u64 = profiler.steps.iter().sum::<u64>() + profiler.other_steps;
    if json {
        return Ok(profile_json(&profiler, total_steps, &artifacts.outcome).render());
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} {:>12} {:>7} {:>10} {:>10}",
        "function", "steps", "%", "crypto", "qarma"
    );
    let mut order: Vec<usize> = (0..profiler.regions.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(profiler.steps[i]));
    for i in order {
        let pct = if total_steps == 0 {
            0.0
        } else {
            profiler.steps[i] as f64 / total_steps as f64 * 100.0
        };
        let _ = writeln!(
            out,
            "{:<24} {:>12} {:>6.1}% {:>10} {:>10}",
            profiler.regions[i].name, profiler.steps[i], pct, profiler.crypto[i], profiler.qarma[i]
        );
    }
    if profiler.other_steps + profiler.other_crypto + profiler.other_qarma > 0 {
        let _ = writeln!(
            out,
            "{:<24} {:>12} {:>7} {:>10} {:>10}",
            "(outside image)",
            profiler.other_steps,
            "",
            profiler.other_crypto,
            profiler.other_qarma
        );
    }
    let _ = writeln!(
        out,
        "total: {total_steps} steps; outcome: {}",
        artifacts.outcome
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const CRYPTO_PROGRAM: &str = "main:
         li   t1, 0x9000
         li   a0, 0xbeef
         jal  ra, helper
         ebreak
helper:
         creak a0, a0[3:0], t1
         crdak a0, a0, t1, [3:0]
         ret";

    #[test]
    fn trace_human_renders_crypto_events() {
        let subject = TraceSubject::Bare(CRYPTO_PROGRAM.to_owned());
        let out = cmd_trace(&subject, TraceFormat::Human, 4096).unwrap();
        assert!(out.contains("clb_miss"), "{out}");
        assert!(out.contains("qarma"), "{out}");
        assert!(out.contains("outcome: break"), "{out}");
    }

    /// Whether some element of the array at `path` in `out` has `key == want`.
    fn any_has(out: &str, path: &str, key: &str, want: &str) -> bool {
        let doc = Value::parse(out).expect("output parses");
        let want = Value::from(want);
        matches!(doc.get(path), Some(Value::Arr(items)) if items.iter().any(|e| e.get(key) == Some(&want)))
    }

    #[test]
    fn trace_chrome_is_structurally_valid_json() {
        let subject = TraceSubject::Bare(CRYPTO_PROGRAM.to_owned());
        let out = cmd_trace(&subject, TraceFormat::Chrome, 4096).unwrap();
        assert!(any_has(&out, "traceEvents", "ph", "i"), "{out}");
    }

    #[test]
    fn trace_json_counts_records() {
        let subject = TraceSubject::Bare(CRYPTO_PROGRAM.to_owned());
        let out = cmd_trace(&subject, TraceFormat::Json, 4096).unwrap();
        let emitted = Value::parse(&out).unwrap().get("emitted").cloned();
        assert!(matches!(emitted, Some(Value::Int(_))), "{out}");
        assert!(any_has(&out, "records", "kind", "insn"), "{out}");
    }

    #[test]
    fn metrics_match_clb_stats() {
        let subject = TraceSubject::Bare(CRYPTO_PROGRAM.to_owned());
        let out = cmd_metrics(&subject, true).unwrap();
        // The registry's counters and the CLB's own stats are reported side
        // by side; cross-check them.
        let doc = Value::parse(&out).unwrap();
        for (counter, stat) in [
            ("counters.clb_hits", "clb.hits"),
            ("counters.clb_misses", "clb.misses"),
        ] {
            let (counter, stat) = (doc.get(counter), doc.get(stat));
            assert!(matches!(counter, Some(Value::Int(_))), "{out}");
            assert_eq!(counter, stat, "{out}");
        }
    }

    #[test]
    fn metrics_json_reports_quantiles_and_buckets() {
        let subject = TraceSubject::Workload("syscall".to_owned());
        let out = cmd_metrics(&subject, true).unwrap();
        // Kernel-registered histograms (syscall_cycles) must carry computed
        // quantiles alongside the raw log2 buckets.
        let doc = Value::parse(&out).unwrap();
        for q in ["p50", "p90", "p99"] {
            let path = format!("histograms.syscall_cycles.{q}");
            assert!(doc.get(&path).is_some(), "{path} in {out}");
        }
        // Buckets are `[lower_bound, count]` pairs.
        let first = doc.get("histograms.syscall_cycles.buckets.0.1");
        assert!(matches!(first, Some(Value::Int(_))), "{out}");
    }

    #[test]
    fn profile_attributes_crypto_to_helper() {
        let subject = TraceSubject::Bare(CRYPTO_PROGRAM.to_owned());
        let out = cmd_profile(&subject, false).unwrap();
        let helper_line = out
            .lines()
            .find(|l| l.starts_with("helper"))
            .unwrap_or_else(|| panic!("helper row in {out}"));
        // helper executes both crypto instructions.
        assert!(helper_line.contains('2'), "{helper_line}");
        assert!(out.contains("main"), "{out}");
    }

    #[test]
    fn unknown_workload_is_rejected() {
        let subject = TraceSubject::Workload("no-such-bench".to_owned());
        assert!(cmd_trace(&subject, TraceFormat::Human, 16).is_err());
        assert!(cmd_metrics(&subject, false).is_err());
        assert!(cmd_profile(&subject, false).is_err());
    }
}
