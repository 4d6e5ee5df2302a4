//! Library backing the `regvault-cli` binary.
//!
//! Each subcommand is a function from parsed arguments to an output string,
//! so the whole surface is unit-testable without spawning processes.
//! [`usage`] lists the subcommands; it is rendered from the same [`flags`]
//! tables that parse them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flags;
pub mod fleet;
pub mod json;
pub mod leakage;
mod observe;
pub mod serve;

pub use fleet::{cmd_fleet, parse_fleet_args, FleetArgs};
pub use observe::{cmd_metrics, cmd_profile, cmd_trace, ProfileTracer, TraceFormat, TraceSubject};
pub use serve::{cmd_serve, parse_serve_args, ServeArgs};

use std::cell::Cell;
use std::fmt::Write as _;

use regvault_attacks::run_all;
use regvault_compiler::{compile, verify as compiler_verify, CompileConfig};
use regvault_core::hwcost;
use regvault_isa::{asm, disasm, KeyReg, Reg};
use regvault_kernel::ProtectionConfig;
use regvault_sim::{
    run_lockstep, run_tiered_lockstep, FaultKind, FaultPlan, Machine, MachineConfig, ReproBundle,
};
use regvault_verifier::baseline::Baseline;
use regvault_verifier::callgraph::CallGraphStats;
use regvault_verifier::{
    verify as verifier_verify, ProtectionManifest, Report, Severity, VerifyOptions, ViolationKind,
};
use regvault_workloads::{lmbench::Lmbench, spec::Spec, unixbench::UnixBench, Workload};

use crate::flags::Flag;
use crate::json::Value;

/// Error string type used by the CLI (messages go straight to stderr).
pub type CliError = String;

/// Assembles `source`, returning an `offset: word` listing.
///
/// # Errors
///
/// Returns the assembler diagnostic on malformed input.
pub fn cmd_asm(source: &str) -> Result<String, CliError> {
    let program = asm::assemble(source).map_err(|e| e.to_string())?;
    let mut out = String::new();
    for (i, word) in program.words().iter().enumerate() {
        let _ = writeln!(out, "{:#06x}: {word:08x}", i * 4);
    }
    for (symbol, offset) in program.symbols() {
        let _ = writeln!(out, "symbol {symbol} = {offset:#x}");
    }
    Ok(out)
}

/// Assembles then disassembles `source` — shows what the hardware decodes.
///
/// # Errors
///
/// Returns the assembler diagnostic on malformed input.
pub fn cmd_disasm(source: &str) -> Result<String, CliError> {
    let program = asm::assemble(source).map_err(|e| e.to_string())?;
    let mut out = String::new();
    for line in disasm::disassemble(program.bytes()) {
        let _ = writeln!(out, "{}", line.render_annotated());
    }
    let (crypto, total) = disasm::crypto_density(program.bytes());
    let _ = writeln!(out, "; {crypto}/{total} instructions are cre/crd");
    Ok(out)
}

/// Runs a bare-metal program (kernel privilege, keys installed) and dumps
/// the final register file and statistics.
///
/// # Errors
///
/// Returns assembler or simulator diagnostics.
pub fn cmd_run(source: &str, max_steps: u64) -> Result<String, CliError> {
    let mut machine = boot_bare_machine(source, false)?;
    machine
        .run_until_break(max_steps)
        .map_err(|e| e.to_string())?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "halted after {} instructions, {} cycles",
        machine.stats().instret,
        machine.stats().cycles
    );
    for chunk in Reg::ALL.chunks(4) {
        for reg in chunk {
            let _ = write!(
                out,
                "{:>4} = {:#018x}  ",
                reg.name(),
                machine.hart().reg(*reg)
            );
        }
        let _ = writeln!(out);
    }
    let clb = machine.engine().clb().stats();
    let _ = writeln!(
        out,
        "crypto: {} cre / {} crd, CLB {:.1}% hits",
        machine.stats().encrypts,
        machine.stats().decrypts,
        clb.hit_ratio() * 100.0
    );
    Ok(out)
}

/// Boots the standard bare-metal machine every execution subcommand uses:
/// keys `a`–`g` installed, program at `0x8000_0000`, a mapped stack region,
/// kernel privilege. `reference` selects the reference datapath.
pub(crate) fn boot_bare_machine(source: &str, reference: bool) -> Result<Machine, CliError> {
    let program = asm::assemble(source).map_err(|e| e.to_string())?;
    let mut machine = Machine::new(MachineConfig {
        reference_datapath: reference,
        ..MachineConfig::default()
    });
    for (i, key) in [
        KeyReg::A,
        KeyReg::B,
        KeyReg::C,
        KeyReg::D,
        KeyReg::E,
        KeyReg::F,
        KeyReg::G,
    ]
    .iter()
    .enumerate()
    {
        machine
            .write_key_register(*key, 0x1000 + i as u64, 0x2000 + i as u64)
            .expect("general key");
    }
    machine.load_program(0x8000_0000, program.bytes());
    machine.memory_mut().map_region(0x7000_0000, 0x10000);
    machine.hart_mut().set_reg(Reg::Sp, 0x7000_F000);
    machine.hart_mut().set_pc(0x8000_0000);
    Ok(machine)
}

/// Parses one `--flip INSTRET:ADDR:BIT` specification (each part decimal
/// or `0x` hex).
///
/// # Errors
///
/// Describes the expected shape on malformed input.
pub fn parse_flip(spec: &str) -> Result<(u64, FaultKind), CliError> {
    let parts: Vec<&str> = spec.split(':').collect();
    let err = || format!("invalid flip `{spec}` (expected INSTRET:ADDR:BIT)");
    let [instret, addr, bit] = parts[..] else {
        return Err(err());
    };
    let parse_u64 = |s: &str| flags::int::<u64>(s).map_err(|_| err());
    Ok((
        parse_u64(instret)?,
        FaultKind::MemBitFlip {
            addr: parse_u64(addr)?,
            bit: (parse_u64(bit)? % 64) as u8,
        },
    ))
}

/// Runs `source` bare-metal while recording every nondeterministic input,
/// returning `(report, serialized repro bundle)`. `faults` are injected via
/// a scheduled [`FaultPlan`]; the bundle embeds the pre-run snapshot, the
/// event log, and the final architectural digest the replay must reach.
///
/// # Errors
///
/// Returns assembler diagnostics; simulator errors become part of the
/// recorded outcome rather than failing the recording.
pub fn cmd_record(
    source: &str,
    max_steps: u64,
    faults: &[(u64, FaultKind)],
) -> Result<(String, Vec<u8>), CliError> {
    let mut machine = boot_bare_machine(source, false)?;
    let start = machine.snapshot();
    machine.start_recording();
    if !faults.is_empty() {
        let mut plan = FaultPlan::new();
        for &(instret, kind) in faults {
            plan = plan.at(instret, kind);
        }
        machine.set_fault_plan(plan);
    }
    let outcome = match machine.run_until_break(max_steps) {
        Ok(()) => "break".to_owned(),
        Err(e) => e.to_string(),
    };
    let log = machine.stop_recording().expect("recording was started");
    let digest = machine.arch_digest();
    let bundle = ReproBundle {
        meta: vec![
            ("harness".to_owned(), "cli-bare-metal".to_owned()),
            ("steps".to_owned(), machine.stats().instret.to_string()),
        ],
        snapshot: Some(start),
        log,
        expected_digest: digest,
        steps: max_steps,
        outcome: outcome.clone(),
    };
    let report = format!(
        "recorded {} fault event(s) over {} instructions\n\
         outcome: {outcome}\n\
         final digest: {digest:#018x}\n",
        bundle.log.len(),
        machine.stats().instret,
    );
    Ok((report, bundle.to_bytes()))
}

/// Replays a repro bundle and checks it reproduces bit-for-bit.
///
/// # Errors
///
/// Rejects malformed bundles (bad magic/version/checksum), bundles without
/// an embedded snapshot, and — the interesting case — replays whose final
/// architectural digest or outcome differs from the recording.
pub fn cmd_replay(bundle_bytes: &[u8]) -> Result<String, CliError> {
    let bundle = ReproBundle::from_bytes(bundle_bytes).map_err(|e| e.to_string())?;
    let snapshot = bundle.snapshot.as_ref().ok_or_else(|| {
        "bundle carries no snapshot; replay it with its original harness \
         (fault_campaign --replay)"
            .to_owned()
    })?;
    let mut machine = Machine::fork_from(snapshot).map_err(|e| e.to_string())?;
    if !bundle.log.is_empty() {
        machine.set_fault_plan(bundle.log.to_plan());
    }
    let outcome = match machine.run_until_break(bundle.steps) {
        Ok(()) => "break".to_owned(),
        Err(e) => e.to_string(),
    };
    let digest = machine.arch_digest();
    if digest != bundle.expected_digest || outcome != bundle.outcome {
        return Err(format!(
            "REPLAY MISMATCH\n\
             outcome: recorded `{}`, replayed `{outcome}`\n\
             digest : recorded {:#018x}, replayed {digest:#018x}\n",
            bundle.outcome, bundle.expected_digest
        ));
    }
    Ok(format!(
        "replay OK: {} event(s), outcome `{outcome}`, digest {digest:#018x} (bit-for-bit)\n",
        bundle.log.len()
    ))
}

/// Co-runs the optimized and reference datapaths over `source` in lockstep.
///
/// # Errors
///
/// Returns assembler diagnostics, or — the interesting case — a report
/// naming the exact first divergent instruction and the state component
/// that differed.
pub fn cmd_divergence(source: &str, max_steps: u64, interval: u64) -> Result<String, CliError> {
    let mut fast = boot_bare_machine(source, false)?;
    let mut reference = boot_bare_machine(source, true)?;
    let outcome = run_lockstep(&mut fast, &mut reference, max_steps, interval);
    match outcome.divergence {
        None => Ok(format!(
            "lockstep OK: {} instructions, datapaths architecturally identical \
             (digest {:#018x})\n",
            outcome.steps,
            fast.arch_digest()
        )),
        Some(divergence) => Err(format!(
            "DIVERGENCE at instruction {}: {}\n",
            divergence.step, divergence.detail
        )),
    }
}

/// Co-runs the superblock translation tier against the single-step
/// interpreter over every raw UnixBench/LMbench guest, in lockstep.
///
/// There is no kernel underneath a bare lockstep pair, so `ecall` stops —
/// which would truncate the syscall-heavy guests after a handful of
/// instructions — are serviced by a stub that returns 0 identically on
/// both machines and resumes, keeping the loops hot until the step budget.
/// Real terminal events (`ebreak`, exceptions) end the sweep for that
/// guest.
///
/// # Errors
///
/// Reports the first diverging workload with the exact instruction (or the
/// superblock's entry pc and architectural step range) and the state
/// component that differed.
pub fn cmd_divergence_tiers(max_steps: u64) -> Result<String, CliError> {
    const ECALL_WORD: u32 = 0x0000_0073;
    let mut corpus: Vec<(String, String)> = Vec::new();
    for item in UnixBench::ALL {
        corpus.push((Workload::name(&item).to_owned(), item.source()));
    }
    for item in Lmbench::ALL {
        corpus.push((Workload::name(&item).to_owned(), item.source()));
    }

    let mut out = String::new();
    let mut total_steps = 0u64;
    let mut total_hits = 0u64;
    let count = corpus.len();
    for (name, source) in corpus {
        let mut tiered = boot_bare_machine(&source, false)?;
        let mut interp = boot_bare_machine(&source, false)?;
        interp.set_superblock_tier(false);
        let mut steps = 0u64;
        let mut syscalls = 0u64;
        while steps < max_steps {
            let outcome = run_tiered_lockstep(&mut tiered, &mut interp, max_steps - steps, 256);
            steps += outcome.steps;
            if let Some(divergence) = outcome.divergence {
                return Err(format!(
                    "{name}: TIER DIVERGENCE at instruction {}: {}\n",
                    steps - outcome.steps + divergence.step,
                    divergence.detail
                ));
            }
            // An `ecall` leaves pc pointing at the instruction on both
            // machines; anything else that stopped us early is terminal.
            let pc = tiered.hart().pc();
            if steps >= max_steps || tiered.memory().read_u32(pc) != Ok(ECALL_WORD) {
                break;
            }
            syscalls += 1;
            for machine in [&mut tiered, &mut interp] {
                machine.hart_mut().set_reg(Reg::A0, 0);
                machine.advance_pc();
            }
        }
        let stats = tiered.superblock_stats();
        let _ = writeln!(
            out,
            "{name:<28} {:>9} insns  {:>8} superblock entries  {:>9} tier insns  \
             {:>5} side exits  {syscalls} syscalls stubbed",
            steps, stats.hits, stats.insns, stats.side_exits
        );
        total_steps += steps;
        total_hits += stats.hits;
    }
    let _ = writeln!(
        out,
        "tier lockstep OK: {count} workloads, {total_steps} instructions, \
         {total_hits} superblock entries, tier architecturally identical to \
         the interpreter"
    );
    Ok(out)
}

/// Parses a configuration label (`base|ra|fp|non-control|full`).
///
/// # Errors
///
/// Lists the accepted labels on a bad value.
pub fn parse_config(label: &str) -> Result<ProtectionConfig, CliError> {
    Ok(match label {
        "base" | "off" | "original" => ProtectionConfig::off(),
        "ra" => ProtectionConfig::ra_only(),
        "fp" => ProtectionConfig::fp_only(),
        "non-control" | "nc" => ProtectionConfig::non_control(),
        "full" => ProtectionConfig::full(),
        other => {
            return Err(format!(
                "unknown config `{other}` (expected base|ra|fp|non-control|full)"
            ))
        }
    })
}

/// Runs the Table 4 suite against one configuration.
///
/// # Errors
///
/// Propagates configuration-label parse errors.
pub fn cmd_pentest(label: &str) -> Result<String, CliError> {
    let config = parse_config(label)?;
    let mut out = String::new();
    let _ = writeln!(out, "penetration tests against {}:", config.label());
    for result in run_all(config) {
        let verdict = if result.outcome.defeated() {
            "defeated"
        } else {
            "SUCCEEDED"
        };
        let _ = writeln!(
            out,
            "  {:<38} {:<10} {}",
            result.attack.name(),
            verdict,
            result.detail
        );
    }
    Ok(out)
}

/// Prints the hardware area model for a CLB size.
///
/// # Errors
///
/// Rejects non-numeric entry counts.
pub fn cmd_hwcost(entries: &str) -> Result<String, CliError> {
    let entries: usize = flags::int(entries)?;
    let report = hwcost::soc_report(entries);
    let mut out = String::new();
    let _ = writeln!(out, "SoC with a {entries}-entry CLB:");
    let _ = writeln!(
        out,
        "  crypto-engine: {} LUTs ({:.2}%), {} FFs ({:.2}%)",
        report.crypto_engine_luts,
        report.crypto_engine_lut_pct(),
        report.crypto_engine_ffs,
        report.crypto_engine_ff_pct()
    );
    let _ = writeln!(
        out,
        "  CLB          : {} LUTs ({:.2}%), {} FFs ({:.2}%)",
        report.clb_luts,
        report.clb_lut_pct(),
        report.clb_ffs,
        report.clb_ff_pct()
    );
    let _ = writeln!(
        out,
        "  FPU (compare): {} LUTs ({:.2}%), {} FFs ({:.2}%)",
        report.fpu_luts,
        report.fpu_lut_pct(),
        report.fpu_ffs,
        report.fpu_ff_pct()
    );
    Ok(out)
}

/// Parsed arguments of the `verify` subcommand.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyArgs {
    /// Verify the whole benchmark corpus instead of a single file.
    pub workloads: bool,
    /// Assembly file to verify (when not `--workloads`).
    pub file: Option<String>,
    /// Emit the machine-readable JSON report.
    pub json: bool,
    /// Emit a SARIF 2.1.0-style document instead of human/JSON output.
    pub sarif: bool,
    /// Whole-program mode: call-graph recovery, interprocedural taint
    /// summaries, and the tweak-diversity / raw-key-flow / spill-gadget
    /// lints.
    pub interprocedural: bool,
    /// Baseline file to ratchet against: exit nonzero on any finding whose
    /// `(image, kind, fingerprint)` is not in it.
    pub baseline: Option<String>,
    /// Write the observed findings to this path as a fresh baseline.
    pub update_baseline: Option<String>,
    /// Key-storage data symbols (single-file mode): loads from them are
    /// tracked by the raw-key-flow lint.
    pub key_symbols: Vec<String>,
}

/// The `verify` flag table, writing into `args`.
fn verify_flags(args: &mut VerifyArgs) -> Vec<Flag<'_>> {
    vec![
        Flag::switch("--workloads", &mut args.workloads),
        Flag::switch("--json", &mut args.json),
        Flag::switch("--sarif", &mut args.sarif),
        Flag::switch("--interprocedural", &mut args.interprocedural),
        Flag::text("--baseline", "FILE", &mut args.baseline),
        Flag::text("--update-baseline", "FILE", &mut args.update_baseline),
        Flag::value("--key-symbol", "NAME", |name| {
            args.key_symbols.push(name.to_owned());
            Ok(())
        }),
    ]
}

/// Parses `verify` subcommand arguments.
///
/// # Errors
///
/// Rejects unknown flags, missing flag values, and contradictory
/// combinations (no input, both a file and `--workloads`, `--json` with
/// `--sarif`).
pub fn parse_verify_args(args: &[String]) -> Result<VerifyArgs, CliError> {
    let mut parsed = VerifyArgs::default();
    let mut files = flags::parse(args, &mut verify_flags(&mut parsed))?.into_iter();
    parsed.file = files.next();
    if files.next().is_some() {
        return Err("verify takes at most one input file".to_owned());
    }
    if parsed.workloads == parsed.file.is_some() {
        return Err(usage());
    }
    if parsed.json && parsed.sarif {
        return Err("choose one of --json / --sarif".to_owned());
    }
    Ok(parsed)
}

/// Aggregated whole-program analysis summary: call-graph coverage plus a
/// per-lint findings table with severities and the analysis wall time.
fn analysis_summary(reports: &[&Report], elapsed: std::time::Duration) -> String {
    let mut graph = CallGraphStats::default();
    for r in reports {
        if let Some(g) = r.graph {
            graph.functions += g.functions;
            graph.edges += g.edges;
            graph.direct_calls += g.direct_calls;
            graph.resolved_indirect += g.resolved_indirect;
            graph.unresolved_indirect += g.unresolved_indirect;
            graph.tail_calls += g.tail_calls;
        }
    }
    let count = |kind: ViolationKind| -> usize {
        reports
            .iter()
            .flat_map(|r| &r.violations)
            .filter(|v| v.kind == kind)
            .count()
    };
    let errors: usize = reports
        .iter()
        .map(|r| r.count_by_severity(Severity::Error))
        .sum();
    let warnings: usize = reports
        .iter()
        .map(|r| r.count_by_severity(Severity::Warning))
        .sum();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "call graph: {} function(s), {} edge(s); {} direct, {} resolved indirect, \
         {} unresolved indirect, {} tail call(s)",
        graph.functions,
        graph.edges,
        graph.direct_calls,
        graph.resolved_indirect,
        graph.unresolved_indirect,
        graph.tail_calls
    );
    let _ = writeln!(
        out,
        "lint findings ({errors} error(s), {warnings} warning(s), analyzed in {:.1} ms):",
        elapsed.as_secs_f64() * 1e3
    );
    for kind in [
        ViolationKind::TweakDiversity,
        ViolationKind::RawKeyFlow,
        ViolationKind::SpillGadget,
    ] {
        let _ = writeln!(
            out,
            "  {:<26} {:<8} {}",
            kind.id(),
            kind.severity().id(),
            count(kind)
        );
    }
    out
}

/// Applies the baseline ratchet over labeled reports: `--update-baseline`
/// rewrites the file from the observed findings; `--baseline` checks against
/// it. Returns `(summary text, ratchet failed)`.
fn apply_ratchet(
    args: &VerifyArgs,
    runs: &[(String, &Report)],
) -> Result<(String, bool), CliError> {
    if let Some(path) = &args.update_baseline {
        let baseline = Baseline::from_reports(runs);
        std::fs::write(path, baseline.render())
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        return Ok((
            format!(
                "baseline updated: {} entr(ies) written to {path}\n",
                baseline.entries.len()
            ),
            false,
        ));
    }
    let Some(path) = &args.baseline else {
        return Ok((String::new(), false));
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let baseline = Baseline::parse(&text)?;
    let (new, resolved) = baseline.check(runs);
    let mut out = String::new();
    for finding in &new {
        let _ = writeln!(
            out,
            "NEW FINDING [{}] {} in `{}` ({}): {}",
            finding.kind, finding.image, finding.function, finding.fingerprint, finding.detail
        );
    }
    let _ = writeln!(
        out,
        "ratchet: {} baseline entr(ies), {} new finding(s), {} resolved",
        baseline.entries.len(),
        new.len(),
        resolved
    );
    Ok((out, !new.is_empty()))
}

/// A verifier report as JSON: `{clean, functions, instructions, crypto_ops,
/// errors, warnings, violations: [{kind, severity, function, offset, insn,
/// detail, fingerprint}], skipped_data: [..], callgraph?: {..}}`.
#[must_use]
pub fn report_json(report: &Report) -> Value {
    let violations: Vec<Value> = report
        .violations
        .iter()
        .map(|v| {
            json!({
                "kind": v.kind.id(),
                "severity": v.severity().id(),
                "function": v.function.as_str(),
                "offset": v.offset,
                "insn": v.insn.as_str(),
                "detail": v.detail.as_str(),
                "fingerprint": v.fingerprint.as_str(),
            })
        })
        .collect();
    let skipped: Vec<Value> = report
        .skipped_data
        .iter()
        .map(|n| n.as_str().into())
        .collect();
    let mut doc = json!({
        "clean": report.is_clean(),
        "functions": report.stats.len(),
        "instructions": report.instructions(),
        "crypto_ops": report.crypto_ops(),
        "errors": report.count_by_severity(Severity::Error),
        "warnings": report.count_by_severity(Severity::Warning),
        "violations": violations,
        "skipped_data": skipped,
    });
    if let (Some(g), Value::Obj(pairs)) = (report.graph, &mut doc) {
        let graph = json!({
            "functions": g.functions,
            "edges": g.edges,
            "direct_calls": g.direct_calls,
            "resolved_indirect": g.resolved_indirect,
            "unresolved_indirect": g.unresolved_indirect,
            "tail_calls": g.tail_calls,
        });
        pairs.push(("callgraph".to_owned(), graph));
    }
    doc
}

/// One or more labeled reports as a SARIF 2.1.0-style document.
///
/// `runs` pairs an artifact label (e.g. `dhry2@full` or a file name) with
/// its report; all results land in a single SARIF run so the document is one
/// ratchetable unit. Fingerprints are emitted as the `regvault/v1` partial
/// fingerprint, which is what the baseline matches on.
#[must_use]
pub fn sarif_json(runs: &[(String, &Report)]) -> Value {
    let rules: Vec<Value> = ViolationKind::ALL
        .iter()
        .map(|kind| {
            json!({
                "id": kind.id(),
                "defaultConfiguration": json!({ "level": kind.severity().id() }),
            })
        })
        .collect();
    let results: Vec<Value> = runs
        .iter()
        .flat_map(|(label, report)| report.violations.iter().map(move |v| (label, v)))
        .map(|(label, v)| {
            let location = json!({
                "physicalLocation": json!({
                    "artifactLocation": json!({ "uri": label.as_str() }),
                    "region": json!({ "byteOffset": v.offset }),
                }),
                "logicalLocations": vec![json!({ "name": v.function.as_str() })],
            });
            json!({
                "ruleId": v.kind.id(),
                "level": v.severity().id(),
                "message": json!({ "text": format!("{} — {}", v.insn, v.detail) }),
                "locations": vec![location],
                "partialFingerprints": json!({ "regvault/v1": v.fingerprint.as_str() }),
            })
        })
        .collect();
    let driver = json!({
        "name": "regvault-verifier",
        "version": env!("CARGO_PKG_VERSION"),
        "rules": rules,
    });
    json!({
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": vec![json!({ "tool": json!({ "driver": driver }), "results": results })],
    })
}

/// Verifies a hand-written assembly program against the RegVault dataflow
/// invariants. Regions that fail to decode are skipped as data (hand-written
/// images may interleave `.dword` pools with code).
///
/// Returns `Ok(report)` when the image has no error-severity findings and
/// `Err(report)` otherwise (or when the baseline ratchet fails), so callers
/// can exit non-zero. Interprocedural lint warnings render but do not fail.
///
/// # Errors
///
/// Returns the assembler diagnostic on malformed input, or the rendered
/// verification report when the program violates an invariant.
pub fn cmd_verify_source(source: &str, args: &VerifyArgs) -> Result<String, CliError> {
    let program = asm::assemble(source).map_err(|e| e.to_string())?;
    let manifest = ProtectionManifest {
        key_symbols: args.key_symbols.clone(),
        ..ProtectionManifest::default()
    };
    let options = VerifyOptions {
        undecodable_is_data: true,
        interprocedural: args.interprocedural,
        ..VerifyOptions::default()
    };
    let started = std::time::Instant::now();
    let report = verifier_verify(
        program.bytes(),
        program.symbols().iter(),
        &manifest,
        &options,
    );
    let elapsed = started.elapsed();
    let runs = vec![("<input>".to_owned(), &report)];
    let (ratchet_text, ratchet_failed) = apply_ratchet(args, &runs)?;
    let rendered = if args.sarif {
        sarif_json(&runs).render()
    } else if args.json {
        report_json(&report).render()
    } else {
        let mut text = report.render_human();
        if args.interprocedural {
            text.push_str(&analysis_summary(&[&report], elapsed));
        }
        text.push_str(&ratchet_text);
        text
    };
    if report.has_errors() || ratchet_failed {
        Err(rendered)
    } else {
        Ok(rendered)
    }
}

/// Verifies the whole benchmark corpus: every SPEC-shaped module compiled
/// under each protection configuration (checked against the compiler's own
/// manifest), plus the raw UnixBench/LMbench guest programs (dataflow
/// invariants only).
///
/// Returns `Err` with the summary when any image has an error-severity
/// finding, or when the `--baseline` ratchet sees a finding not in the
/// committed baseline. Interprocedural lint warnings render (and feed the
/// ratchet) but do not fail the run by themselves.
///
/// # Errors
///
/// Propagates compile errors and reports verification/ratchet failures.
pub fn cmd_verify_workloads(args: &VerifyArgs) -> Result<String, CliError> {
    let configs: [(&str, CompileConfig); 5] = [
        ("base", CompileConfig::none()),
        ("ra", CompileConfig::ra_only()),
        ("fp", CompileConfig::fp_only()),
        ("non-control", CompileConfig::non_control()),
        ("full", CompileConfig::full()),
    ];

    let started = std::time::Instant::now();
    // (name, config label, report)
    let mut rows: Vec<(String, &str, Report)> = Vec::new();

    for item in Spec::ALL {
        let module = item.module();
        for (label, config) in &configs {
            let mut config = *config;
            // We produce (and render) the report ourselves instead of
            // letting the in-compile gate abort on the first failure.
            config.verify_output = false;
            config.verify_interprocedural = args.interprocedural;
            let compiled = compile(&module, &config).map_err(|e| e.to_string())?;
            let report = compiler_verify::report_for_source(&compiled, &module, &config)
                .map_err(|e| e.to_string())?;
            rows.push((item.name().to_owned(), label, report));
        }
    }

    let raw_options = VerifyOptions {
        undecodable_is_data: true,
        interprocedural: args.interprocedural,
        ..VerifyOptions::default()
    };
    let mut raw_guest = |name: &str, source: String| -> Result<(), CliError> {
        let program = asm::assemble(&source).map_err(|e| format!("{name}: {e}"))?;
        let report = verifier_verify(
            program.bytes(),
            program.symbols().iter(),
            &ProtectionManifest::default(),
            &raw_options,
        );
        rows.push((name.to_owned(), "raw", report));
        Ok(())
    };
    for item in UnixBench::ALL {
        raw_guest(Workload::name(&item), item.source())?;
    }
    for item in Lmbench::ALL {
        raw_guest(Workload::name(&item), item.source())?;
    }
    let elapsed = started.elapsed();

    let runs: Vec<(String, &Report)> = rows
        .iter()
        .map(|(name, label, report)| (format!("{name}@{label}"), report))
        .collect();
    let (ratchet_text, ratchet_failed) = apply_ratchet(args, &runs)?;

    let total_violations: usize = rows.iter().map(|(_, _, r)| r.violations.len()).sum();
    let errors: usize = rows
        .iter()
        .map(|(_, _, r)| r.count_by_severity(Severity::Error))
        .sum();
    let mut out = String::new();
    if args.sarif {
        out = sarif_json(&runs).render();
    } else if args.json {
        let images: Vec<Value> = rows
            .iter()
            .map(|(name, label, report)| {
                json!({
                    "name": name.as_str(),
                    "config": *label,
                    "report": report_json(report),
                })
            })
            .collect();
        out = json!({ "clean": total_violations == 0, "images": images }).render();
    } else {
        for (name, label, report) in &rows {
            let verdict = if report.has_errors() { "FAIL" } else { "OK" };
            let _ = writeln!(
                out,
                "  {name:<12} {label:<12} {verdict:<5} {} insns, {} crypto ops, {} violation(s)",
                report.instructions(),
                report.crypto_ops(),
                report.violations.len()
            );
            for v in &report.violations {
                let _ = writeln!(out, "    {v}");
            }
        }
        if args.interprocedural {
            let reports: Vec<&Report> = rows.iter().map(|(_, _, r)| r).collect();
            out.push_str(&analysis_summary(&reports, elapsed));
        }
        out.push_str(&ratchet_text);
        let _ = writeln!(
            out,
            "verified {} images: {total_violations} violation(s)",
            rows.len()
        );
    }
    if errors == 0 && !ratchet_failed {
        Ok(out)
    } else {
        Err(out)
    }
}

/// Every subcommand as `(name and positionals, flag table, description)`:
/// the one list behind [`usage`] and the flag-table tests.
fn subcommands(mut visit: impl FnMut(&str, &mut [Flag<'_>], &str)) {
    for (command, about) in [
        ("asm     <file.s>", "assemble, print words + symbols"),
        ("disasm  <file.s>", "assemble + disassemble round trip"),
        (
            "run     <file.s> [steps]",
            "execute on the simulated machine",
        ),
        ("pentest [config]", "run Table 4 (default: full)"),
        ("hwcost  [entries]", "Table 3 area model (default: 8)"),
        ("replay  <bundle>", "re-run a bundle, check bit-for-bit"),
    ] {
        visit(command, &mut [], about);
    }
    visit(
        "verify  [file.s]",
        &mut verify_flags(&mut VerifyArgs::default()),
        "check RegVault invariants over a program, or with --workloads over \
         every benchmark image; --interprocedural adds call-graph summaries + \
         whole-program lints; --key-symbol names key storage (file mode); with \
         --baseline, fail on any finding not in the committed baseline",
    );
    visit(
        "record  <file.s> <out.bundle>",
        &mut record_flags(&mut 0, &mut Vec::new()),
        "run + record a repro bundle",
    );
    visit(
        "divergence [file.s] [steps] [interval]",
        &mut divergence_flags(&mut false),
        "lockstep optimized vs reference datapath over a program; --tiers \
         [steps] instead locksteps the superblock tier vs the interpreter over \
         every UnixBench/LMbench guest",
    );
    visit(
        "trace|metrics|profile [file.s]",
        &mut observe_flags(
            &mut None,
            &Cell::new(TraceFormat::Human),
            &mut false,
            &mut 0,
        ),
        "a program or --workload: structured event trace (--chrome loads in \
         Perfetto), counters + histograms, or per-function steps + crypto profile",
    );
    visit(
        "serve",
        &mut serve::flag_table(&mut ServeArgs::default()),
        "supervised multi-tenant server under live fault injection (--smoke \
         gates on the accounting identity; --no-micro-reboot recovers by cold \
         restart only; --deadline-factor 0 disables the deadline shedder)",
    );
    visit(
        "fleet",
        &mut fleet::flag_table(&mut FleetArgs::default()),
        "snapshot-forked machine fleet with micro-reboot recovery under a chaos \
         kill schedule (--smoke gates on the accounting identity and recovery)",
    );
    visit(
        "leakage",
        &mut leakage::flag_table(&mut leakage::LeakageArgs::default()),
        "ciphertext side-channel campaign: dictionary collisions over the \
         workload corpus with the epoch-rekey mitigation off vs on (--smoke \
         trims the corpus and gates on a 10x collision reduction)",
    );
}

/// Usage text: each subcommand's synopsis, rendered from its flag table,
/// then its description from column 43.
#[must_use]
pub fn usage() -> String {
    let mut out = "regvault-cli — the RegVault reproduction toolbox\n\nUSAGE:\n".to_owned();
    subcommands(|command, table, about| {
        out.push_str(&flags::synopsis(
            &format!("    regvault-cli {command}"),
            table,
        ));
        flags::wrap(&mut out, 43, about.split(' ').map(str::to_owned));
        out.push('\n');
    });
    out.push_str("\nInteger values (N, S, K, CYCLES, steps, ...) are decimal or 0x hex.\n");
    out
}

/// Reads an assembly source file with a friendly diagnostic.
///
/// # Errors
///
/// Describes the path on I/O failure.
pub fn read_source(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

/// The `record` flag table, writing into `steps` and `faults`.
fn record_flags<'a>(steps: &'a mut u64, faults: &'a mut Vec<(u64, FaultKind)>) -> Vec<Flag<'a>> {
    vec![
        Flag::int("--steps", "N", steps),
        Flag::value("--flip", "I:ADDR:BIT", |spec| {
            parse_flip(spec).map(|flip| faults.push(flip))
        }),
    ]
}

/// `record <file.s> <out.bundle>` plus the [`record_flags`].
fn dispatch_record(args: &[String]) -> Result<String, CliError> {
    let (mut steps, mut faults) = (10_000_000, Vec::new());
    let positionals = flags::parse(args, &mut record_flags(&mut steps, &mut faults))?;
    let [file, out_path] = &positionals[..] else {
        return Err(usage());
    };
    let (report, bytes) = cmd_record(&read_source(file)?, steps, &faults)?;
    std::fs::write(out_path, bytes).map_err(|e| format!("cannot write `{out_path}`: {e}"))?;
    Ok(format!("{report}bundle written to {out_path}\n"))
}

/// The `divergence` flag table: `--tiers` selects the superblock sweep.
fn divergence_flags(tiers: &mut bool) -> Vec<Flag<'_>> {
    vec![Flag::switch("--tiers", tiers)]
}

/// `divergence <file.s> [steps] [interval]` or `divergence --tiers [steps]`.
fn dispatch_divergence(args: &[String]) -> Result<String, CliError> {
    let mut tiers = false;
    let positionals = flags::parse(args, &mut divergence_flags(&mut tiers))?;
    let count = |i: usize, default: u64| positionals.get(i).map_or(Ok(default), |n| flags::int(n));
    match &positionals[..] {
        [] | [_] if tiers => cmd_divergence_tiers(count(0, 500_000)?),
        [file, ..] if !tiers && positionals.len() <= 3 => {
            let (steps, interval) = (count(1, 1_000_000)?, count(2, 256)?);
            cmd_divergence(&read_source(file)?, steps, interval)
        }
        _ => Err(usage()),
    }
}

/// The `trace|metrics|profile` flag table. `--json` and `--chrome` pick the
/// `trace` format (the last one given wins); `--json` also selects JSON
/// for `metrics` and `profile`.
fn observe_flags<'a>(
    workload: &'a mut Option<String>,
    format: &'a Cell<TraceFormat>,
    json: &'a mut bool,
    limit: &'a mut usize,
) -> Vec<Flag<'a>> {
    vec![
        Flag::text("--workload", "NAME", workload),
        Flag::action("--json", move || {
            format.set(TraceFormat::Json);
            *json = true;
        }),
        Flag::action("--chrome", || format.set(TraceFormat::Chrome)),
        Flag::int("--limit", "N", limit),
    ]
}

/// `trace|metrics|profile <file.s>`, or `--workload NAME` instead of the
/// file, plus the [`observe_flags`].
fn dispatch_observe(cmd: &str, args: &[String]) -> Result<String, CliError> {
    let (mut workload, format, mut json, mut limit) =
        (None, Cell::new(TraceFormat::Human), false, 65_536);
    let files = flags::parse(
        args,
        &mut observe_flags(&mut workload, &format, &mut json, &mut limit),
    )?;
    let subject = match (workload, &files[..]) {
        (Some(name), []) => TraceSubject::Workload(name),
        (None, [file]) => TraceSubject::Bare(read_source(file)?),
        _ => return Err(usage()),
    };
    match cmd {
        "trace" => cmd_trace(&subject, format.get(), limit),
        "metrics" => cmd_metrics(&subject, json),
        "profile" => cmd_profile(&subject, json),
        _ => unreachable!("dispatch_observe called for {cmd}"),
    }
}

/// Full argument dispatch for the `regvault-cli` binary: `Ok` text goes to
/// stdout (exit 0), `Err` text to stderr (exit 1).
///
/// # Errors
///
/// Every subcommand's failure mode, plus the usage text for unknown
/// commands or malformed argument lists.
pub fn run(args: &[String]) -> Result<String, CliError> {
    match args {
        [cmd, file] if cmd == "asm" => cmd_asm(&read_source(file)?),
        [cmd, file] if cmd == "disasm" => cmd_disasm(&read_source(file)?),
        [cmd, rest @ ..] if cmd == "run" => match &flags::parse(rest, &mut [])?[..] {
            [file] => cmd_run(&read_source(file)?, 10_000_000),
            [file, steps] => cmd_run(&read_source(file)?, flags::int(steps)?),
            _ => Err(usage()),
        },
        [cmd] if cmd == "pentest" => cmd_pentest("full"),
        [cmd, config] if cmd == "pentest" => cmd_pentest(config),
        [cmd] if cmd == "hwcost" => cmd_hwcost("8"),
        [cmd, entries] if cmd == "hwcost" => cmd_hwcost(entries),
        [cmd, rest @ ..] if cmd == "verify" => {
            let parsed = parse_verify_args(rest)?;
            if parsed.workloads {
                cmd_verify_workloads(&parsed)
            } else {
                let file = parsed.file.clone().expect("parse enforces an input");
                cmd_verify_source(&read_source(&file)?, &parsed)
            }
        }
        [cmd, rest @ ..] if cmd == "record" => dispatch_record(rest),
        [cmd, bundle] if cmd == "replay" => {
            let bytes =
                std::fs::read(bundle).map_err(|e| format!("cannot read `{bundle}`: {e}"))?;
            cmd_replay(&bytes)
        }
        [cmd, rest @ ..] if cmd == "divergence" => dispatch_divergence(rest),
        [cmd, rest @ ..] if cmd == "trace" || cmd == "metrics" || cmd == "profile" => {
            dispatch_observe(cmd, rest)
        }
        [cmd, rest @ ..] if cmd == "serve" => cmd_serve(rest),
        [cmd, rest @ ..] if cmd == "fleet" => cmd_fleet(rest),
        [cmd, rest @ ..] if cmd == "leakage" => leakage::cmd_leakage(rest),
        _ => Err(usage()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every subcommand's flag table: each flag shows in `usage()`, a value
    /// flag without its value errs, an integer flag takes hex but not
    /// `lots`, and an unknown flag errs. Usage lines wrap before column 80.
    #[test]
    fn every_flag_table_is_documented_and_rejects_bad_input() {
        let usage = usage();
        assert!(
            usage.lines().all(|line| line.chars().count() <= 80),
            "{usage}"
        );
        let mut tables = 0;
        subcommands(|command, table, _| {
            let specs: Vec<_> = (0..table.len())
                .map(|i| {
                    let flag = &table[i];
                    let shown = flags::synopsis("", &table[i..=i]);
                    (flag.name, flag.metavar.is_none(), flag.integer, shown)
                })
                .collect();
            tables += usize::from(!specs.is_empty());
            let mut ok = |args: &[&str]| flags::parse(&flags::args(args), table).is_ok();
            assert!(!ok(&["--bogus"]), "{command}");
            for (name, switch, integer, shown) in specs {
                assert!(usage.contains(&shown), "usage() omits {command}{shown}");
                assert_eq!(ok(&[name]), switch, "{command} {name} alone");
                let hex_only = ok(&[name, "0x10"]) && !ok(&[name, "lots"]);
                assert!(!integer || hex_only, "{command} {name}");
            }
        });
        // verify, record, divergence, trace|metrics|profile, serve, fleet, leakage
        assert_eq!(tables, 7);
    }

    #[test]
    fn asm_lists_words_and_symbols() {
        let out = cmd_asm("start:\n  li a0, 1\n  ebreak").unwrap();
        assert!(out.contains("symbol start = 0x0"));
        assert!(out.lines().count() >= 3);
    }

    #[test]
    fn disasm_round_trips() {
        let out = cmd_disasm("creak a0, a0[7:0], t1\nebreak").unwrap();
        assert!(out.contains("creak a0, a0[7:0], t1"));
        assert!(out.contains("1/2 instructions are cre/crd"));
    }

    #[test]
    fn run_reports_registers() {
        let out = cmd_run("li a0, 42\nebreak", 1000).unwrap();
        assert!(out.contains("a0 = 0x000000000000002a"));
    }

    #[test]
    fn pentest_full_defeats_everything() {
        let out = cmd_pentest("full").unwrap();
        assert!(!out.contains("SUCCEEDED"));
        assert_eq!(out.matches("defeated").count(), 8);
    }

    #[test]
    fn pentest_base_loses_everything() {
        let out = cmd_pentest("base").unwrap();
        assert_eq!(out.matches("SUCCEEDED").count(), 8);
    }

    #[test]
    fn bad_inputs_are_reported() {
        assert!(cmd_asm("frobnicate").is_err());
        assert!(parse_config("yolo").is_err());
        assert!(cmd_hwcost("many").is_err());
    }

    #[test]
    fn hwcost_renders_percentages() {
        let out = cmd_hwcost("8").unwrap();
        assert!(out.contains("crypto-engine"));
        assert!(out.contains("FPU"));
    }

    #[test]
    fn verify_accepts_a_clean_program() {
        let out = cmd_verify_source("main:\n  li a0, 1\n  ebreak", &VerifyArgs::default()).unwrap();
        assert!(out.starts_with("OK"), "{out}");
    }

    #[test]
    fn verify_flags_an_unwrapped_secret_spill() {
        // A decrypted value stored to the stack unencrypted.
        let report = cmd_verify_source(
            "main:
              addi sp, sp, -16
              crdak a0, a0, t1, [7:0]
              sd a0, 0(sp)
              ebreak",
            &VerifyArgs::default(),
        )
        .unwrap_err();
        assert!(report.contains("plain-spill"), "{report}");
        assert!(report.contains("sd a0"), "{report}");
    }

    #[test]
    fn verify_emits_json() {
        let args = VerifyArgs {
            json: true,
            ..VerifyArgs::default()
        };
        let out = cmd_verify_source("main:\n  ebreak", &args).unwrap();
        let doc = Value::parse(&out).expect("verify --json parses");
        assert_eq!(doc.get("clean"), Some(&Value::Bool(true)), "{out}");
    }

    #[test]
    fn verify_args_parse_and_reject_contradictions() {
        let parsed = parse_verify_args(&flags::args(&[
            "--workloads",
            "--interprocedural",
            "--sarif",
            "--baseline",
            "b.txt",
        ]))
        .unwrap();
        assert!(parsed.workloads && parsed.interprocedural && parsed.sarif);
        assert_eq!(parsed.baseline.as_deref(), Some("b.txt"));
        let parsed =
            parse_verify_args(&flags::args(&["prog.s", "--key-symbol", "keyblob"])).unwrap();
        assert_eq!(parsed.file.as_deref(), Some("prog.s"));
        assert_eq!(parsed.key_symbols, vec!["keyblob".to_owned()]);
        assert!(parse_verify_args(&flags::args(&[])).is_err());
        assert!(parse_verify_args(&flags::args(&["a.s", "--workloads"])).is_err());
        assert!(parse_verify_args(&flags::args(&["a.s", "--json", "--sarif"])).is_err());
        assert!(parse_verify_args(&flags::args(&["a.s", "--frobnicate"])).is_err());
    }

    #[test]
    fn verify_interprocedural_reports_graph_and_lint_table() {
        // Warning-only program: a (key, tweak) pair reused across two
        // encryptions of different values, never stored.
        let args = VerifyArgs {
            interprocedural: true,
            ..VerifyArgs::default()
        };
        let out = cmd_verify_source(
            "main:
              li t1, 0x9000
              creak t3, a0[7:0], t1
              creak t4, a1[7:0], t1
              call helper
              ebreak
             helper:
              ret",
            &args,
        )
        .unwrap();
        assert!(out.contains("call graph:"), "{out}");
        assert!(
            out.contains("tweak-diversity            warning  1"),
            "{out}"
        );
        assert!(out.contains("raw-key-flow"), "{out}");
        assert!(out.contains("unprotected-spill-gadget"), "{out}");
    }

    #[test]
    fn verify_sarif_renders_a_document() {
        let args = VerifyArgs {
            sarif: true,
            interprocedural: true,
            ..VerifyArgs::default()
        };
        let out = cmd_verify_source("main:\n  ebreak", &args).unwrap();
        let doc = Value::parse(&out).expect("verify --sarif parses");
        assert_eq!(doc.get("version"), Some(&Value::from("2.1.0")), "{out}");
        assert_eq!(
            doc.get("runs.0.tool.driver.name"),
            Some(&Value::from("regvault-verifier")),
            "{out}"
        );
    }

    #[test]
    fn report_and_sarif_serializers_carry_every_field() {
        let mut report = Report::default();
        report.violations.push(regvault_verifier::Violation {
            kind: ViolationKind::PlainSpill,
            function: "main".into(),
            offset: 0x40,
            insn: "sd t0, 0(t6)".into(),
            detail: "sensitive \"plaintext\"\nstored to stack".into(),
            context: Vec::new(),
            fingerprint: String::new(),
        });
        report.finalize();
        let fingerprint = report.violations[0].fingerprint.as_str();
        let violation = json!({
            "kind": "plain-spill",
            "severity": "error",
            "function": "main",
            "offset": 64_u64,
            "insn": "sd t0, 0(t6)",
            "detail": "sensitive \"plaintext\"\nstored to stack",
            "fingerprint": fingerprint,
        });
        let doc = report_json(&report);
        assert_eq!(doc.get("errors"), Some(&Value::Int(1)));
        assert_eq!(doc.get("violations.0"), Some(&violation));
        assert_eq!(doc.get("callgraph"), None);
        assert_eq!(Value::parse(&doc.render()), Ok(doc));

        let sarif = sarif_json(&[("img@full".to_owned(), &report)]);
        let result = sarif.get("runs.0.results.0").expect("one result");
        for (path, want) in [
            ("ruleId", "plain-spill"),
            (
                "locations.0.physicalLocation.artifactLocation.uri",
                "img@full",
            ),
            ("locations.0.logicalLocations.0.name", "main"),
            ("partialFingerprints.regvault/v1", fingerprint),
        ] {
            assert_eq!(result.get(path), Some(&Value::from(want)), "{path}");
        }
        let rule = sarif.get("runs.0.tool.driver.rules.10.id");
        assert_eq!(rule, Some(&Value::from("unprotected-spill-gadget")));
    }

    /// A crypto round-trip program for record/replay/divergence tests.
    const CRYPTO_PROGRAM: &str = "li   t1, 0x9000
         li   s0, 0x9000
         li   a0, 0xbeef
         creak a0, a0[3:0], t1
         sd   a0, 0(s0)
         ld   a1, 0(s0)
         crdak a1, a1, t1, [3:0]
         ebreak";

    #[test]
    fn record_then_replay_is_bit_for_bit() {
        let flip = parse_flip("5:0x9000:3").unwrap();
        let (report, bytes) = cmd_record(CRYPTO_PROGRAM, 10_000, &[flip]).unwrap();
        assert!(report.contains("recorded 1 fault event(s)"), "{report}");
        let replay = cmd_replay(&bytes).unwrap();
        assert!(replay.contains("replay OK"), "{replay}");
        assert!(replay.contains("bit-for-bit"), "{replay}");
    }

    #[test]
    fn replay_rejects_corruption_and_garbage() {
        let (_, mut bytes) = cmd_record(CRYPTO_PROGRAM, 10_000, &[]).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 1;
        let err = cmd_replay(&bytes).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
        assert!(cmd_replay(b"not a bundle").is_err());
    }

    #[test]
    fn flip_parser_accepts_hex_and_rejects_noise() {
        let (instret, kind) = parse_flip("100:0x9000:63").unwrap();
        assert_eq!(instret, 100);
        assert_eq!(
            kind,
            regvault_sim::FaultKind::MemBitFlip {
                addr: 0x9000,
                bit: 63
            }
        );
        assert!(parse_flip("100:0x9000").is_err());
        assert!(parse_flip("a:b:c").is_err());
    }

    #[test]
    fn divergence_clean_program_agrees() {
        let out = cmd_divergence(CRYPTO_PROGRAM, 10_000, 64).unwrap();
        assert!(out.contains("lockstep OK"), "{out}");
    }

    #[test]
    fn divergence_tiers_corpus_agrees() {
        // A tight budget keeps the 18-guest sweep fast in debug CI runs;
        // the compute loops still run hot enough to enter superblocks.
        let out = cmd_divergence_tiers(20_000).unwrap();
        assert!(out.contains("tier lockstep OK"), "{out}");
        assert!(out.contains("18 workloads"), "{out}");
    }

    #[test]
    fn verify_workloads_corpus_is_clean() {
        let out = cmd_verify_workloads(&VerifyArgs {
            workloads: true,
            ..VerifyArgs::default()
        })
        .unwrap();
        assert!(!out.contains("FAIL"), "{out}");
        // 10 SPEC programs x 5 configs + 8 UnixBench + 10 LMbench guests.
        assert!(out.contains("verified 68 images: 0 violation(s)"), "{out}");
    }
}
