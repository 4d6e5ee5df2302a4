//! `fault_campaign --resume` stream hygiene.
//!
//! The determinism gate in `scripts/check.sh` diffs campaign *stdout*
//! between runs, so every resume-related diagnostic must go to stderr: a
//! resumed run's stdout has to be byte-identical to a cold run's, and a
//! parameter-mismatch abort must not leave partial output on stdout.

use std::path::PathBuf;
use std::process::{Command, Output};

fn campaign(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fault_campaign"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn checkpoint_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "regvault_campaign_ckpt_{}_{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn mismatched_resume_exits_2_with_clean_stdout() {
    let ckpt = checkpoint_path("mismatch");
    let base = [
        "--seed",
        "7",
        "--trials",
        "1",
        "--config",
        "full",
        "--jobs",
        "1",
        "--checkpoint",
        ckpt.to_str().unwrap(),
    ];
    let cold = campaign(&base);
    assert!(cold.status.success(), "{cold:?}");

    // Same checkpoint, different sweep parameters: refuse, exit 2, and put
    // the diagnostic on stderr only.
    let mut mismatched: Vec<&str> = base.to_vec();
    mismatched[3] = "2"; // --trials 2
    mismatched.push("--resume");
    let out = campaign(&mismatched);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("different sweep"), "{stderr}");
    assert!(
        out.stdout.is_empty(),
        "mismatch diagnostic leaked to stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn v1_text_checkpoint_is_refused_not_resumed() {
    let ckpt = checkpoint_path("v1");
    std::fs::write(&ckpt, "fault-campaign-checkpoint v1\nparams seed=7\n").unwrap();
    let path = ckpt.to_str().unwrap();
    let out = campaign(&[
        "--seed",
        "7",
        "--trials",
        "1",
        "--checkpoint",
        path,
        "--resume",
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("v1 text checkpoint"), "{stderr}");
    assert!(out.stdout.is_empty(), "{out:?}");
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn resumed_stdout_is_byte_identical_to_cold_stdout() {
    let ckpt = checkpoint_path("identical");
    let base = [
        "--seed",
        "11",
        "--trials",
        "1",
        "--config",
        "full",
        "--jobs",
        "1",
        "--checkpoint",
        ckpt.to_str().unwrap(),
    ];
    let cold = campaign(&base);
    assert!(cold.status.success(), "{cold:?}");

    let mut resumed_args: Vec<&str> = base.to_vec();
    resumed_args.push("--resume");
    let resumed = campaign(&resumed_args);
    assert!(resumed.status.success(), "{resumed:?}");
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(stderr.contains("resuming:"), "{stderr}");
    assert_eq!(
        String::from_utf8_lossy(&cold.stdout),
        String::from_utf8_lossy(&resumed.stdout),
        "resume must not change stdout"
    );
    let _ = std::fs::remove_file(&ckpt);
}
