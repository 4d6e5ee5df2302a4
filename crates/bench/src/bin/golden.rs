//! Exact gate for the deterministic bench artifacts.
//!
//! The simulator is deterministic, so every simulated number in a committed
//! `BENCH_*.json` pins the code that produced it. `golden` rebuilds each
//! artifact's deterministic part in memory, with the function its bench bin
//! writes it with, and compares it with the committed copy leaf by leaf:
//! floats bit-equal, every other leaf equal, and a leaf present on one side
//! only is a mismatch. Wall-clock numbers are not compared: they live under
//! a `host` key, skipped at any depth, or in `BENCH_hotpath.json`'s guard
//! sections, of which only the deterministic `superblock` is rebuilt.
//!
//! Prints one `<file>:<dotted.path> <committed> -> <fresh>` line per
//! differing leaf and exits 1, as it does for a missing or malformed
//! artifact; exits 0 when every leaf matches and 2 on any argument. To
//! change a number on purpose, rerun the bench bin that owns the artifact
//! and commit the new file with a CHANGES.md line naming the cause.
//!
//! ```text
//! cargo run --release --bin golden
//! ```

use std::collections::BTreeMap;
use std::process::ExitCode;

use regvault_bench::{repo_root, superblock_section, Fig5, FleetBench, ServeBench};
use regvault_cli::json::Value;
use regvault_cli::leakage::{self, DEFAULT_SEED};

/// The key under which artifacts keep their wall-clock measurements.
const HOST: &str = "host";

/// Every deterministic artifact section, rebuilt: the file, the section
/// (`None`: the whole document) and the rebuild.
fn corpus() -> Vec<(String, Option<&'static str>, Result<Value, String>)> {
    let whole = |stem: &str, doc| (format!("BENCH_{stem}.json"), None, doc);
    let mut corpus: Vec<_> = Fig5::ALL
        .iter()
        .map(|fig| whole(fig.stem, Ok(fig.to_json(&fig.rows()))))
        .collect();
    corpus.push(whole("serve", Ok(ServeBench::run(false).to_json())));
    corpus.push(whole("fleet", Ok(FleetBench::run(false).to_json())));
    let leakage = leakage::run_campaign(DEFAULT_SEED, false);
    corpus.push(whole(
        "leakage",
        leakage.map(|report| leakage::to_json(&report, DEFAULT_SEED)),
    ));
    let hotpath = "BENCH_hotpath.json".to_owned();
    corpus.push((hotpath, Some("superblock"), Ok(superblock_section())));
    corpus
}

/// Compares the committed text of `file` with the rebuild of its `section`
/// (`None`: the whole document). Returns one
/// `<file>:<path> <committed> -> <fresh>` line per leaf that differs or
/// exists on one side only: the committed leaves in order, then those only
/// the rebuild has.
///
/// # Errors
///
/// When the committed text is not one JSON document.
fn compare(
    file: &str,
    committed: &str,
    section: Option<&str>,
    fresh: &Value,
) -> Result<Vec<String>, String> {
    let committed = Value::parse(committed).map_err(|err| format!("{file}: {err}"))?;
    // Compare the rebuild as its bin would write it: rendered, read back.
    let fresh = Value::parse(&fresh.render()).map_err(|err| format!("{file}: rebuild: {err}"))?;
    let root = section.unwrap_or_default();
    let (mut before, mut after) = (Vec::new(), Vec::new());
    if let Some(committed) = section.map_or(Some(&committed), |section| committed.get(section)) {
        leaves(root.to_owned(), committed, &mut before);
    }
    leaves(root.to_owned(), &fresh, &mut after);
    let (before_at, after_at): (BTreeMap<_, _>, BTreeMap<_, _>) = (
        before.iter().cloned().collect(),
        after.iter().cloned().collect(),
    );
    let fresh_only = after
        .iter()
        .filter(|(path, _)| !before_at.contains_key(path));
    let lines = before.iter().chain(fresh_only).filter_map(|(path, _)| {
        let (committed, fresh) = (before_at.get(path).copied(), after_at.get(path).copied());
        let equal = match (committed, fresh) {
            (Some(Value::Num(a)), Some(Value::Num(b))) => a.to_bits() == b.to_bits(),
            (a, b) => a == b,
        };
        (!equal).then(|| format!("{file}:{path} {} -> {}", shown(committed), shown(fresh)))
    });
    Ok(lines.collect())
}

/// A leaf as printed in a mismatch line.
fn shown(leaf: Option<&Value>) -> String {
    leaf.map_or("(absent)".to_owned(), |leaf| {
        leaf.render().trim_end().to_owned()
    })
}

/// Collects every leaf of `value` with its dotted path, skipping `host`
/// subtrees. Scalars and empty containers are leaves.
fn leaves<'v>(path: String, value: &'v Value, out: &mut Vec<(String, &'v Value)>) {
    let child = |key: &str| match path.as_str() {
        "" => key.to_owned(),
        _ => format!("{path}.{key}"),
    };
    match value {
        Value::Obj(pairs) if !pairs.is_empty() => {
            for (key, value) in pairs.iter().filter(|(key, _)| key != HOST) {
                leaves(child(key), value, out);
            }
        }
        Value::Arr(items) if !items.is_empty() => {
            for (i, value) in items.iter().enumerate() {
                leaves(child(&i.to_string()), value, out);
            }
        }
        leaf => out.push((path, leaf)),
    }
}

fn main() -> ExitCode {
    regvault_cli::flags::parse_env_or_exit("golden", &mut [], "");
    let mut ok = true;
    for (file, section, fresh) in corpus() {
        let path = repo_root().join(&file);
        let committed = std::fs::read_to_string(&path).map_err(|err| format!("{file}: {err}"));
        match fresh.and_then(|fresh| compare(&file, &committed?, section, &fresh)) {
            Ok(lines) if lines.is_empty() => println!("{file}: exact"),
            Ok(lines) => {
                println!("{file}: {} leaf(s) differ", lines.len());
                lines.iter().for_each(|line| println!("{line}"));
                ok = false;
            }
            Err(err) => {
                eprintln!("golden: {err}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regvault_cli::json;

    /// A serve-shaped artifact whose fault-free and faulted sections share
    /// leaf keys, so a wrong path would name the wrong section.
    fn serve_doc(faulted_served: u64) -> Value {
        let section = |served: u64| json!({ "served": served, "p99": 56_888_u64 });
        json!({ "baseline": section(2000), "under_faults": section(faulted_served) })
    }

    fn check(committed: &Value, fresh: &Value) -> Vec<String> {
        compare("s.json", &committed.render(), None, fresh).expect("committed parses")
    }

    #[test]
    fn changed_integer_names_the_path_and_both_values() {
        assert!(check(&serve_doc(458), &serve_doc(458)).is_empty());
        let lines = check(&serve_doc(458), &serve_doc(459));
        assert_eq!(lines, ["s.json:under_faults.served 458 -> 459"]);
    }

    #[test]
    fn a_float_differing_in_its_last_bit_fails() {
        let overhead = 0.026_045_612_934_818_9_f64;
        let nudged = f64::from_bits(overhead.to_bits() + 1);
        let doc = |x: f64| json!({ "geomean": json!({ "mean_full": x }) });
        assert!(check(&doc(overhead), &doc(overhead)).is_empty());
        let lines = check(&doc(overhead), &doc(nudged));
        assert_eq!(
            lines,
            [format!("s.json:geomean.mean_full {overhead} -> {nudged}")]
        );
        // The integral float 2.0 is not the integer 2.
        let int = json!({ "geomean": json!({ "mean_full": 2_u64 }) });
        assert_eq!(
            check(&doc(2.0), &int),
            ["s.json:geomean.mean_full 2.0 -> 2"]
        );
    }

    #[test]
    fn host_leaves_are_skipped_and_scenario_leaves_are_not() {
        let doc = |boot_nanos: u64, served: u64| {
            let host = json!({ "boot_nanos": boot_nanos, "workers": 2_u64 });
            json!({ "calm": json!({ "scenario": json!({ "served": served }), "host": host }) })
        };
        assert!(check(&doc(1_122_360, 3072), &doc(999, 3072)).is_empty());
        let lines = check(&doc(1_122_360, 3072), &doc(999, 3071));
        assert_eq!(lines, ["s.json:calm.scenario.served 3072 -> 3071"]);
    }

    #[test]
    fn a_leaf_on_one_side_only_fails_either_way() {
        let short = json!({ "under_faults": json!({ "served": 458_u64 }) });
        let long = json!({ "under_faults": json!({ "served": 458_u64, "shed": 1289_u64 }) });
        assert_eq!(
            check(&short, &long),
            ["s.json:under_faults.shed (absent) -> 1289"]
        );
        assert_eq!(
            check(&long, &short),
            ["s.json:under_faults.shed 1289 -> (absent)"]
        );
        // A shorter array is a missing leaf, not a pass.
        let arr = |n: u64| json!({ "rows": (0..n).map(Value::from).collect::<Vec<_>>() });
        assert_eq!(check(&arr(3), &arr(2)), ["s.json:rows.2 2 -> (absent)"]);
        // A missing section lists every leaf of its rebuild.
        let fresh = json!({ "superblock_hits": 59_979.0 });
        let lines = compare("h.json", "{}", Some("superblock"), &fresh).unwrap();
        assert_eq!(
            lines,
            ["h.json:superblock.superblock_hits (absent) -> 59979.0"]
        );
    }

    #[test]
    fn a_truncated_or_malformed_artifact_is_an_error() {
        let text = serve_doc(458).render();
        for bad in [&text[..text.len() / 2], "", "not json", "{} trailing"] {
            let err = compare("s.json", bad, None, &serve_doc(458)).unwrap_err();
            assert!(err.starts_with("s.json: invalid JSON"), "{err}");
        }
    }
}
