//! Every row `hotpath --check` guards must exist in the committed
//! `BENCH_hotpath.json`; a missing row fails the check, so it must never be
//! committed that way.

use regvault_bench::{repo_root, HOTPATH_GUARDED_PATHS};
use regvault_cli::json::Value;

#[test]
fn every_guarded_path_resolves_in_the_committed_artifact() {
    let path = repo_root().join("BENCH_hotpath.json");
    let text = std::fs::read_to_string(&path).expect("BENCH_hotpath.json is committed");
    let doc = Value::parse(&text).expect("BENCH_hotpath.json parses");
    assert!(matches!(doc.get("schema"), Some(Value::Str(s)) if s == "regvault-hotpath/v2"));
    for row in HOTPATH_GUARDED_PATHS {
        assert!(
            doc.get(row).and_then(Value::as_f64).is_some(),
            "`{row}` does not resolve to a number"
        );
    }
}
