//! Fixture-based self-tests: every rule has a violating fixture (known
//! finding count) and a clean fixture (zero findings for that rule), plus
//! an end-to-end round trip of `lint-baseline.json` through the real
//! `--update-baseline` / `--check` CLI.

use fastg_lint::{
    lint_workspace, scan_file, Diagnostic, FileScope, BAD_ALLOW, EXHAUSTIVE_EVENT_MATCH,
    EXHAUSTIVE_SNAPSHOT_FIELDS, NO_BTREEMAP_HOT_PATH, NO_DEFAULT_HASHER, NO_FLOAT_EQ,
    NO_LOSSY_CAST, NO_PANIC, NO_TEST_ONLY_PUB, NO_THREADS, NO_TIEBREAK_DRAIN, NO_UNORDERED_ITER,
    NO_WALLCLOCK,
};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Scope with every per-file rule family enabled.
fn full() -> FileScope {
    FileScope {
        lib_code: true,
        deterministic: true,
        threads_banned: true,
        hot_path: true,
    }
}

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn rule_hits(name: &str, rule: &str) -> usize {
    scan_file(name, &fixture(name), full())
        .iter()
        .filter(|d| d.rule == rule)
        .count()
}

#[test]
fn no_panic_fixture_pair() {
    assert_eq!(rule_hits("no_panic_violation.rs", NO_PANIC), 8);
    assert_eq!(rule_hits("no_panic_clean.rs", NO_PANIC), 0);
}

#[test]
fn no_wallclock_fixture_pair() {
    assert_eq!(rule_hits("no_wallclock_violation.rs", NO_WALLCLOCK), 4);
    assert_eq!(rule_hits("no_wallclock_clean.rs", NO_WALLCLOCK), 0);
}

#[test]
fn no_unordered_iter_fixture_pair() {
    assert_eq!(rule_hits("no_unordered_iter_violation.rs", NO_UNORDERED_ITER), 4);
    assert_eq!(rule_hits("no_unordered_iter_clean.rs", NO_UNORDERED_ITER), 0);
}

#[test]
fn no_float_eq_fixture_pair() {
    assert_eq!(rule_hits("no_float_eq_violation.rs", NO_FLOAT_EQ), 3);
    assert_eq!(rule_hits("no_float_eq_clean.rs", NO_FLOAT_EQ), 0);
}

#[test]
fn no_lossy_cast_fixture_pair() {
    assert_eq!(rule_hits("no_lossy_cast_violation.rs", NO_LOSSY_CAST), 3);
    assert_eq!(rule_hits("no_lossy_cast_clean.rs", NO_LOSSY_CAST), 0);
}

#[test]
fn no_threads_outside_par_fixture_pair() {
    assert_eq!(rule_hits("no_threads_outside_par_violation.rs", NO_THREADS), 8);
    assert_eq!(rule_hits("no_threads_outside_par_clean.rs", NO_THREADS), 0);
}

#[test]
fn no_default_hasher_fixture_pair() {
    // The rule only applies to library code *outside* the deterministic
    // crates (inside them `no-unordered-iter` owns these tokens), so the
    // pair is scanned with a lib-only scope rather than `full()`.
    let lib_only = FileScope {
        lib_code: true,
        deterministic: false,
        threads_banned: false,
        hot_path: false,
    };
    let hits = |name: &str, rule: &str| {
        scan_file(name, &fixture(name), lib_only)
            .iter()
            .filter(|d| d.rule == rule)
            .count()
    };
    assert_eq!(hits("no_default_hasher_violation.rs", NO_DEFAULT_HASHER), 3);
    assert_eq!(hits("no_default_hasher_clean.rs", NO_DEFAULT_HASHER), 0);
    // In deterministic scope the rule stands down entirely.
    assert_eq!(
        rule_hits("no_default_hasher_violation.rs", NO_DEFAULT_HASHER),
        0
    );
}

#[test]
fn no_tiebreak_sensitive_drain_fixture_pair() {
    assert_eq!(
        rule_hits("no_tiebreak_sensitive_drain_violation.rs", NO_TIEBREAK_DRAIN),
        4
    );
    assert_eq!(
        rule_hits("no_tiebreak_sensitive_drain_clean.rs", NO_TIEBREAK_DRAIN),
        0
    );
}

#[test]
fn no_btreemap_hot_path_fixture_pair() {
    assert_eq!(
        rule_hits("no_btreemap_hot_path_violation.rs", NO_BTREEMAP_HOT_PATH),
        3
    );
    assert_eq!(
        rule_hits("no_btreemap_hot_path_clean.rs", NO_BTREEMAP_HOT_PATH),
        0
    );
    // Off the hot path the rule stands down entirely.
    let cold = FileScope {
        lib_code: true,
        deterministic: true,
        threads_banned: true,
        hot_path: false,
    };
    let diags = scan_file(
        "no_btreemap_hot_path_violation.rs",
        &fixture("no_btreemap_hot_path_violation.rs"),
        cold,
    );
    assert!(diags.iter().all(|d| d.rule != NO_BTREEMAP_HOT_PATH));
}

#[test]
fn exhaustive_event_match_fixture_pair() {
    assert_eq!(
        rule_hits("exhaustive_event_match_violation.rs", EXHAUSTIVE_EVENT_MATCH),
        2
    );
    assert_eq!(
        rule_hits("exhaustive_event_match_clean.rs", EXHAUSTIVE_EVENT_MATCH),
        0
    );
}

#[test]
fn exhaustive_snapshot_fields_fixture_pair() {
    assert_eq!(
        rule_hits(
            "exhaustive_snapshot_fields_violation.rs",
            EXHAUSTIVE_SNAPSHOT_FIELDS
        ),
        3
    );
    assert_eq!(
        rule_hits(
            "exhaustive_snapshot_fields_clean.rs",
            EXHAUSTIVE_SNAPSHOT_FIELDS
        ),
        0
    );
}

#[test]
fn violating_fixtures_have_no_cross_rule_noise() {
    // Each violating fixture triggers ONLY its own rule (so the pairs stay
    // honest as rules evolve). The lossy-cast fixture's `as f64` line in
    // no_float_eq_violation.rs is exercised on purpose and excluded here.
    for (file, rule) in [
        ("no_panic_violation.rs", NO_PANIC),
        ("no_wallclock_violation.rs", NO_WALLCLOCK),
        ("no_unordered_iter_violation.rs", NO_UNORDERED_ITER),
        ("no_lossy_cast_violation.rs", NO_LOSSY_CAST),
        ("no_threads_outside_par_violation.rs", NO_THREADS),
        ("no_tiebreak_sensitive_drain_violation.rs", NO_TIEBREAK_DRAIN),
        ("exhaustive_event_match_violation.rs", EXHAUSTIVE_EVENT_MATCH),
        ("no_btreemap_hot_path_violation.rs", NO_BTREEMAP_HOT_PATH),
        (
            "exhaustive_snapshot_fields_violation.rs",
            EXHAUSTIVE_SNAPSHOT_FIELDS,
        ),
    ] {
        let diags = scan_file(file, &fixture(file), full());
        assert!(
            diags.iter().all(|d| d.rule == rule),
            "{file} unexpectedly triggers {:?}",
            diags
                .iter()
                .filter(|d| d.rule != rule)
                .collect::<Vec<_>>()
        );
    }
}

// ---------------------------------------------------------------------------
// `no-test-only-pub`: a small workspace tree through the pass `--check` runs.
// ---------------------------------------------------------------------------

fn test_only_pub_tree() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/test_only_pub")
}

/// The tree's findings of `rule`, as `(file, the line's text)`.
fn tree_hits(rule: &str) -> Vec<(String, String)> {
    let root = test_only_pub_tree();
    let (diags, _) = lint_workspace(&root).expect("the fixture tree lints");
    diags
        .iter()
        .filter(|d: &&Diagnostic| d.rule == rule)
        .map(|d| {
            let text = fs::read_to_string(root.join(&d.file)).expect("read fixture");
            (d.file.clone(), text.lines().nth(d.line - 1).unwrap_or("").trim().to_string())
        })
        .collect()
}

const API: &str = "crates/api/src/lib.rs";

#[test]
fn test_only_pub_flags_what_only_tests_call() {
    let hits = tree_hits(NO_TEST_ONLY_PUB);
    let lines: Vec<&str> = hits.iter().map(|(file, line)| {
        assert_eq!(file, API, "only library code defines API");
        line.as_str()
    }).collect();
    // Callers in `tests/` and in a `#[cfg(test)]` module clear nothing,
    // and neither do comments, strings or a re-export.
    assert!(lines.contains(&"pub fn only_tests() -> u32 {"), "{lines:?}");
    assert!(lines.contains(&"pub fn only_mentioned() -> &'static str {"), "{lines:?}");
    // A mistyped allow escapes nothing.
    assert!(lines.contains(&"pub fn mistyped() -> u32 {"), "{lines:?}");
    assert_eq!(lines.len(), 3, "{lines:?}");
}

#[test]
fn test_only_pub_callers_outside_tests_clear_it() {
    let hits = tree_hits(NO_TEST_ONLY_PUB);
    // An example, a binary target, a bench under `crates/bench` and
    // library code each clear the function they call; `pub(crate)` and a
    // binary's own functions are not library API.
    for name in ["for_example", "for_bin", "for_bench", "for_lib", "total", "internal", "unused_in_bin"] {
        assert!(
            hits.iter().all(|(_, line)| !line.contains(&format!("fn {name}("))),
            "{name} flagged: {hits:?}"
        );
    }
}

#[test]
fn test_only_pub_allow_needs_a_known_rule_and_a_reason() {
    // An allow with a reason suppresses the finding quietly.
    let flagged = tree_hits(NO_TEST_ONLY_PUB);
    assert!(flagged.iter().all(|(_, line)| !line.contains("fn allowed")), "{flagged:?}");
    // Without a reason it still suppresses, but is a finding itself, as is
    // an allow naming no rule.
    let bad = tree_hits(BAD_ALLOW);
    let lines: Vec<&str> = bad.iter().map(|(_, line)| line.as_str()).collect();
    assert_eq!(
        lines,
        [
            "// fastg-lint: allow(no-test-only-pub)",
            "// fastg-lint: allow(no-test-only-pubb) — a mistyped rule allows nothing",
        ]
    );
}

#[test]
fn test_only_pub_fails_check_on_the_tree() {
    let root = test_only_pub_tree();
    let out = Command::new(env!("CARGO_BIN_EXE_fastg-lint"))
        .arg("--root")
        .arg(&root)
        .arg("--baseline")
        .arg(root.join("no-such-baseline.json"))
        .arg("--check")
        .output()
        .expect("run fastg-lint");
    assert!(!out.status.success(), "a test-only `pub fn` must fail --check");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("[no-test-only-pub] `pub fn only_tests`"), "stderr: {stderr}");
}

// ---------------------------------------------------------------------------
// CLI round trip: --update-baseline then --check on a synthetic tree.
// ---------------------------------------------------------------------------

struct TempTree {
    root: PathBuf,
}

impl TempTree {
    fn new(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!("fastg-lint-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("crates/gpu/src")).expect("mkdir");
        TempTree { root }
    }

    fn write(&self, rel: &str, content: &str) {
        fs::write(self.root.join(rel), content).expect("write fixture tree");
    }

    fn lint(&self, args: &[&str]) -> std::process::Output {
        Command::new(env!("CARGO_BIN_EXE_fastg-lint"))
            .arg("--root")
            .arg(&self.root)
            .args(args)
            .output()
            .expect("run fastg-lint")
    }
}

impl Drop for TempTree {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

#[test]
fn baseline_round_trips_through_update_baseline_cli() {
    let tree = TempTree::new("roundtrip");
    tree.write(
        "crates/gpu/src/lib.rs",
        "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
    );

    // Without a baseline, --check fails on the existing violation.
    let out = tree.lint(&["--check"]);
    assert!(!out.status.success(), "check must fail with no baseline");

    // --update-baseline allowlists it; --check then passes.
    let out = tree.lint(&["--update-baseline"]);
    assert!(out.status.success(), "update-baseline failed: {out:?}");
    let baseline_path = tree.root.join("lint-baseline.json");
    let text = fs::read_to_string(&baseline_path).expect("baseline written");
    let parsed = fastg_lint::Baseline::parse(&text).expect("baseline parses");
    assert_eq!(parsed.allowed(NO_PANIC, "crates/gpu/src/lib.rs"), 1);
    // The rendered form is canonical: parse -> render is the identity.
    assert_eq!(parsed.render(), text);

    let out = tree.lint(&["--check"]);
    assert!(out.status.success(), "check must pass at baseline: {out:?}");

    // A new violation in the same file exceeds the allowlisted count.
    tree.write(
        "crates/gpu/src/lib.rs",
        "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\npub fn g(x: Option<u32>) -> u32 { x.expect(\"g\") }\n",
    );
    let out = tree.lint(&["--check"]);
    assert!(!out.status.success(), "check must fail over baseline");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no-panic-in-lib"), "stderr: {stderr}");
}

#[test]
fn json_output_is_parseable_and_positioned() {
    let tree = TempTree::new("json");
    tree.write(
        "crates/gpu/src/lib.rs",
        "use std::time::Instant;\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
    );
    let out = tree.lint(&["--json"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let v = fastg_json::Value::parse(&stdout).expect("diagnostics JSON parses");
    let items = v.as_array().expect("array");
    assert_eq!(items.len(), 2);
    let rules: Vec<&str> = items
        .iter()
        .filter_map(|d| d.get("rule").and_then(|r| r.as_str()))
        .collect();
    assert!(rules.contains(&"no-wallclock") && rules.contains(&"no-panic-in-lib"));
    for d in items {
        assert!(d.get("line").and_then(|l| l.as_u64()).is_some());
        assert!(d.get("col").and_then(|c| c.as_u64()).is_some());
        assert_eq!(
            d.get("file").and_then(|f| f.as_str()),
            Some("crates/gpu/src/lib.rs")
        );
    }
}

#[test]
fn allow_escape_respected_end_to_end() {
    let tree = TempTree::new("allow");
    tree.write(
        "crates/gpu/src/lib.rs",
        "fn f(x: Option<u32>) -> u32 { x.unwrap() } // fastg-lint: allow(no-panic-in-lib)\n",
    );
    let out = tree.lint(&["--check"]);
    assert!(out.status.success(), "allow escape must suppress: {out:?}");
}
