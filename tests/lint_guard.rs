//! Tier-1 guard for the `nlidb-lint` static-analysis pass.
//!
//! Three obligations, all load-bearing:
//!
//! 1. **The workspace passes the lint gate.** `run_workspace` over the
//!    real tree must produce zero deny-severity diagnostics, and every
//!    rule's warn count must fit the committed baseline budget
//!    (`results/lint_baseline.json`) — the same bar `cargo run -p
//!    nlidb-lint` enforces in `scripts/verify.sh`, so a regression
//!    fails the plain `cargo test` everyone runs.
//! 2. **The lint still catches what it claims to.** Each rule is fed a
//!    deliberately-violating fixture (must fire) and its closest
//!    conforming twin (must stay silent). Without these, a refactor
//!    that quietly lobotomises a rule would leave obligation 1 passing
//!    vacuously.
//! 3. **The machine-readable surface stays true.** The committed JSON
//!    report parses under its promised schema, and the rule table in
//!    DESIGN.md §7 lists exactly the rules the binary implements —
//!    doc drift fails tier-1, not a future reader.
//!
//! Fixtures live in `crates/lint/fixtures/` and are never compiled;
//! they are checked through `nlidb_lint::check_source` under synthetic
//! workspace-relative paths that put them in the scope each rule
//! watches (e.g. a deterministic crate's `src/`).

use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn fixture(name: &str) -> String {
    let path = root().join("crates/lint/fixtures").join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()))
}

/// Runs `check_source` on a fixture under a synthetic path.
fn check(fixture_name: &str, synthetic_path: &str) -> Vec<nlidb_lint::Diagnostic> {
    nlidb_lint::check_source(synthetic_path, &fixture(fixture_name))
}

/// Runs the full pass — per-file rules *plus* the flow pass seeded at
/// the fixture's `entry` fn — on one fixture under a synthetic path.
fn check_flow(fixture_name: &str, synthetic_path: &str) -> Vec<nlidb_lint::Diagnostic> {
    let cfg = nlidb_lint::flow::FlowConfig {
        seeds: vec![(None, "entry")],
        deny_crates: vec!["serve"],
    };
    nlidb_lint::check_files(
        &[(synthetic_path.to_string(), fixture(fixture_name))],
        Some(&cfg),
    )
}

fn rules_fired(diags: &[nlidb_lint::Diagnostic]) -> Vec<&str> {
    diags.iter().map(|d| d.rule.as_str()).collect()
}

// ---------------------------------------------------------------------
// Obligation 1: the real tree is clean, and the walker actually walked.
// ---------------------------------------------------------------------

#[test]
fn workspace_passes_the_lint_gate() {
    let diags = nlidb_lint::run_workspace(root());
    let baseline = nlidb_lint::report::load_baseline(root());
    let failures = nlidb_lint::report::gate(&diags, &baseline);
    assert!(
        failures.is_empty(),
        "lint gate failed:\n{}\n\ndeny diagnostics (if any):\n{}",
        failures.join("\n"),
        diags
            .iter()
            .filter(|d| d.severity == nlidb_lint::Severity::Deny)
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The baseline must stay a ratchet, not a blank cheque: a rule with
    // a budget but zero actual warns is stale and should be shrunk.
    let counts = nlidb_lint::warn_counts(&diags);
    for (rule, budget) in &baseline {
        let actual = counts.get(rule).copied().unwrap_or(0);
        assert!(
            actual >= *budget,
            "baseline budget for `{rule}` is {budget} but only {actual} warn(s) remain; \
             ratchet it down in results/lint_baseline.json"
        );
    }
}

#[test]
fn walker_covers_the_workspace() {
    // A clean run over zero files proves nothing; pin the coverage.
    let files = nlidb_lint::workspace_sources(root());
    assert!(
        files.len() >= 50,
        "walker found only {} files; the walk roots have moved",
        files.len()
    );
    for expected in [
        "src/lib.rs",
        "tests/lint_guard.rs",
        "crates/tensor/src/pool.rs",
        "crates/lint/src/lib.rs",
        "crates/trace/src/lib.rs",
        // Root examples and *per-crate* examples must both be walked;
        // the latter was a coverage gap (the walker only visited the
        // workspace-root `examples/` directory).
        "examples/serve_quickstart.rs",
        "crates/serve/examples/ask_once.rs",
    ] {
        assert!(files.iter().any(|f| f == expected), "walker missed {expected}");
    }
    // Fixtures are data, not sources: they must stay out of the walk,
    // otherwise the deliberate violations above would fail obligation 1.
    assert!(
        !files.iter().any(|f| f.contains("fixtures/")),
        "fixture files leaked into the workspace walk"
    );
}

#[test]
fn walker_walks_every_target_dir_of_every_crate() {
    // Synthetic workspace: pin the walk roots structurally, so the pin
    // survives refactors of the real tree's layout.
    let dir = std::env::temp_dir()
        .join(format!("nlidb-lint-guard-walk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for d in ["src", "tests", "benches", "examples", "crates/x/src", "crates/x/tests",
        "crates/x/benches", "crates/x/examples", "crates/x/fixtures"]
    {
        std::fs::create_dir_all(dir.join(d)).unwrap();
    }
    let expected = [
        "src/lib.rs",
        "tests/t.rs",
        "benches/b.rs",
        "examples/e.rs",
        "crates/x/src/lib.rs",
        "crates/x/tests/t.rs",
        "crates/x/benches/b.rs",
        "crates/x/examples/e.rs",
    ];
    for f in expected {
        std::fs::write(dir.join(f), "// empty\n").unwrap();
    }
    std::fs::write(dir.join("crates/x/fixtures/f.rs"), "// data, not source\n").unwrap();
    let files = nlidb_lint::workspace_sources(&dir);
    for f in expected {
        assert!(files.iter().any(|x| x == f), "walker missed {f}; walked {files:?}");
    }
    assert!(
        !files.iter().any(|x| x.contains("fixtures/")),
        "walker must not descend into fixture data: {files:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Obligation 2: one firing and one silent fixture per rule.
// ---------------------------------------------------------------------

/// Asserts the fixture fires `rule` (and nothing else) under `path`.
fn assert_fires(fixture_name: &str, path: &str, rule: &str) {
    let diags = check(fixture_name, path);
    assert!(
        diags.iter().any(|d| d.rule == rule),
        "{fixture_name}: expected `{rule}` to fire, got {:?}",
        rules_fired(&diags)
    );
    assert!(
        diags.iter().all(|d| d.rule == rule),
        "{fixture_name}: unexpected extra rules fired: {:?}",
        rules_fired(&diags)
    );
}

/// Asserts the fixture produces zero diagnostics under `path`.
fn assert_silent(fixture_name: &str, path: &str) {
    let diags = check(fixture_name, path);
    assert!(
        diags.is_empty(),
        "{fixture_name}: expected silence, got:\n{}",
        diags.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn hashmap_iteration_fixtures() {
    let diags = check("hashmap_iteration_pos.rs", "crates/storage/src/fixture.rs");
    assert!(
        diags.iter().filter(|d| d.rule == "hashmap-iteration").count() >= 3,
        "expected the field draw, the param draw, and the for-loop all flagged, got:\n{:?}",
        rules_fired(&diags)
    );
    assert_silent("hashmap_iteration_neg.rs", "crates/storage/src/fixture.rs");
    // Outside the deterministic crates the rule does not apply at all.
    assert_silent("hashmap_iteration_pos.rs", "crates/bench/src/fixture.rs");
}

#[test]
fn wall_clock_fixtures() {
    assert_fires("wall_clock_pos.rs", "crates/core/src/fixture.rs", "wall-clock");
    assert_silent("wall_clock_neg.rs", "crates/core/src/fixture.rs");
    // The trace crate owns the clock; the same source is legal there.
    assert_silent("wall_clock_pos.rs", "crates/trace/src/fixture.rs");
}

#[test]
fn raw_spawn_fixtures() {
    assert_fires("raw_spawn_pos.rs", "crates/core/src/fixture.rs", "raw-spawn");
    assert_silent("raw_spawn_neg.rs", "crates/tensor/src/fixture.rs");
    // The pool implementation is the one allowed spawn site.
    assert_silent("raw_spawn_pos.rs", "crates/tensor/src/pool.rs");
}

#[test]
fn unsafe_safety_fixtures() {
    let diags = check("unsafe_safety_pos.rs", "crates/tensor/src/fixture.rs");
    assert_eq!(
        diags.iter().filter(|d| d.rule == "unsafe-needs-safety-comment").count(),
        3,
        "the bare unsafe, the comment-with-a-gap, and the target-feature \
         wrapper whose `# Safety` doc is separated from the `unsafe` keyword \
         by attribute lines must all be flagged:\n{:?}",
        rules_fired(&diags)
    );
    assert_silent("unsafe_safety_neg.rs", "crates/tensor/src/fixture.rs");
}

#[test]
fn no_print_fixtures() {
    let diags = check("no_print_pos.rs", "crates/text/src/fixture.rs");
    assert_eq!(
        diags.iter().filter(|d| d.rule == "no-print-in-lib").count(),
        2,
        "println! and eprintln! must both be flagged:\n{:?}",
        rules_fired(&diags)
    );
    // The same prints are fine in a test target and in a #[cfg(test)] module.
    assert_silent("no_print_pos.rs", "crates/text/tests/fixture.rs");
    assert_silent("no_print_neg.rs", "crates/text/src/fixture.rs");
}

#[test]
fn env_read_fixtures() {
    assert_fires("env_read_pos.rs", "crates/data/src/fixture.rs", "env-read");
    assert_silent("env_read_neg.rs", "crates/data/src/fixture.rs");
    // Allowlisted site: the pool reads NLIDB_THREADS legitimately.
    assert_silent("env_read_pos.rs", "crates/tensor/src/pool.rs");
}

#[test]
fn net_io_fixtures() {
    assert_fires("net_io_pos.rs", "crates/core/src/fixture.rs", "net-io");
    assert_silent("net_io_neg.rs", "crates/core/src/fixture.rs");
    // The serving layer is the workspace's designated I/O boundary.
    assert_silent("net_io_pos.rs", "crates/serve/src/fixture.rs");
    // Non-library targets (tests, bins, examples) may talk to the server.
    assert_silent("net_io_pos.rs", "crates/core/tests/fixture.rs");
    assert_silent("net_io_pos.rs", "examples/fixture.rs");
}

#[test]
fn scanner_ignores_comments_and_literals() {
    // Trigger words for every rule, all inside comments / strings / raw
    // strings / char and byte literals — under the strictest scope.
    assert_silent("scanner_tricky_neg.rs", "crates/storage/src/fixture.rs");
}

#[test]
fn lint_allow_fixtures() {
    let diags = check("lint_allow_pos.rs", "crates/core/src/fixture.rs");
    let fired = rules_fired(&diags);
    // A reason-less allow suppresses nothing and is itself flagged.
    assert!(fired.contains(&"raw-spawn"), "reason-less allow must not suppress: {fired:?}");
    assert!(fired.contains(&"lint-allow-needs-reason"), "{fired:?}");
    // An allow naming a nonexistent rule is a typo diagnostic.
    assert!(fired.contains(&"lint-allow-unknown-rule"), "{fired:?}");

    // Reasoned allows — above the site and trailing — fully suppress.
    assert_silent("lint_allow_neg.rs", "crates/core/src/fixture.rs");
}

#[test]
fn panic_path_fixtures() {
    use nlidb_lint::Severity;

    // Audited crate: the `unwrap` two hops from the seed is deny, and
    // the chain names every hop — the call graph itself is pinned here,
    // not just the firing.
    let diags = check_flow("panic_path_pos.rs", "crates/serve/src/fixture.rs");
    let pp: Vec<_> = diags.iter().filter(|d| d.rule == "panic-path").collect();
    let named = pp
        .iter()
        .find(|d| d.severity == Severity::Deny)
        .expect("named construct in an audited crate must be deny");
    assert_eq!(named.chain, ["entry", "middle", "leaf"], "{:?}", named.chain);
    assert!(
        named.message.contains("entry → middle → leaf"),
        "diagnostic must carry the call chain: {}",
        named.message
    );
    // Indexing on the same path is warn-severity in an audited crate.
    assert!(
        pp.iter().any(|d| d.severity == Severity::Warn
            && d.chain == ["entry", "middle", "first_byte"]),
        "index site must be reported (warn) with its chain: {pp:?}"
    );

    // Outside the audited crates: named constructs downgrade to warn,
    // index sites are not reported at all.
    let diags = check_flow("panic_path_pos.rs", "crates/text/src/fixture.rs");
    let pp: Vec<_> = diags.iter().filter(|d| d.rule == "panic-path").collect();
    assert!(!pp.is_empty(), "named construct still reported outside audited crates");
    assert!(
        pp.iter().all(|d| d.severity == Severity::Warn),
        "nothing is deny outside the audited crates: {pp:?}"
    );
    assert!(
        pp.iter().all(|d| !d.chain.contains(&"first_byte".to_string())),
        "indexing is not reported outside the audited crates: {pp:?}"
    );

    // The conforming twin: debug_assert!, degrading parse, unreachable
    // helper, #[cfg(test)] panics — all silent.
    assert_silent_flow("panic_path_neg.rs", "crates/serve/src/fixture.rs");

    // A seed that resolves to no function is itself a deny diagnostic:
    // entry-point drift must fail loudly, not shrink the audit.
    let cfg = nlidb_lint::flow::FlowConfig {
        seeds: vec![(None, "no_such_entry_point")],
        deny_crates: vec!["serve"],
    };
    let diags = nlidb_lint::check_files(
        &[("crates/serve/src/fixture.rs".to_string(), fixture("panic_path_neg.rs"))],
        Some(&cfg),
    );
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "panic-path" && d.severity == Severity::Deny),
        "unresolved seed must be a deny diagnostic: {diags:?}"
    );
}

/// Like [`assert_silent`] but through the flow-enabled pass.
fn assert_silent_flow(fixture_name: &str, path: &str) {
    let diags = check_flow(fixture_name, path);
    assert!(
        diags.is_empty(),
        "{fixture_name}: expected silence, got:\n{}",
        diags.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn atomic_ordering_fixtures() {
    let diags = check("atomic_ordering_pos.rs", "crates/serve/src/fixture.rs");
    assert_eq!(
        diags.iter().filter(|d| d.rule == "atomic-ordering").count(),
        3,
        "Relaxed, Release, and Acquire must all be flagged:\n{:?}",
        rules_fired(&diags)
    );
    assert_silent("atomic_ordering_neg.rs", "crates/serve/src/fixture.rs");
    // The pool owns its ordering argument in prose; the file is
    // allowlisted rather than peppered with allows.
    assert_silent("atomic_ordering_pos.rs", "crates/tensor/src/pool.rs");
    // Test targets may use weak orderings freely.
    assert_silent("atomic_ordering_pos.rs", "crates/serve/tests/fixture.rs");
}

#[test]
fn lossy_cast_fixtures() {
    let diags = check("lossy_cast_pos.rs", "crates/storage/src/fixture.rs");
    assert_eq!(
        diags.iter().filter(|d| d.rule == "lossy-cast").count(),
        3,
        "as u32, as f32, and as i16 must all be flagged:\n{:?}",
        rules_fired(&diags)
    );
    assert!(
        diags
            .iter()
            .all(|d| d.severity == nlidb_lint::Severity::Warn),
        "lossy-cast is warn severity (baseline-tracked): {diags:?}"
    );
    assert_silent("lossy_cast_neg.rs", "crates/storage/src/fixture.rs");
    // Only the deterministic crates' library code is in scope.
    assert_silent("lossy_cast_pos.rs", "crates/bench/src/fixture.rs");
    assert_silent("lossy_cast_pos.rs", "crates/storage/tests/fixture.rs");
}

// ---------------------------------------------------------------------
// Obligation 3: the machine-readable surface and the §7 rule table.
// ---------------------------------------------------------------------

#[test]
fn committed_report_parses_with_promised_schema() {
    // The report is a generated artifact (`--format=json` rewrites it on
    // every run), so render it from the current tree exactly as the binary
    // does and check what a consumer would parse.
    let files = nlidb_lint::workspace_sources(root());
    let diags = nlidb_lint::run_workspace(root());
    let baseline = nlidb_lint::report::load_baseline(root());
    let text = nlidb_lint::report::report(&diags, files.len(), &baseline).pretty();
    let doc = nlidb_json::Json::parse(&text).expect("lint report must be valid JSON");
    assert_eq!(
        doc.get("schema").and_then(nlidb_json::Json::as_str),
        Some(nlidb_lint::report::REPORT_SCHEMA),
    );
    for int_field in ["files", "deny_count", "warn_count"] {
        assert!(
            doc.get(int_field).and_then(nlidb_json::Json::as_i64).is_some(),
            "report field `{int_field}` must be an integer"
        );
    }
    assert!(doc.get("baseline").and_then(nlidb_json::Json::as_obj).is_some());
    let diags = doc
        .get("diagnostics")
        .and_then(nlidb_json::Json::as_arr)
        .expect("report must carry a diagnostics array");
    for d in diags {
        for s in ["file", "rule", "severity", "message"] {
            assert!(d.get(s).and_then(nlidb_json::Json::as_str).is_some(), "{s} missing");
        }
        assert!(d.get("line").and_then(nlidb_json::Json::as_i64).is_some());
        assert!(d.get("chain").and_then(nlidb_json::Json::as_arr).is_some());
        let rule = d.get("rule").and_then(nlidb_json::Json::as_str).unwrap_or("");
        assert!(
            nlidb_lint::ALL_RULE_NAMES.contains(&rule),
            "report names unknown rule `{rule}`"
        );
    }
    // The committed baseline itself must parse under its schema.
    let btext = std::fs::read_to_string(root().join(nlidb_lint::report::BASELINE_PATH))
        .expect("committed baseline");
    nlidb_lint::report::parse_baseline(&btext).expect("baseline must parse");
}

#[test]
fn design_doc_rule_table_matches_the_binary() {
    let design = std::fs::read_to_string(root().join("DESIGN.md")).expect("DESIGN.md");
    // The §7 rule table: every row's first cell is a backticked rule
    // name. Collect rows between the §7 heading and the next section.
    let start = design
        .find("## 7")
        .expect("DESIGN.md must keep a `## 7 …` section for the lint");
    let section = &design[start..];
    let end = section[3..].find("\n## ").map(|i| i + 3).unwrap_or(section.len());
    let section = &section[..end];
    let mut documented: Vec<&str> = section
        .lines()
        .filter_map(|l| {
            let l = l.trim_start();
            let cell = l.strip_prefix("| `")?;
            cell.split('`').next()
        })
        .collect();
    documented.sort_unstable();
    documented.dedup();
    let mut implemented: Vec<&str> = nlidb_lint::ALL_RULE_NAMES.to_vec();
    implemented.sort_unstable();
    assert_eq!(
        documented, implemented,
        "DESIGN.md §7's rule table and nlidb_lint::ALL_RULE_NAMES disagree; \
         update them together"
    );
}

// ---------------------------------------------------------------------
// dependency-policy fixtures run against synthetic temp workspaces.
// ---------------------------------------------------------------------

fn temp_workspace(tag: &str, crate_manifest: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nlidb-lint-guard-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("crates/x")).unwrap();
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\nmembers = [\"crates/*\"]\n").unwrap();
    std::fs::write(dir.join("crates/x/Cargo.toml"), crate_manifest).unwrap();
    dir
}

#[test]
fn dependency_policy_fixtures() {
    let pos = temp_workspace("pos", &fixture("dependency_policy_pos.toml"));
    let diags = nlidb_lint::deps::check_manifests(&pos);
    assert!(diags.iter().all(|d| d.rule == "dependency-policy"), "{diags:?}");
    // libc (registry), git dep, and tempfile (registry) are non-hermetic;
    // serde is hermetic by path but banned by name.
    assert_eq!(diags.len(), 4, "{diags:?}");
    assert!(diags.iter().any(|d| d.message.contains("banned registry crate `serde`")));

    let neg = temp_workspace("neg", &fixture("dependency_policy_neg.toml"));
    assert!(nlidb_lint::deps::check_manifests(&neg).is_empty());

    let _ = std::fs::remove_dir_all(&pos);
    let _ = std::fs::remove_dir_all(&neg);
}
