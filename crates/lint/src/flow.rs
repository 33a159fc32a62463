//! Flow rules: the approximate intra-workspace call graph and the
//! `panic-path` reachability analysis built on top of it.
//!
//! The graph's nodes are the [`crate::items::FnDecl`]s recovered from
//! every library/binary source file (test targets and `#[cfg(test)]`
//! regions are excluded — they may panic freely). Edges are resolved
//! **by simple name**: a call `foo(…)` or `recv.foo(…)` points at every
//! workspace `fn foo`, regardless of receiver type or import path. That
//! is deliberately conservative: with no type information, ambiguity
//! must over-approximate (extra edges) rather than under-approximate
//! (missed panic paths). The cost is false reachability through common
//! names (`new`, `get`), absorbed by the warn baseline and reasoned
//! allows; the known unsoundness (trait-object dispatch to a method the
//! name scan cannot see, macros generating calls) is documented in
//! DESIGN.md §7.
//!
//! `panic-path` then runs breadth-first from the serving entry points
//! and flags every panic-capable construct inside a reachable function,
//! carrying the call chain (entry → … → containing fn) in the
//! diagnostic so the reader can judge the path, not just the site.

use std::collections::BTreeMap;

use crate::items::{FnDecl, PanicKind};
use crate::{Diagnostic, Severity, Target};

/// One entry point: optional `impl` self type plus the fn's simple
/// name. `(Some("ServeEngine"), "serve")` matches only that method;
/// `(None, "execute")` matches every fn of that name.
pub type Seed = (Option<&'static str>, &'static str);

/// Configuration for the flow pass.
pub struct FlowConfig {
    /// Entry points to seed reachability from. A seed that resolves to
    /// no workspace function is itself a deny diagnostic — entry-point
    /// drift must fail loudly, not silently shrink the audit.
    pub seeds: Vec<Seed>,
    /// Crates under full audit: named panic constructs there are
    /// deny-severity, and indexing is flagged (warn). Elsewhere named
    /// constructs downgrade to warn and indexing is not reported (the
    /// tensor kernels index in every inner loop; their bounds safety is
    /// owned by the kernel tests, not this pass).
    pub deny_crates: Vec<&'static str>,
}

impl FlowConfig {
    /// The workspace's real serving entry points (ISSUE 9 / DESIGN.md
    /// §7): the TCP front end, the engine job loop, the batched serve
    /// API, the per-question pipeline, and the SQL executor.
    pub fn workspace() -> Self {
        FlowConfig {
            seeds: vec![
                (None, "accept_loop"),
                (None, "handle_conn"),
                (None, "handle_request"),
                (Some("Engine"), "run"),
                (Some("ServeEngine"), "serve"),
                (Some("Nlidb"), "predict"),
                (Some("Nlidb"), "annotate_question"),
                (None, "execute"),
            ],
            deny_crates: vec!["serve", "core", "storage"],
        }
    }
}

/// Per-file input to the flow pass: the parsed items plus the scoping
/// the engine already computed for the per-file rules.
pub struct FileItems<'a> {
    /// Workspace-relative path.
    pub rel_path: &'a str,
    /// Crate the file belongs to.
    pub crate_name: &'a str,
    /// Compilation target.
    pub target: Target,
    /// Parsed `fn` items.
    pub fns: &'a [FnDecl],
    /// `#[cfg(test)]` / `#[test]` line ranges.
    pub test_regions: &'a [(u32, u32)],
}

impl FileItems<'_> {
    fn in_test(&self, line: u32) -> bool {
        self.test_regions.iter().any(|&(a, b)| line >= a && line <= b)
    }
}

/// One call-graph node: a function in a specific file.
struct Node<'a> {
    file: usize,
    decl: &'a FnDecl,
}

impl Node<'_> {
    fn qualified(&self) -> String {
        match &self.decl.owner {
            Some(o) => format!("{o}::{}", self.decl.name),
            None => self.decl.name.clone(),
        }
    }
}

/// Runs `panic-path` over the parsed workspace and returns raw
/// diagnostics (the engine applies suppressions afterwards).
pub fn panic_path(files: &[FileItems<'_>], cfg: &FlowConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // Nodes: every fn in a lib/bin target outside test regions. Tests,
    // benches, and examples may panic; they are also not call targets
    // (a test helper must not create reachability).
    let mut nodes: Vec<Node<'_>> = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        if !matches!(f.target, Target::Lib | Target::Bin) {
            continue;
        }
        for decl in f.fns {
            if !f.in_test(decl.line) {
                nodes.push(Node { file: fi, decl });
            }
        }
    }

    // Name → candidate callees. BTreeMap keeps resolution (and thus
    // diagnostic order) independent of file discovery order.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (id, n) in nodes.iter().enumerate() {
        by_name.entry(n.decl.name.as_str()).or_default().push(id);
    }

    // Seed the BFS. `root_entry[n]` remembers which entry point first
    // reached node n, for the diagnostic message.
    let mut visited = vec![false; nodes.len()];
    let mut parent: Vec<Option<usize>> = vec![None; nodes.len()];
    let mut queue: Vec<usize> = Vec::new();
    for (owner, name) in &cfg.seeds {
        let mut hit = false;
        for &id in by_name.get(name).map(Vec::as_slice).unwrap_or_default() {
            let matches_owner = match owner {
                Some(o) => nodes[id].decl.owner.as_deref() == Some(*o),
                None => true,
            };
            if matches_owner {
                hit = true;
                if !visited[id] {
                    visited[id] = true;
                    queue.push(id);
                }
            }
        }
        if !hit {
            let label = match owner {
                Some(o) => format!("{o}::{name}"),
                None => (*name).to_string(),
            };
            out.push(Diagnostic::deny(
                "(panic-path)",
                0,
                "panic-path",
                format!(
                    "entry point `{label}` resolves to no workspace function — the seed list in \
                     `FlowConfig::workspace()` has drifted from the code; update it so the audit \
                     keeps covering the serving path"
                ),
            ));
        }
    }

    // Breadth-first over name-resolved call edges.
    let mut head = 0usize;
    while head < queue.len() {
        let id = queue[head];
        head += 1;
        for call in &nodes[id].decl.calls {
            for &callee in by_name.get(call.name.as_str()).map(Vec::as_slice).unwrap_or_default()
            {
                if !visited[callee] {
                    visited[callee] = true;
                    parent[callee] = Some(id);
                    queue.push(callee);
                }
            }
        }
    }

    // Emit one diagnostic per reachable panic site.
    for (id, node) in nodes.iter().enumerate() {
        if !visited[id] {
            continue;
        }
        let file = &files[node.file];
        let audited = cfg.deny_crates.contains(&file.crate_name);

        // Entry → … → containing fn, rebuilt from BFS parents (shortest
        // path by hop count).
        let mut chain = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            chain.push(nodes[c].qualified());
            cur = parent[c];
        }
        chain.reverse();
        let via = chain.join(" → ");

        let mut last: Option<(u32, &str)> = None;
        for site in &node.decl.sites {
            if file.in_test(site.line) {
                continue;
            }
            // One diagnostic per (line, construct): a single allow
            // covers e.g. two unwraps chained on one line.
            if last == Some((site.line, site.label.as_str())) {
                continue;
            }
            last = Some((site.line, site.label.as_str()));
            let (severity, what) = match site.kind {
                PanicKind::Named if audited => (
                    Severity::Deny,
                    format!(
                        "`{}` on the serving path ({via}); return a typed error surfacing as a \
                         documented protocol error code (docs/PROTOCOL.md §6), or justify with \
                         `// lint:allow(panic-path): …`",
                        site.label
                    ),
                ),
                PanicKind::Named => (
                    Severity::Warn,
                    format!(
                        "`{}` reachable from the serving path ({via}); outside the audited \
                         crates this is baseline-tracked — prefer a fallible signature when \
                         touching this code",
                        site.label
                    ),
                ),
                PanicKind::Index | PanicKind::IndexWithCast if audited => {
                    let extra = if site.kind == PanicKind::IndexWithCast {
                        " (the index is built from an `as` cast — truncation can wrap it back \
                         into bounds and return a wrong row instead of panicking)"
                    } else {
                        ""
                    };
                    (
                        Severity::Warn,
                        format!(
                            "indexing on the serving path ({via}){extra}; prefer `.get(…)` with \
                             a typed error, or shrink the baseline once the surrounding \
                             invariant is checked"
                        ),
                    )
                }
                _ => continue,
            };
            out.push(Diagnostic {
                file: file.rel_path.to_string(),
                line: site.line,
                rule: "panic-path".into(),
                severity,
                message: what,
                chain: chain.clone(),
            });
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse;
    use crate::scanner::scan;

    fn cfg(seeds: Vec<Seed>) -> FlowConfig {
        FlowConfig { seeds, deny_crates: vec!["serve", "core", "storage"] }
    }

    fn run_one(src: &str, rel: &str, seeds: Vec<Seed>) -> Vec<Diagnostic> {
        let scanned = scan(src);
        let fns = parse(&scanned);
        let (crate_name, target) = crate::classify(rel).unwrap();
        let regions = crate::test_regions(&scanned);
        let files = vec![FileItems {
            rel_path: rel,
            crate_name: &crate_name,
            target,
            fns: &fns,
            test_regions: &regions,
        }];
        panic_path(&files, &cfg(seeds))
    }

    #[test]
    fn two_hop_reachability_carries_the_chain() {
        let src = "pub fn entry(o: Option<u32>) -> u32 { middle(o) }\nfn middle(o: Option<u32>) -> u32 { leaf(o) }\nfn leaf(o: Option<u32>) -> u32 { o.unwrap() }\n";
        let diags = run_one(src, "crates/serve/src/x.rs", vec![(None, "entry")]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].severity, Severity::Deny);
        assert_eq!(diags[0].chain, vec!["entry", "middle", "leaf"]);
        assert!(diags[0].message.contains("entry → middle → leaf"));
    }

    #[test]
    fn unreachable_panics_are_not_flagged() {
        let src = "pub fn entry() -> u32 { 1 }\nfn orphan(o: Option<u32>) -> u32 { o.unwrap() }\n";
        let diags = run_one(src, "crates/serve/src/x.rs", vec![(None, "entry")]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn method_name_fallback_resolves_ambiguously() {
        // `h.step()` resolves to *every* fn named `step` — both impls
        // are reached even though only one receiver type is real.
        let src = "pub fn entry(h: H) { h.step() }\nstruct H; struct G;\nimpl H { fn step(&self) {} }\nimpl G { fn step(&self) { panic!(\"g\") } }\n";
        let diags = run_one(src, "crates/core/src/x.rs", vec![(None, "entry")]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].chain.contains(&"G::step".to_string()));
    }

    #[test]
    fn self_calls_to_an_impls_own_expect_are_not_flagged() {
        // A parser's own `fn expect` returns a `Result`; `self.expect(…)`
        // resolves to it. `opt.expect("m")` in the same impl still fires,
        // and so does `self.expect(…)` in an impl without its own `expect`.
        let src = "pub fn entry(p: &mut Parser, o: &Other) { p.array(None); o.go(); }\nstruct Parser;\nimpl Parser {\n    fn expect(&mut self, b: u8) -> Result<(), ()> { Ok(()) }\n    fn array(&mut self, opt: Option<u8>) -> Result<u8, ()> {\n        self.expect(b'[')?;\n        Ok(opt.expect(\"m\"))\n    }\n}\nimpl Other {\n    fn go(&self) { self.expect(\"x\") }\n}\n";
        let diags = run_one(src, "crates/core/src/x.rs", vec![(None, "entry")]);
        let lines: Vec<u32> = diags.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![7, 11], "{diags:?}");
        assert!(diags.iter().all(|d| d.severity == Severity::Deny));
    }

    #[test]
    fn indexing_is_warn_in_audited_crates_and_silent_outside() {
        let src = "pub fn entry(v: &[u32], i: usize) -> u32 { v[i] }\n";
        let audited = run_one(src, "crates/storage/src/x.rs", vec![(None, "entry")]);
        assert_eq!(audited.len(), 1);
        assert_eq!(audited[0].severity, Severity::Warn);
        let outside = run_one(src, "crates/tensor/src/x.rs", vec![(None, "entry")]);
        assert!(outside.is_empty(), "{outside:?}");
    }

    #[test]
    fn named_panics_outside_audited_crates_downgrade_to_warn() {
        let src = "pub fn entry(o: Option<u32>) -> u32 { o.unwrap() }\n";
        let diags = run_one(src, "crates/tensor/src/x.rs", vec![(None, "entry")]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Warn);
    }

    #[test]
    fn test_fns_are_neither_sources_nor_targets() {
        let src = "pub fn entry() { helper() }\nfn helper() {}\n#[cfg(test)]\nmod tests {\n    fn helper() { panic!(\"test-only\") }\n}\n";
        let diags = run_one(src, "crates/core/src/x.rs", vec![(None, "entry")]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn owner_qualified_seed_matches_only_that_impl() {
        let src = "struct A; struct B;\nimpl A { pub fn go(&self) { panic!(\"a\") } }\nimpl B { pub fn go(&self) { b_leaf() } }\nfn b_leaf() { panic!(\"b\") }\n";
        let diags = run_one(src, "crates/serve/src/x.rs", vec![(Some("B"), "go")]);
        // Only B::go seeds: its leaf fires, A::go's panic does not.
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].chain, vec!["B::go", "b_leaf"]);
    }

    #[test]
    fn unresolved_seed_is_a_deny_diagnostic() {
        let src = "pub fn entry() {}\n";
        let diags = run_one(src, "crates/serve/src/x.rs", vec![(Some("Ghost"), "missing")]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Deny);
        assert!(diags[0].message.contains("Ghost::missing"));
    }
}
