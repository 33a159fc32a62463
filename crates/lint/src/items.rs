//! Item-structure recovery over the [`crate::scanner`] token stream.
//!
//! The scanner gives rules a flat token sequence; this module folds that
//! sequence back into *items*: every `fn` with its name, the `impl` self
//! type that owns it, its body's line span, the calls it makes, and the
//! panic-capable constructs it contains. That is the structural substrate
//! the flow rules (see [`crate::flow`]) build the call graph from.
//!
//! It is a recognizer, not a parser: a scope stack tracks `{`/`}`
//! nesting, `impl` headers are skimmed for the last path segment of the
//! self type (the segment after `for` when present), and `fn` headers
//! are skipped to the body brace at paren depth zero. Generics, where
//! clauses, trait bounds, and macro bodies are all walked through rather
//! than understood; the approximations and their failure modes are
//! documented in DESIGN.md §7. Malformed input degrades to fewer items,
//! never a panic — lint must not block on code rustc itself rejects.

use crate::scanner::{Scanned, TokKind, Token};

/// Keywords that can precede `(` or `[` without being a call or an
/// index expression (`return (x)`, `match (a, b)`, `in [1, 2]`, …).
const NON_CALL_IDENTS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true",
    "type", "union", "unsafe", "use", "where", "while", "yield",
];

/// Panic-capable method names: `recv.unwrap()` and friends.
const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];

/// Panic-capable macros (`name!(…)`). `debug_assert*` is deliberately
/// absent: it vanishes in release builds, so the panic-path rule treats
/// its argument span as exempt.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// What kind of panic-capable construct a [`PanicSite`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    /// A construct whose entire purpose is to abort on the bad case:
    /// `unwrap`/`expect`/`unwrap_err`/`expect_err`, `panic!`,
    /// `unreachable!`, `todo!`, `unimplemented!`.
    Named,
    /// Slice/array indexing `expr[…]`, which panics out of bounds.
    Index,
    /// Indexing whose bracket expression contains an `as` cast — the
    /// truncation can silently wrap the index into bounds, turning an
    /// error into a wrong answer instead of a panic.
    IndexWithCast,
}

/// One panic-capable construct inside a function body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// 1-based source line.
    pub line: u32,
    /// Construct class.
    pub kind: PanicKind,
    /// The construct as written (`expect`, `panic!`, `[…]`), for the
    /// diagnostic message.
    pub label: String,
}

/// One call expression inside a function body: `name(…)` or
/// `recv.name(…)`. Resolution to callees is name-based and happens in
/// [`crate::flow`].
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The called simple name (last path segment / method name).
    pub name: String,
    /// 1-based source line.
    pub line: u32,
}

/// One `fn` item with a body.
#[derive(Debug, Clone)]
pub struct FnDecl {
    /// The function's simple name.
    pub name: String,
    /// Self type of the enclosing `impl` block, when there is one
    /// (`impl ServeEngine { fn serve … }` → `Some("ServeEngine")`).
    pub owner: Option<String>,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Line of the body's closing brace (best effort; equals `line`
    /// when the file ends before the body closes).
    pub end_line: u32,
    /// Calls made anywhere in the body, in source order.
    pub calls: Vec<CallSite>,
    /// Panic-capable constructs anywhere in the body, in source order.
    pub sites: Vec<PanicSite>,
}

/// What a `{` on the scope stack belongs to.
enum Scope {
    /// A plain block, struct/match/trait body, or module body.
    Block,
    /// An `impl` body with its recovered self type and the names of the
    /// `fn`s it defines directly.
    Impl(Option<String>, Vec<String>),
    /// A `fn` body; the index points into the output `Vec<FnDecl>`.
    Fn(usize),
}

/// Skims an `impl` header starting after the `impl` token, returning
/// `(self_type, index of the body '{' or header-ending ';')`. The self
/// type is the last path segment seen at angle depth zero before the
/// body (segments after `for` overwrite those before it, so
/// `impl Trait for Type` yields `Type`); `where` clauses are ignored.
fn skim_impl_header(toks: &[Token], mut j: usize) -> (Option<String>, usize) {
    let mut angle = 0i32;
    let mut candidate = None;
    let mut in_where = false;
    while j < toks.len() {
        let t = &toks[j];
        match t.text.as_str() {
            "<" => angle += 1,
            // `->` arrives as `-` then `>`; only a real close decrements.
            ">" if angle > 0 => angle -= 1,
            "{" | ";" if angle <= 0 => break,
            "where" if t.kind == TokKind::Ident && angle <= 0 => in_where = true,
            _ => {
                if !in_where
                    && angle <= 0
                    && t.kind == TokKind::Ident
                    && !matches!(t.text.as_str(), "for" | "dyn" | "mut" | "const" | "unsafe")
                {
                    candidate = Some(t.text.clone());
                }
            }
        }
        j += 1;
    }
    (candidate, j)
}

/// Names of the `fn` items directly inside the `impl` body whose `{`
/// sits at `open` (not those of nested blocks or nested impls).
fn impl_fn_names(toks: &[Token], open: usize) -> Vec<String> {
    let end = skip_balanced(toks, open);
    let mut depth = 0usize;
    let mut names = Vec::new();
    for (j, t) in toks.iter().enumerate().take(end).skip(open + 1) {
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => depth = depth.saturating_sub(1),
            "fn" if depth == 0 && t.kind == TokKind::Ident => {
                if let Some(name) = toks.get(j + 1).filter(|n| n.kind == TokKind::Ident) {
                    names.push(name.text.clone());
                }
            }
            _ => {}
        }
    }
    names
}

/// Index just past a balanced delimiter region whose opener sits at
/// `open` (used to step over attribute bodies and `debug_assert!`
/// argument lists without recording anything inside them).
fn skip_balanced(toks: &[Token], open: usize) -> usize {
    let (o, c) = match toks[open].text.as_str() {
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        "{" => ("{", "}"),
        _ => return open + 1,
    };
    let mut depth = 1usize;
    let mut j = open + 1;
    while j < toks.len() && depth > 0 {
        if toks[j].text == o {
            depth += 1;
        } else if toks[j].text == c {
            depth -= 1;
        }
        j += 1;
    }
    j
}

/// Whether the bracket expression opening at `open` (a `[` token)
/// contains an `as` cast at its own depth or deeper.
fn index_contains_cast(toks: &[Token], open: usize) -> bool {
    let end = skip_balanced(toks, open);
    toks[open + 1..end.saturating_sub(1)]
        .iter()
        .any(|t| t.kind == TokKind::Ident && t.text == "as")
}

/// Recovers every `fn` item (with owner, calls, and panic sites) from a
/// scanned file.
pub fn parse(scanned: &Scanned) -> Vec<FnDecl> {
    let toks = &scanned.tokens;
    let mut fns: Vec<FnDecl> = Vec::new();
    let mut stack: Vec<Scope> = Vec::new();
    let mut i = 0usize;

    while i < toks.len() {
        let t = &toks[i];

        // Attributes never contain items or calls worth recording, and
        // `#[derive(…)]` would otherwise look like call expressions.
        if t.text == "#" && toks.get(i + 1).is_some_and(|n| n.text == "[") {
            i = skip_balanced(toks, i + 1);
            continue;
        }

        // `debug_assert!`/`debug_assert_eq!`/… vanish in release builds:
        // the whole argument span is exempt from panic/call recording.
        if t.kind == TokKind::Ident
            && t.text.starts_with("debug_assert")
            && toks.get(i + 1).is_some_and(|n| n.text == "!")
        {
            match toks.get(i + 2).map(|n| n.text.as_str()) {
                Some("(" | "[" | "{") => i = skip_balanced(toks, i + 2),
                _ => i += 2,
            }
            continue;
        }

        if t.kind == TokKind::Ident && t.text == "impl" {
            let (self_ty, j) = skim_impl_header(toks, i + 1);
            if toks.get(j).is_some_and(|b| b.text == "{") {
                stack.push(Scope::Impl(self_ty, impl_fn_names(toks, j)));
            }
            i = j + 1;
            continue;
        }

        if t.kind == TokKind::Ident && t.text == "fn" {
            // `fn` in a fn-pointer type (`fn(u32) -> u32`) has no name.
            let Some(name_tok) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) else {
                i += 1;
                continue;
            };
            // Skim the signature to the body `{` at bracket depth zero
            // (or the `;` of a bodiless trait/extern declaration).
            let mut depth = 0i32;
            let mut j = i + 2;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" | ";" if depth <= 0 => break,
                    _ => {}
                }
                j += 1;
            }
            if toks.get(j).is_some_and(|b| b.text == "{") {
                // A nested fn gets an implicit parent→child call edge:
                // the parent *defines* it, and almost always calls it.
                let parent = stack.iter().rev().find_map(|s| match s {
                    Scope::Fn(ix) => Some(*ix),
                    _ => None,
                });
                if let Some(p) = parent {
                    fns[p]
                        .calls
                        .push(CallSite { name: name_tok.text.clone(), line: name_tok.line });
                }
                let owner = stack.iter().rev().find_map(|s| match s {
                    Scope::Impl(o, _) => Some(o.clone()),
                    _ => None,
                });
                let idx = fns.len();
                fns.push(FnDecl {
                    name: name_tok.text.clone(),
                    owner: owner.flatten(),
                    line: t.line,
                    end_line: t.line,
                    calls: Vec::new(),
                    sites: Vec::new(),
                });
                stack.push(Scope::Fn(idx));
            }
            i = j + 1;
            continue;
        }

        if t.text == "{" {
            stack.push(Scope::Block);
            i += 1;
            continue;
        }
        if t.text == "}" {
            if let Some(Scope::Fn(ix)) = stack.pop() {
                fns[ix].end_line = t.line;
            }
            i += 1;
            continue;
        }

        // Body-level recording: only inside some fn.
        let Some(cur) = stack.iter().rev().find_map(|s| match s {
            Scope::Fn(ix) => Some(*ix),
            _ => None,
        }) else {
            i += 1;
            continue;
        };

        if t.kind == TokKind::Ident {
            let next = toks.get(i + 1).map(|n| n.text.as_str());
            if next == Some("!") && PANIC_MACROS.contains(&t.text.as_str()) {
                fns[cur].sites.push(PanicSite {
                    line: t.line,
                    kind: PanicKind::Named,
                    label: format!("{}!", t.text),
                });
            } else if next == Some("(") && !NON_CALL_IDENTS.contains(&t.text.as_str()) {
                let is_method = i >= 1 && toks[i - 1].text == ".";
                // `self.expect(…)` calls the enclosing impl's own `fn
                // expect` when it defines one, not `Option::expect`.
                let own_method = is_method
                    && i >= 2
                    && toks[i - 2].text == "self"
                    && stack.iter().rev().find_map(|s| match s {
                        Scope::Impl(_, names) => Some(names.contains(&t.text)),
                        _ => None,
                    }) == Some(true);
                if is_method && !own_method && PANIC_METHODS.contains(&t.text.as_str()) {
                    fns[cur].sites.push(PanicSite {
                        line: t.line,
                        kind: PanicKind::Named,
                        label: t.text.clone(),
                    });
                } else {
                    fns[cur].calls.push(CallSite { name: t.text.clone(), line: t.line });
                }
            }
        }

        // Index expression: `[` right after a value — an identifier that
        // is not a keyword, a `)` (call result), or a `]` (chained
        // index). Types (`: [u8; 4]`), array literals (`= [1, 2]`),
        // slice patterns, and attributes all have other predecessors.
        if t.text == "[" && i >= 1 {
            let p = &toks[i - 1];
            let indexes_value = (p.kind == TokKind::Ident
                && !NON_CALL_IDENTS.contains(&p.text.as_str()))
                || p.text == ")"
                || p.text == "]";
            if indexes_value {
                let kind = if index_contains_cast(toks, i) {
                    PanicKind::IndexWithCast
                } else {
                    PanicKind::Index
                };
                fns[cur].sites.push(PanicSite { line: t.line, kind, label: "[…]".into() });
            }
        }

        i += 1;
    }

    fns
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    fn parse_src(src: &str) -> Vec<FnDecl> {
        parse(&scan(src))
    }

    #[test]
    fn recovers_free_and_impl_fns_with_owners() {
        let src = "fn free() {}\nstruct S;\nimpl S {\n    fn method(&self) {}\n}\nimpl Clone for S {\n    fn clone(&self) -> S { S }\n}\n";
        let fns = parse_src(src);
        let names: Vec<(&str, Option<&str>)> =
            fns.iter().map(|f| (f.name.as_str(), f.owner.as_deref())).collect();
        assert_eq!(
            names,
            vec![("free", None), ("method", Some("S")), ("clone", Some("S"))]
        );
    }

    #[test]
    fn impl_self_type_handles_generics_paths_and_where() {
        let src = "impl<T: Iterator<Item = u32>> Wrapper<T> where T: Clone {\n    fn go(&self) {}\n}\nimpl From<u32> for crate::deep::Thing {\n    fn from(_: u32) -> Self { todo!() }\n}\n";
        let fns = parse_src(src);
        assert_eq!(fns[0].owner.as_deref(), Some("Wrapper"));
        assert_eq!(fns[1].owner.as_deref(), Some("Thing"));
    }

    #[test]
    fn records_calls_and_method_calls() {
        let src = "fn f(x: &str) {\n    helper(x);\n    x.frobnicate();\n    let v = Vec::new();\n    drop(v);\n}\n";
        let calls: Vec<String> = parse_src(src)[0].calls.iter().map(|c| c.name.clone()).collect();
        assert_eq!(calls, vec!["helper", "frobnicate", "new", "drop"]);
    }

    #[test]
    fn keywords_and_macros_are_not_calls() {
        let src = "fn f(x: u32) -> u32 {\n    if (x > 1) { return (x); }\n    matches!(x, 0) as u32\n}\n";
        assert!(parse_src(src)[0].calls.is_empty());
    }

    #[test]
    fn finds_named_panic_constructs() {
        let src = "fn f(o: Option<u32>) -> u32 {\n    let a = o.unwrap();\n    let b = o.expect(\"m\");\n    if a > b { panic!(\"no\") }\n    unreachable!()\n}\n";
        let fns = parse_src(src);
        let kinds: Vec<&str> = fns[0].sites.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(kinds, vec!["unwrap", "expect", "panic!", "unreachable!"]);
    }

    #[test]
    fn finds_indexing_but_not_types_literals_or_attributes() {
        let src = "#[derive(Clone)]\nstruct S;\nfn f(v: &[u32], i: usize) -> u32 {\n    let arr: [u32; 2] = [1, 2];\n    let x = v[i];\n    let y = arr[0];\n    x + y\n}\n";
        let fns = parse_src(src);
        let sites = &fns[0].sites;
        assert_eq!(sites.len(), 2, "{sites:?}");
        assert!(sites.iter().all(|s| s.kind == PanicKind::Index));
    }

    #[test]
    fn cast_inside_index_is_classified_separately() {
        let src = "fn f(v: &[u32], i: u64) -> u32 { v[i as usize] }\n";
        let sites = &parse_src(src)[0].sites;
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].kind, PanicKind::IndexWithCast);
    }

    #[test]
    fn debug_assert_spans_are_exempt() {
        let src = "fn f(v: &[u32], i: usize) {\n    debug_assert!(v[i] > 0, \"x\");\n    debug_assert_eq!(v[i], v[i]);\n}\n";
        let fns = parse_src(src);
        assert!(fns[0].sites.is_empty(), "{:?}", fns[0].sites);
        assert!(fns[0].calls.is_empty());
    }

    #[test]
    fn nested_fn_gets_implicit_parent_edge() {
        let src = "fn outer() {\n    fn inner(v: &[u32]) -> u32 { v[0] }\n    let _ = 1;\n}\n";
        let fns = parse_src(src);
        assert_eq!(fns[0].name, "outer");
        assert!(fns[0].calls.iter().any(|c| c.name == "inner"));
        assert_eq!(fns[1].name, "inner");
        assert_eq!(fns[1].sites.len(), 1);
    }

    #[test]
    fn fn_pointer_types_and_trait_decls_are_not_items() {
        let src = "trait T {\n    fn required(&self);\n    fn provided(&self) { default() }\n}\nfn takes(f: fn(u32) -> u32) -> u32 { f(3) }\n";
        let fns = parse_src(src);
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["provided", "takes"]);
    }

    #[test]
    fn body_line_spans_are_recovered() {
        let src = "fn a() {\n    let _ = 1;\n}\nfn b() {}\n";
        let fns = parse_src(src);
        assert_eq!((fns[0].line, fns[0].end_line), (1, 3));
        assert_eq!((fns[1].line, fns[1].end_line), (4, 4));
    }
}
