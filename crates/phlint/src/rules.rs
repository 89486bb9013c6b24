//! The rule engine: nine invariants clippy cannot express.
//!
//! Rules come in three shapes: per-file token walks (rules 1–5), one
//! cross-file consistency check (rule 6), and call-graph rules (rules 7–9)
//! that consume the [`crate::parse`] item tree and [`crate::graph`]
//! reachability. Scoping conventions shared by all of them:
//!
//! * whole-file test code (`tests/`, `benches/` directories) is exempt;
//! * token-level test code (`#[cfg(test)]` modules, `#[test]` fns — see
//!   [`crate::lexer::test_mask`]) is exempt;
//! * everything else is production code and is linted.
//!
//! The rules are heuristic by design: they re-derive just enough typing
//! from declaration syntax (`name: HashMap<…>`, a struct field typed
//! `EpochView`) to anchor their checks, trading full type inference for a
//! zero-dependency pass that runs in milliseconds. Every heuristic is
//! documented at its rule, and misses fail *safe* for the repo's claims:
//! a rule that cannot prove a site is hash iteration stays silent, while
//! the runtime digest checks of `repro gate` remain the backstop. The
//! call-graph rules lean the other way — name resolution over-approximates
//! (see `graph.rs`), so they may flag a hair too much, and `lint.allow`
//! records why each intentional site is fine.

use crate::graph::CallGraph;
use crate::lexer::{Tok, TokKind};
use crate::parse::{parse_items, struct_fields, walk_items, Item, ItemKind};

/// Rule 1: iteration over `HashMap`/`HashSet` in digest-affecting crates.
pub const NONDETERMINISTIC_ITERATION: &str = "nondeterministic-iteration";
/// Rule 2: `unwrap`/`expect`/`panic!`/indexing in dispatch paths.
pub const PANIC_IN_DISPATCH: &str = "panic-in-dispatch";
/// Rule 3: `thread::spawn` outside `netsim::par`.
pub const RAW_THREAD_SPAWN: &str = "raw-thread-spawn";
/// Rule 4: `Ordering::Relaxed` outside allowlisted counter sites.
pub const RELAXED_ORDERING: &str = "relaxed-ordering";
/// Rule 5: every protocol variant has Wire, dispatch and round-trip arms.
pub const WIRE_EXHAUSTIVENESS: &str = "wire-exhaustiveness";
/// Rule 6: nondeterministic inputs reachable from the trace-digest roots.
pub const DIGEST_TAINT: &str = "digest-taint";
/// Rule 7: epoch workers may only write through their outbox.
pub const EPOCH_FROZEN_MUTATION: &str = "epoch-frozen-mutation";
/// Rule 8: outbox stat deltas commit with add/merge ops only.
pub const OUTBOX_COMMUTATIVITY: &str = "outbox-commutativity";
/// Rule 9: wire-decoded lengths must be clamped before driving allocation.
pub const UNBOUNDED_DECODE_ALLOCATION: &str = "unbounded-decode-allocation";

/// All rule names, for `--help` and the JSON report.
pub const ALL_RULES: [&str; 9] = [
    NONDETERMINISTIC_ITERATION,
    PANIC_IN_DISPATCH,
    RAW_THREAD_SPAWN,
    RELAXED_ORDERING,
    WIRE_EXHAUSTIVENESS,
    DIGEST_TAINT,
    EPOCH_FROZEN_MUTATION,
    OUTBOX_COMMUTATIVITY,
    UNBOUNDED_DECODE_ALLOCATION,
];

/// One entry of the `--explain` rule catalog.
pub struct RuleDoc {
    /// Rule name.
    pub name: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Why the invariant matters for this repo's claims.
    pub why: &'static str,
    /// A minimal violating exemplar.
    pub bad: &'static str,
    /// The sanctioned fix.
    pub good: &'static str,
}

/// The `--explain` catalog, one entry per rule in [`ALL_RULES`] order.
pub const RULE_DOCS: [RuleDoc; 9] = [
    RuleDoc {
        name: NONDETERMINISTIC_ITERATION,
        summary: "iteration over HashMap/HashSet in digest-affecting crates",
        why: "The crowd/scenario digests must be bit-identical across runs and thread counts; hash iteration order varies per process, so any order-observing loop in netsim/peerhood/core can leak into the digest.",
        bad: "for (id, node) in self.nodes_by_id.iter() { step(node); }",
        good: "Use BTreeMap/Vec, or sort the drained keys before iterating (and document order-insensitivity in lint.allow if provably unobservable).",
    },
    RuleDoc {
        name: PANIC_IN_DISPATCH,
        summary: "unwrap/expect/panic!/indexing in the dispatch files",
        why: "The server dispatch and daemon state machine process hostile live-TCP input; a reachable panic is a remote crash. Dispatch paths return CommunityError instead.",
        bad: "let user = req.user.unwrap();",
        good: "let Some(user) = req.user else { return Err(CommunityError::BadRequest) };",
    },
    RuleDoc {
        name: RAW_THREAD_SPAWN,
        summary: "thread::spawn / thread::scope outside netsim::par",
        why: "Determinism under --threads N holds because all parallelism goes through the fork/join helpers in netsim::par with spawn-order joins; ad-hoc threads reintroduce scheduling nondeterminism.",
        bad: "std::thread::spawn(move || worker(rx));",
        good: "netsim::par::map_chunks_mut_with(…) — or the live/ reactor paths, which are exempt by design.",
    },
    RuleDoc {
        name: RELAXED_ORDERING,
        summary: "Ordering::Relaxed outside allowlisted counter sites",
        why: "Relaxed provides no synchronization; it is only sound for pure statistics counters that publish no other memory. Every such counter is individually allowlisted with a reason.",
        bad: "READY.store(true, Ordering::Relaxed); // guards data!",
        good: "Use Release/Acquire pairs for publication; allowlist pure counters.",
    },
    RuleDoc {
        name: WIRE_EXHAUSTIVENESS,
        summary: "every Request/Response variant has codec, dispatch and round-trip coverage",
        why: "A protocol variant without an encode/decode arm, a server dispatch arm and a round-trip fixture is a silent wire break waiting for the first real client to hit it.",
        bad: "enum Request { …, NewThing } // only the enum grew",
        good: "Add the Wire arms in protocol.rs, the dispatch arm in server.rs, and a round-trip fixture in the protocol tests.",
    },
    RuleDoc {
        name: DIGEST_TAINT,
        summary: "wall-clock, core-count, thread-id or pointer-bit reads reachable from the digest roots",
        why: "The FNV trace digest must be bit-identical for any --threads N and any host. Any fn reachable from Cluster::run_until/dispatch that reads Instant/SystemTime, available_parallelism, thread::current or casts pointers to integers can fork the digest. Call-graph reachability replaces the old per-callsite wall-clock-in-sim heuristic: bench and live/ paths stay exempt, and unreachable helpers are no longer flagged.",
        bad: "fn run_epoch(&mut self) { let t = Instant::now(); … }",
        good: "Use SimTime for simulated quantities; keep self-profiling behind collect_timing and allowlist it with a reason (metadata only, never digest input).",
    },
    RuleDoc {
        name: EPOCH_FROZEN_MUTATION,
        summary: "epoch workers writing shared engine state instead of their outbox",
        why: "During a parallel epoch every worker sees the same frozen engine state (the EpochView and shared & refs); writes must buffer in the per-worker EpochOutbox and merge deterministically at commit. A direct mutation of frozen state races and breaks digest equality between serial and parallel runs.",
        bad: "self.trace.record(ev); // inside an EpochWorker method",
        good: "self.out.records.push(ev); // commit merges outboxes in lane order",
    },
    RuleDoc {
        name: OUTBOX_COMMUTATIVITY,
        summary: "outbox stat deltas assigned or max-combined instead of added",
        why: "Per-worker stat deltas merge at commit in lane order; only commutative, associative ops (+=) make the merged total independent of worker count. Assignment or max-overwrite makes stats depend on which worker committed last, silently forking serial-vs-parallel reports.",
        bad: "self.messages = other.messages.max(self.messages);",
        good: "self.messages += other.messages;",
    },
    RuleDoc {
        name: UNBOUNDED_DECODE_ALLOCATION,
        summary: "wire-decoded lengths driving allocation without a clamp",
        why: "The live reactor and the codec accept untrusted bytes. A 4-byte length header claiming 4 GiB must not size an allocation or buffer: clamp against the remaining input (codec read_len) or a protocol maximum (MAX_FRAME_LEN) before any with_capacity/reserve/slice use.",
        bad: "let len = u32::from_be_bytes(hdr) as usize; let mut v = Vec::with_capacity(len);",
        good: "let len = …; if len > MAX_FRAME_LEN { return Err(FrameError::Oversized); }",
    },
];

/// The catalog entry for `name`, if it is a known rule.
#[must_use]
pub fn rule_doc(name: &str) -> Option<&'static RuleDoc> {
    RULE_DOCS.iter().find(|d| d.name == name)
}

/// One lexed file ready for linting.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Token stream from [`crate::lexer::lex`].
    pub toks: Vec<Tok>,
    /// Per-token test-code mask from [`crate::lexer::test_mask`].
    pub test_mask: Vec<bool>,
    /// Source lines (for snippets).
    pub lines: Vec<String>,
    /// Brace-matched item tree from [`crate::parse::parse_items`].
    pub items: Vec<Item>,
}

impl SourceFile {
    /// Builds a `SourceFile` from source text.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::lexer::LexError`] from the lexer.
    pub fn parse(path: impl Into<String>, src: &str) -> Result<Self, crate::lexer::LexError> {
        let toks = crate::lexer::lex(src)?;
        let test_mask = crate::lexer::test_mask(&toks);
        let items = parse_items(&toks);
        Ok(SourceFile {
            path: path.into(),
            toks,
            test_mask,
            lines: src.lines().map(str::to_owned).collect(),
            items,
        })
    }

    fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_owned())
            .unwrap_or_default()
    }

    /// The crate directory name (`netsim` for `crates/netsim/src/…`), or a
    /// pseudo-crate for root `src/`, `examples/`, workspace `tests/`.
    pub fn crate_name(&self) -> &str {
        let mut parts = self.path.split('/');
        match parts.next() {
            Some("crates") => parts.next().unwrap_or(""),
            Some("examples") => "examples",
            Some("tests") => "workspace-tests",
            _ => "root",
        }
    }

    /// Whole-file test or bench code (integration tests, benches).
    pub fn is_test_file(&self) -> bool {
        self.path
            .split('/')
            .any(|seg| seg == "tests" || seg == "benches")
    }
}

/// One rule violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (one of [`ALL_RULES`]).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// The trimmed source line.
    pub snippet: String,
    /// Human-readable explanation.
    pub message: String,
}

/// Runs every rule over the file set and returns findings sorted by
/// `(path, line, rule)` — the lint's own output must be deterministic.
pub fn run_all(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in files {
        if !f.is_test_file() {
            nondeterministic_iteration(f, &mut findings);
            panic_in_dispatch(f, &mut findings);
            raw_thread_spawn(f, &mut findings);
            relaxed_ordering(f, &mut findings);
            epoch_frozen_mutation(f, &mut findings);
            unbounded_decode_allocation(f, &mut findings);
        }
    }
    wire_exhaustiveness(files, &mut findings);
    outbox_commutativity(files, &mut findings);
    let graph = CallGraph::build(files);
    digest_taint(files, &graph, &mut findings);
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    findings
}

fn is_punct(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Punct && t.text == s
}

fn is_ident(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Ident && t.text == s
}

// ---------------------------------------------------------------------
// Rule 1: nondeterministic-iteration
// ---------------------------------------------------------------------

/// Crates whose state feeds the crowd/scenario trace digests.
const DIGEST_CRATES: [&str; 3] = ["netsim", "peerhood", "core"];

/// Methods whose call on a hash container observes its iteration order.
const ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Collects identifiers declared in this file with a `HashMap`/`HashSet`
/// type: struct fields and `let`/param declarations (`name: HashMap<…>`,
/// possibly through `&`, `&mut`, lifetimes), plus `let name = HashMap::…`
/// initializations. Purely syntactic — no cross-file type inference — but
/// that is exactly where hash containers enter a file: its own fields and
/// locals.
fn hash_container_names(toks: &[Tok]) -> Vec<String> {
    let mut names = Vec::new();
    for (k, t) in toks.iter().enumerate() {
        if !(is_ident(t, "HashMap") || is_ident(t, "HashSet")) {
            continue;
        }
        let mut j = k;
        // Step back over a `std :: collections ::` path prefix.
        while j >= 3
            && is_punct(&toks[j - 1], ":")
            && is_punct(&toks[j - 2], ":")
            && toks[j - 3].kind == TokKind::Ident
        {
            j -= 3;
        }
        // Step back over type-reference noise: `&`, `mut`, lifetimes.
        while j >= 1
            && (is_punct(&toks[j - 1], "&")
                || is_ident(&toks[j - 1], "mut")
                || toks[j - 1].kind == TokKind::Lifetime)
        {
            j -= 1;
        }
        if j >= 2 && toks[j - 2].kind == TokKind::Ident {
            // `name : HashMap<…>` — but not `path :: HashMap`.
            let decl_colon = is_punct(&toks[j - 1], ":")
                && !(j >= 3 && is_punct(&toks[j - 3], ":"))
                && !(j + 1 < toks.len() && is_punct(&toks[j], ":") && is_punct(&toks[j + 1], ":"));
            // `let name = HashMap::new()` / `let mut name = …`.
            let init_eq = is_punct(&toks[j - 1], "=");
            if decl_colon || init_eq {
                let name = toks[j - 2].text.clone();
                if !names.contains(&name) {
                    names.push(name);
                }
            }
        }
    }
    names
}

fn nondeterministic_iteration(f: &SourceFile, out: &mut Vec<Finding>) {
    if !DIGEST_CRATES.contains(&f.crate_name()) {
        return;
    }
    let names = hash_container_names(&f.toks);
    if names.is_empty() {
        return;
    }
    let toks = &f.toks;
    // Method-call form: `container.keys()`, `container.drain()`, …
    for i in 1..toks.len().saturating_sub(2) {
        if f.test_mask[i] {
            continue;
        }
        if is_punct(&toks[i], ".")
            && toks[i + 1].kind == TokKind::Ident
            && ITER_METHODS.contains(&toks[i + 1].text.as_str())
            && is_punct(&toks[i + 2], "(")
            && toks[i - 1].kind == TokKind::Ident
            && names.contains(&toks[i - 1].text)
        {
            out.push(Finding {
                rule: NONDETERMINISTIC_ITERATION,
                path: f.path.clone(),
                line: toks[i + 1].line,
                snippet: f.snippet(toks[i + 1].line),
                message: format!(
                    "iteration order of `{}.{}()` is nondeterministic ({} is a hash container in a digest-affecting crate)",
                    toks[i - 1].text, toks[i + 1].text, toks[i - 1].text
                ),
            });
        }
    }
    // For-loop form: `for x in &container { … }`.
    let mut i = 0;
    while i < toks.len() {
        if !is_ident(&toks[i], "for") || f.test_mask[i] {
            i += 1;
            continue;
        }
        // Find `in` at bracket depth 0 before the body `{`.
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut in_pos = None;
        while j < toks.len() {
            let t = &toks[j];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => break,
                    _ => {}
                }
            } else if is_ident(t, "in") && depth == 0 {
                in_pos = Some(j);
                break;
            }
            j += 1;
        }
        let Some(in_pos) = in_pos else {
            i += 1; // `impl Trait for Type`, `for<'a>` — no loop here
            continue;
        };
        // Expression tokens between `in` and the body `{`.
        let mut k = in_pos + 1;
        depth = 0;
        while k < toks.len() {
            let t = &toks[k];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => break,
                    _ => {}
                }
            }
            if t.kind == TokKind::Ident
                && names.contains(&t.text)
                // A following `.` means a method call decides the story
                // (and the method-call form above already judged it).
                && !(k + 1 < toks.len() && is_punct(&toks[k + 1], "."))
            {
                out.push(Finding {
                    rule: NONDETERMINISTIC_ITERATION,
                    path: f.path.clone(),
                    line: t.line,
                    snippet: f.snippet(t.line),
                    message: format!(
                        "`for … in {}` iterates a hash container in nondeterministic order",
                        t.text
                    ),
                });
            }
            k += 1;
        }
        i = k.max(i + 1);
    }
}

// ---------------------------------------------------------------------
// Rule 2: panic-in-dispatch
// ---------------------------------------------------------------------

/// Files whose non-test code must never panic: the Table-6 server dispatch
/// and the PeerHood daemon state machine (`lint.allow` documents why each
/// remaining site, if any, is safe).
const DISPATCH_FILES: [&str; 4] = [
    "crates/core/src/server.rs",
    "crates/peerhood/src/daemon.rs",
    "crates/peerhood/src/service.rs",
    "crates/peerhood/src/neighbor.rs",
];

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

fn panic_in_dispatch(f: &SourceFile, out: &mut Vec<Finding>) {
    if !DISPATCH_FILES.contains(&f.path.as_str()) {
        return;
    }
    let toks = &f.toks;
    for i in 0..toks.len() {
        if f.test_mask[i] {
            continue;
        }
        let t = &toks[i];
        if is_punct(t, ".")
            && toks
                .get(i + 1)
                .is_some_and(|n| is_ident(n, "unwrap") || is_ident(n, "expect"))
            && toks.get(i + 2).is_some_and(|n| is_punct(n, "("))
        {
            let method = &toks[i + 1];
            out.push(Finding {
                rule: PANIC_IN_DISPATCH,
                path: f.path.clone(),
                line: method.line,
                snippet: f.snippet(method.line),
                message: format!(
                    "`.{}()` can panic; dispatch paths must return CommunityError",
                    method.text
                ),
            });
        }
        if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| is_punct(n, "!"))
        {
            out.push(Finding {
                rule: PANIC_IN_DISPATCH,
                path: f.path.clone(),
                line: t.line,
                snippet: f.snippet(t.line),
                message: format!(
                    "`{}!` panics; dispatch paths must return CommunityError",
                    t.text
                ),
            });
        }
        // Slice/array indexing `expr[…]`: an out-of-range index panics.
        // The previous token being an identifier or a closing bracket marks
        // expression position (types `[u8; 4]`, attributes `#[…]` and
        // macros `vec![…]` all have a non-expression token before `[`).
        if is_punct(t, "[")
            && i > 0
            && (toks[i - 1].kind == TokKind::Ident
                || is_punct(&toks[i - 1], ")")
                || is_punct(&toks[i - 1], "]"))
        {
            out.push(Finding {
                rule: PANIC_IN_DISPATCH,
                path: f.path.clone(),
                line: t.line,
                snippet: f.snippet(t.line),
                message:
                    "indexing can panic; dispatch paths must bounds-check and return CommunityError"
                        .to_owned(),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Rule 4: raw-thread-spawn
// ---------------------------------------------------------------------

/// The one simulation module allowed to create threads: the fork/join
/// helpers whose spawn-order joins keep the parallel engine deterministic.
const PAR_MODULE: &str = "crates/netsim/src/par.rs";

fn raw_thread_spawn(f: &SourceFile, out: &mut Vec<Finding>) {
    // The live serving path (reactor shards, load-harness workers) runs real
    // OS threads by design — it never feeds the simulation digest, mirroring
    // the wall-clock-in-sim exemption.
    if f.path == PAR_MODULE || f.path.contains("live/") || f.path.ends_with("/live.rs") {
        return;
    }
    let toks = &f.toks;
    for i in 0..toks.len() {
        if f.test_mask[i] {
            continue;
        }
        // `thread::spawn` and `thread::scope` both count: a scope is a
        // thread factory even when the `.spawn` calls hide inside a helper
        // that borrows the scope, so epoch/outbox workers must go through
        // the `netsim::par` fork/join helpers instead.
        let path_spawn = is_ident(&toks[i], "thread")
            && i + 3 < toks.len()
            && is_punct(&toks[i + 1], ":")
            && is_punct(&toks[i + 2], ":")
            && (is_ident(&toks[i + 3], "spawn") || is_ident(&toks[i + 3], "scope"));
        let method_spawn = is_punct(&toks[i], ".")
            && toks.get(i + 1).is_some_and(|n| is_ident(n, "spawn"))
            && toks.get(i + 2).is_some_and(|n| is_punct(n, "("));
        if path_spawn || method_spawn {
            out.push(Finding {
                rule: RAW_THREAD_SPAWN,
                path: f.path.clone(),
                line: toks[i].line,
                snippet: f.snippet(toks[i].line),
                message: "thread creation outside netsim::par breaks the deterministic fork/join discipline"
                    .to_owned(),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Rule 5: relaxed-ordering
// ---------------------------------------------------------------------

fn relaxed_ordering(f: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &f.toks;
    for i in 0..toks.len() {
        if f.test_mask[i] {
            continue;
        }
        if is_ident(&toks[i], "Ordering")
            && i + 3 < toks.len()
            && is_punct(&toks[i + 1], ":")
            && is_punct(&toks[i + 2], ":")
            && is_ident(&toks[i + 3], "Relaxed")
        {
            out.push(Finding {
                rule: RELAXED_ORDERING,
                path: f.path.clone(),
                line: toks[i + 3].line,
                snippet: f.snippet(toks[i + 3].line),
                message: "`Ordering::Relaxed` provides no synchronization; allowlist pure counters, use stronger orderings elsewhere"
                    .to_owned(),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Rule 6: wire-exhaustiveness
// ---------------------------------------------------------------------

const PROTOCOL_FILE: &str = "crates/core/src/protocol.rs";
const SERVER_FILE: &str = "crates/core/src/server.rs";

/// Extracts the variant names of `enum <name>` from a token stream.
fn enum_variants(toks: &[Tok], name: &str) -> Vec<(String, u32)> {
    let mut variants = Vec::new();
    let mut i = 0;
    while i + 2 < toks.len() {
        if is_ident(&toks[i], "enum") && is_ident(&toks[i + 1], name) && is_punct(&toks[i + 2], "{")
        {
            let mut depth = 0i32;
            let mut j = i + 2;
            let mut expect_variant = true;
            while j < toks.len() {
                let t = &toks[j];
                // Variant attributes `#[…]` are transparent: skip them
                // without disturbing the expect-a-variant state.
                if depth == 1
                    && is_punct(t, "#")
                    && toks.get(j + 1).is_some_and(|n| is_punct(n, "["))
                {
                    let mut attr_depth = 0i32;
                    while j < toks.len() {
                        if is_punct(&toks[j], "[") {
                            attr_depth += 1;
                        } else if is_punct(&toks[j], "]") {
                            attr_depth -= 1;
                            if attr_depth == 0 {
                                break;
                            }
                        }
                        j += 1;
                    }
                    j += 1;
                    continue;
                }
                if t.kind == TokKind::Punct {
                    match t.text.as_str() {
                        "{" | "(" | "[" => {
                            depth += 1;
                            // Entering a payload: the next variant comes
                            // after the matching close and a comma.
                            if depth > 1 {
                                expect_variant = false;
                            }
                        }
                        "}" | ")" | "]" => {
                            depth -= 1;
                            if depth == 0 {
                                return variants;
                            }
                        }
                        "," if depth == 1 => expect_variant = true,
                        _ => {}
                    }
                } else if t.kind == TokKind::Ident && depth == 1 && expect_variant {
                    variants.push((t.text.clone(), t.line));
                    expect_variant = false;
                }
                j += 1;
            }
            return variants;
        }
        i += 1;
    }
    variants
}

/// Counts `Enum::Variant` path references, restricted to test or non-test
/// tokens.
fn count_refs(f: &SourceFile, enum_name: &str, variant: &str, in_tests: bool) -> usize {
    let toks = &f.toks;
    let mut n = 0;
    for i in 0..toks.len().saturating_sub(3) {
        if f.test_mask[i] != in_tests {
            continue;
        }
        if is_ident(&toks[i], enum_name)
            && is_punct(&toks[i + 1], ":")
            && is_punct(&toks[i + 2], ":")
            && is_ident(&toks[i + 3], variant)
        {
            n += 1;
        }
    }
    n
}

fn wire_exhaustiveness(files: &[SourceFile], out: &mut Vec<Finding>) {
    let Some(protocol) = files.iter().find(|f| f.path == PROTOCOL_FILE) else {
        return; // partial lint (explicit file list) — nothing to check
    };
    let Some(server) = files.iter().find(|f| f.path == SERVER_FILE) else {
        return;
    };
    for enum_name in ["Request", "Response"] {
        let variants = enum_variants(&protocol.toks, enum_name);
        if variants.is_empty() {
            out.push(Finding {
                rule: WIRE_EXHAUSTIVENESS,
                path: protocol.path.clone(),
                line: 1,
                snippet: String::new(),
                message: format!("could not locate `enum {enum_name}` in the protocol module"),
            });
            continue;
        }
        for (variant, line) in variants {
            let mut missing = Vec::new();
            // Encode + decode arms both spell `Enum::Variant` in the Wire
            // impls, so full codec coverage means at least two non-test
            // references in protocol.rs.
            if count_refs(protocol, enum_name, &variant, false) < 2 {
                missing.push("a Wire encode/decode arm");
            }
            if count_refs(server, enum_name, &variant, false) < 1 {
                missing.push("a server dispatch arm");
            }
            if count_refs(protocol, enum_name, &variant, true) < 1 {
                missing.push("a round-trip test fixture");
            }
            if !missing.is_empty() {
                out.push(Finding {
                    rule: WIRE_EXHAUSTIVENESS,
                    path: protocol.path.clone(),
                    line,
                    snippet: protocol.snippet(line),
                    message: format!(
                        "`{}::{}` is missing {}",
                        enum_name,
                        variant,
                        missing.join(" and ")
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule 6: digest-taint
// ---------------------------------------------------------------------

/// The fns whose transitive callees feed the FNV trace digest. Everything
/// reachable from these — and nothing else — is digest-sensitive.
const DIGEST_ROOTS: [(&str, &str); 2] = [
    ("crates/peerhood/src/sim.rs", "Cluster::run_until"),
    ("crates/peerhood/src/sim.rs", "Cluster::run_until_condition"),
];

fn digest_taint(files: &[SourceFile], graph: &CallGraph, out: &mut Vec<Finding>) {
    let mut roots = Vec::new();
    for (path, qname) in DIGEST_ROOTS {
        roots.extend(graph.find(path, qname));
    }
    if roots.is_empty() {
        return; // partial lint: the digest roots are not in the file set
    }
    let reach = graph.reachable_from(&roots);
    for (id, via) in reach.iter().enumerate() {
        let Some(via) = *via else { continue };
        let node = &graph.fns[id];
        let f = &files[node.file];
        // Only the digest-affecting crates can actually feed the digest;
        // method-name resolution over-approximates (see graph.rs), so
        // without this filter a harness timer whose method shares a name
        // with a sim callee would be flagged. The live serving path and
        // the bench timer are wall-clock by nature on top of that.
        if !DIGEST_CRATES.contains(&f.crate_name())
            || f.path.contains("live/")
            || f.path.ends_with("/live.rs")
        {
            continue;
        }
        let Some((open, close)) = node.body else {
            continue;
        };
        let root = &graph.fns[via].qname;
        let toks = &f.toks;
        for i in open..=close.min(toks.len() - 1) {
            if f.test_mask[i] {
                continue;
            }
            let path2 = |a: &str, b: &str| {
                is_ident(&toks[i], a)
                    && toks.get(i + 1).is_some_and(|t| is_punct(t, ":"))
                    && toks.get(i + 2).is_some_and(|t| is_punct(t, ":"))
                    && toks.get(i + 3).is_some_and(|t| is_ident(t, b))
            };
            let what = if path2("Instant", "now") {
                Some("`Instant::now` reads the wall clock".to_owned())
            } else if is_ident(&toks[i], "SystemTime") {
                Some("`SystemTime` reads the wall clock".to_owned())
            } else if is_ident(&toks[i], "available_parallelism") {
                Some("`available_parallelism` depends on the host core count".to_owned())
            } else if path2("thread", "current") {
                Some("`thread::current` exposes a nondeterministic thread id".to_owned())
            } else if (is_ident(&toks[i], "as_ptr") || is_ident(&toks[i], "as_mut_ptr"))
                && toks.get(i + 1).is_some_and(|t| is_punct(t, "("))
                && toks.get(i + 2).is_some_and(|t| is_punct(t, ")"))
                && toks.get(i + 3).is_some_and(|t| is_ident(t, "as"))
            {
                Some(format!(
                    "`{}() as` casts a nondeterministic address to an integer",
                    toks[i].text
                ))
            } else {
                None
            };
            if let Some(what) = what {
                out.push(Finding {
                    rule: DIGEST_TAINT,
                    path: f.path.clone(),
                    line: toks[i].line,
                    snippet: f.snippet(toks[i].line),
                    message: format!(
                        "{what} inside `{}`, reachable from digest root `{root}`",
                        node.qname
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule 7: epoch-frozen-mutation
// ---------------------------------------------------------------------

/// Methods that mutate their receiver: calling one on frozen epoch state
/// is a write outside the outbox. `set_*`/`*_mut` names count too.
const MUTATOR_METHODS: [&str; 24] = [
    "insert",
    "remove",
    "push",
    "push_back",
    "push_front",
    "pop",
    "pop_back",
    "pop_front",
    "clear",
    "retain",
    "drain",
    "extend",
    "extend_from_slice",
    "truncate",
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "swap",
    "replace",
    "take",
    "append",
    "record",
    "write",
];

fn is_mutator(name: &str) -> bool {
    MUTATOR_METHODS.contains(&name) || name.starts_with("set_") || name.ends_with("_mut")
}

/// An *epoch worker* is any struct with an `EpochView`-typed field; its
/// frozen state is that view plus every shared (`&` without `mut`)
/// reference field. Worker methods may read those freely but must route
/// every write through the worker's own outbox — the commit loop is the
/// only place frozen state thaws. Detection is per-file: the workers and
/// their impl blocks live together in `peerhood::sim` (and in fixtures).
fn epoch_frozen_mutation(f: &SourceFile, out: &mut Vec<Finding>) {
    let mut workers: Vec<(String, Vec<String>)> = Vec::new();
    walk_items(&f.items, &mut |it| {
        if !matches!(it.kind, ItemKind::Struct) {
            return;
        }
        let fields = struct_fields(&f.toks, it);
        if !fields
            .iter()
            .any(|(_, ty)| ty.iter().any(|t| t == "EpochView"))
        {
            return;
        }
        let frozen: Vec<String> = fields
            .iter()
            .filter(|(_, ty)| {
                ty.iter().any(|t| t == "EpochView")
                    || (ty.first().is_some_and(|t| t == "&") && !ty.iter().any(|t| t == "mut"))
            })
            .map(|(n, _)| n.clone())
            .collect();
        workers.push((it.name.clone(), frozen));
    });
    if workers.is_empty() {
        return;
    }
    walk_items(&f.items, &mut |it| {
        if !matches!(it.kind, ItemKind::Impl { .. }) {
            return;
        }
        let Some((_, frozen)) = workers.iter().find(|(n, _)| *n == it.name) else {
            return;
        };
        for m in &it.children {
            if !matches!(m.kind, ItemKind::Fn) || f.test_mask[m.span.0] {
                continue;
            }
            let Some((open, close)) = m.body else {
                continue;
            };
            scan_frozen_mutations(f, frozen, open, close, out);
        }
    });
}

fn scan_frozen_mutations(
    f: &SourceFile,
    frozen: &[String],
    open: usize,
    close: usize,
    out: &mut Vec<Finding>,
) {
    let toks = &f.toks;
    let mut i = open;
    while i <= close.min(toks.len().saturating_sub(1)) {
        // `&mut self.field` — a mutable borrow of frozen state.
        if is_punct(&toks[i], "&")
            && toks.get(i + 1).is_some_and(|t| is_ident(t, "mut"))
            && toks.get(i + 2).is_some_and(|t| is_ident(t, "self"))
            && toks.get(i + 3).is_some_and(|t| is_punct(t, "."))
            && toks
                .get(i + 4)
                .is_some_and(|t| t.kind == TokKind::Ident && frozen.contains(&t.text))
        {
            let field = &toks[i + 4];
            out.push(Finding {
                rule: EPOCH_FROZEN_MUTATION,
                path: f.path.clone(),
                line: field.line,
                snippet: f.snippet(field.line),
                message: format!(
                    "`&mut self.{}` borrows frozen epoch state mutably; epoch handlers must write through the EpochOutbox",
                    field.text
                ),
            });
            i += 5;
            continue;
        }
        // `self.field…` place-expression chains: a mutator method call or
        // an assignment anywhere along the chain is a frozen-state write.
        if is_ident(&toks[i], "self")
            && toks.get(i + 1).is_some_and(|t| is_punct(t, "."))
            && toks
                .get(i + 2)
                .is_some_and(|t| t.kind == TokKind::Ident && frozen.contains(&t.text))
        {
            let field = toks[i + 2].text.clone();
            let mut j = i + 2; // last chain ident
            let mut flagged = false;
            while toks.get(j + 1).is_some_and(|t| is_punct(t, "."))
                && toks.get(j + 2).is_some_and(|t| t.kind == TokKind::Ident)
            {
                let m = &toks[j + 2];
                if toks.get(j + 3).is_some_and(|t| is_punct(t, "(")) {
                    if is_mutator(&m.text) {
                        out.push(Finding {
                            rule: EPOCH_FROZEN_MUTATION,
                            path: f.path.clone(),
                            line: m.line,
                            snippet: f.snippet(m.line),
                            message: format!(
                                "`self.{}…{}()` mutates frozen epoch state; buffer the effect in the EpochOutbox instead",
                                field, m.text
                            ),
                        });
                        flagged = true;
                    }
                    break; // a call ends the place-expression chain
                }
                j += 2;
            }
            if !flagged {
                let a = toks.get(j + 1);
                let b = toks.get(j + 2);
                let plain =
                    a.is_some_and(|t| is_punct(t, "=")) && !b.is_some_and(|t| is_punct(t, "="));
                let compound = a.is_some_and(|t| {
                    t.kind == TokKind::Punct
                        && ["+", "-", "*", "/", "%", "&", "|", "^"].contains(&t.text.as_str())
                }) && b.is_some_and(|t| is_punct(t, "="));
                if plain || compound {
                    let at = a.unwrap();
                    out.push(Finding {
                        rule: EPOCH_FROZEN_MUTATION,
                        path: f.path.clone(),
                        line: at.line,
                        snippet: f.snippet(at.line),
                        message: format!(
                            "assignment to frozen epoch state `self.{field}`; epoch handlers must write through the EpochOutbox"
                        ),
                    });
                }
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------
// Rule 8: outbox-commutativity
// ---------------------------------------------------------------------

/// Merge-style methods on the outbox stats type whose bodies must stay
/// delta-additive.
const MERGE_FNS: [&str; 4] = ["add", "merge", "absorb", "combine"];

/// Cross-file: locates `struct EpochOutbox`, learns the type of its
/// `stats` field, then enforces (a) in outbox-defining files, every
/// `stats`-rooted update is add-only — no plain assignment, no shrink
/// (`-=`, `*=`, `/=`), no whole-struct overwrite; (b) the stats type's
/// add/merge methods use `+=` only — no assignment, no `.max(…)`/`.min(…)`
/// combining, which is not delta-additive (a serial run accumulates into
/// one outbox, so max-of-deltas forks serial vs parallel totals).
fn outbox_commutativity(files: &[SourceFile], out: &mut Vec<Finding>) {
    let mut outbox_files: Vec<usize> = Vec::new();
    let mut stats_types: Vec<String> = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        if f.is_test_file() {
            continue;
        }
        walk_items(&f.items, &mut |it| {
            if !(matches!(it.kind, ItemKind::Struct) && it.name == "EpochOutbox") {
                return;
            }
            outbox_files.push(fi);
            for (name, ty) in struct_fields(&f.toks, it) {
                if name == "stats" {
                    if let Some(t) = ty
                        .iter()
                        .find(|t| t.chars().next().is_some_and(|c| c.is_ascii_uppercase()))
                    {
                        if !stats_types.contains(t) {
                            stats_types.push(t.clone());
                        }
                    }
                }
            }
        });
    }
    if outbox_files.is_empty() {
        return;
    }
    // (a) `stats`-rooted writes in the outbox-defining files.
    for &fi in &outbox_files {
        let f = &files[fi];
        let toks = &f.toks;
        for i in 0..toks.len() {
            if f.test_mask[i] || !is_ident(&toks[i], "stats") {
                continue;
            }
            if i > 0 && (is_ident(&toks[i - 1], "let") || is_ident(&toks[i - 1], "mut")) {
                continue; // local binding, not a write
            }
            if toks.get(i + 1).is_some_and(|t| is_punct(t, "="))
                && !toks.get(i + 2).is_some_and(|t| is_punct(t, "="))
            {
                out.push(Finding {
                    rule: OUTBOX_COMMUTATIVITY,
                    path: f.path.clone(),
                    line: toks[i].line,
                    snippet: f.snippet(toks[i].line),
                    message: "whole-struct overwrite of outbox stats; merge deltas with `.add(…)`"
                        .to_owned(),
                });
                continue;
            }
            if toks.get(i + 1).is_some_and(|t| is_punct(t, "."))
                && toks.get(i + 2).is_some_and(|t| t.kind == TokKind::Ident)
            {
                let field = &toks[i + 2];
                let a = toks.get(i + 3);
                let b = toks.get(i + 4);
                let plain =
                    a.is_some_and(|t| is_punct(t, "=")) && !b.is_some_and(|t| is_punct(t, "="));
                let shrink = a.is_some_and(|t| {
                    t.kind == TokKind::Punct && ["-", "*", "/"].contains(&t.text.as_str())
                }) && b.is_some_and(|t| is_punct(t, "="));
                if plain || shrink {
                    out.push(Finding {
                        rule: OUTBOX_COMMUTATIVITY,
                        path: f.path.clone(),
                        line: field.line,
                        snippet: f.snippet(field.line),
                        message: format!(
                            "non-commutative update of `stats.{}`; outbox stat deltas must accumulate with `+=`",
                            field.text
                        ),
                    });
                }
            }
        }
    }
    // (b) merge methods on the stats type, wherever it is defined.
    for f in files {
        if f.is_test_file() {
            continue;
        }
        walk_items(&f.items, &mut |it| {
            if !matches!(it.kind, ItemKind::Impl { .. }) || !stats_types.contains(&it.name) {
                return;
            }
            for m in &it.children {
                if !matches!(m.kind, ItemKind::Fn)
                    || !MERGE_FNS.contains(&m.name.as_str())
                    || f.test_mask[m.span.0]
                {
                    continue;
                }
                let Some((open, close)) = m.body else {
                    continue;
                };
                let toks = &f.toks;
                for i in open..=close.min(toks.len() - 1) {
                    if is_ident(&toks[i], "self")
                        && toks.get(i + 1).is_some_and(|t| is_punct(t, "."))
                        && toks.get(i + 2).is_some_and(|t| t.kind == TokKind::Ident)
                        && toks.get(i + 3).is_some_and(|t| is_punct(t, "="))
                        && !toks.get(i + 4).is_some_and(|t| is_punct(t, "="))
                    {
                        out.push(Finding {
                            rule: OUTBOX_COMMUTATIVITY,
                            path: f.path.clone(),
                            line: toks[i + 2].line,
                            snippet: f.snippet(toks[i + 2].line),
                            message: format!(
                                "assignment to `self.{}` in `{}::{}`; merged stat deltas must add",
                                toks[i + 2].text,
                                it.name,
                                m.name
                            ),
                        });
                    }
                    if (is_ident(&toks[i], "max") || is_ident(&toks[i], "min"))
                        && i > 0
                        && is_punct(&toks[i - 1], ".")
                        && toks.get(i + 1).is_some_and(|t| is_punct(t, "("))
                    {
                        out.push(Finding {
                            rule: OUTBOX_COMMUTATIVITY,
                            path: f.path.clone(),
                            line: toks[i].line,
                            snippet: f.snippet(toks[i].line),
                            message: format!(
                                "`.{}(…)` in `{}::{}` is not delta-additive; merged counters must use `+=`",
                                toks[i].text, it.name, m.name
                            ),
                        });
                    }
                }
            }
        });
    }
}

// ---------------------------------------------------------------------
// Rule 9: unbounded-decode-allocation
// ---------------------------------------------------------------------

/// Index of the close bracket matching the opener at `open_idx`, clamped
/// to `close` on unbalanced input.
fn match_close(toks: &[Tok], open_idx: usize, close: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open_idx;
    while j <= close.min(toks.len().saturating_sub(1)) {
        if toks[j].kind == TokKind::Punct {
            match toks[j].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return j;
                    }
                }
                _ => {}
            }
        }
        j += 1;
    }
    close
}

/// Does this initializer expression derive from a wire-decoded integer
/// (`from_be_bytes`/`from_le_bytes`, `uN::decode`) with no sanitizer
/// (`read_len`, `.min`, `.clamp`) in the same expression?
fn rhs_is_decoded_len(rhs: &[Tok]) -> bool {
    let has_src = rhs.iter().enumerate().any(|(k, t)| {
        t.kind == TokKind::Ident
            && (t.text == "from_be_bytes"
                || t.text == "from_le_bytes"
                || (matches!(t.text.as_str(), "u16" | "u32" | "u64" | "usize")
                    && rhs.get(k + 1).is_some_and(|n| is_punct(n, ":"))
                    && rhs.get(k + 2).is_some_and(|n| is_punct(n, ":"))
                    && rhs.get(k + 3).is_some_and(|n| is_ident(n, "decode"))))
    });
    let sanitized = rhs.iter().any(|t| {
        t.kind == TokKind::Ident && matches!(t.text.as_str(), "read_len" | "min" | "clamp")
    });
    has_src && !sanitized
}

/// Is the tainted local `name` clamped or rejected anywhere in the fn?
/// A guard is: `.min(…)`/`.clamp(…)` on it, a comparison against a
/// `MAX`-named bound, or a comparison against remaining-buffer `.len()`
/// whose branch *rejects* (contains `Err`). A `len()` comparison that
/// merely waits for more bytes (`return None`) is NOT a guard — that is
/// exactly the hostile-header bug this rule exists to catch.
fn is_len_guarded(f: &SourceFile, name: &str, open: usize, close: usize) -> bool {
    let toks = &f.toks;
    let close = close.min(toks.len().saturating_sub(1));
    for i in open..=close {
        if !(toks[i].kind == TokKind::Ident && toks[i].text == name) {
            continue;
        }
        if toks.get(i + 1).is_some_and(|t| is_punct(t, "."))
            && toks
                .get(i + 2)
                .is_some_and(|t| is_ident(t, "min") || is_ident(t, "clamp"))
        {
            return true;
        }
        let cmp_near = toks
            .get(i + 1)
            .is_some_and(|t| is_punct(t, "<") || is_punct(t, ">"))
            || (i >= 1 && (is_punct(&toks[i - 1], "<") || is_punct(&toks[i - 1], ">")))
            || (i >= 2
                && is_punct(&toks[i - 1], "=")
                && (is_punct(&toks[i - 2], "<") || is_punct(&toks[i - 2], ">")));
        if !cmp_near {
            continue;
        }
        let wlo = i.saturating_sub(8).max(open);
        let whi = (i + 8).min(close);
        let window = &toks[wlo..=whi];
        if window.iter().any(|t| {
            t.kind == TokKind::Ident
                && t.text.contains("MAX")
                && t.text
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_uppercase())
        }) {
            return true;
        }
        let vs_len = window
            .windows(3)
            .any(|w| is_punct(&w[0], ".") && is_ident(&w[1], "len") && is_punct(&w[2], "("));
        if vs_len {
            let mut j = i;
            while j <= close && !is_punct(&toks[j], "{") {
                j += 1;
            }
            if j <= close {
                let end = match_close(toks, j, close);
                if toks[j..=end].iter().any(|t| is_ident(t, "Err")) {
                    return true;
                }
            }
        }
    }
    false
}

/// Untrusted-input crates only: the codec and the live frame paths. A
/// decoded length must be clamped before it sizes an allocation
/// (`with_capacity`, `reserve`, `vec![…; n]`) or a slice operation.
fn unbounded_decode_allocation(f: &SourceFile, out: &mut Vec<Finding>) {
    if !(f.crate_name() == "codec" || f.path.contains("live/") || f.path.ends_with("/live.rs")) {
        return;
    }
    let toks = &f.toks;
    walk_items(&f.items, &mut |it| {
        if !matches!(it.kind, ItemKind::Fn) || f.test_mask[it.span.0] {
            return;
        }
        let Some((open, close)) = it.body else {
            return;
        };
        let close = close.min(toks.len().saturating_sub(1));
        // Pass 1: locals initialized from wire-decoded integers.
        let mut tainted: Vec<String> = Vec::new();
        let mut i = open;
        while i <= close {
            if is_ident(&toks[i], "let") {
                let mut j = i + 1;
                if toks.get(j).is_some_and(|t| is_ident(t, "mut")) {
                    j += 1;
                }
                if toks.get(j).is_some_and(|t| t.kind == TokKind::Ident)
                    && toks.get(j + 1).is_some_and(|t| is_punct(t, "="))
                {
                    let name = toks[j].text.clone();
                    let mut k = j + 2;
                    let mut depth = 0i32;
                    let rhs_start = k;
                    while k <= close {
                        if toks[k].kind == TokKind::Punct {
                            match toks[k].text.as_str() {
                                "(" | "[" | "{" => depth += 1,
                                ")" | "]" | "}" => depth -= 1,
                                ";" if depth == 0 => break,
                                _ => {}
                            }
                        }
                        k += 1;
                    }
                    if rhs_is_decoded_len(&toks[rhs_start..k.min(close + 1)])
                        && !tainted.contains(&name)
                    {
                        tainted.push(name);
                    }
                    i = k;
                    continue;
                }
            }
            i += 1;
        }
        tainted.retain(|name| !is_len_guarded(f, name, open, close));
        let is_tainted_expr = |args: &[Tok]| {
            args.iter()
                .any(|a| a.kind == TokKind::Ident && tainted.contains(&a.text))
                || rhs_is_decoded_len(args)
        };
        // Pass 2: allocation and slicing sinks.
        let mut i = open;
        while i <= close {
            let t = &toks[i];
            if (is_ident(t, "with_capacity") || is_ident(t, "reserve"))
                && toks.get(i + 1).is_some_and(|n| is_punct(n, "("))
            {
                let end = match_close(toks, i + 1, close);
                if is_tainted_expr(&toks[i + 2..end]) {
                    out.push(Finding {
                        rule: UNBOUNDED_DECODE_ALLOCATION,
                        path: f.path.clone(),
                        line: t.line,
                        snippet: f.snippet(t.line),
                        message: format!(
                            "`{}` sized by an unclamped wire-decoded length; clamp against the remaining input or a protocol MAX first",
                            t.text
                        ),
                    });
                }
                i = end;
                continue;
            }
            if is_ident(t, "vec")
                && toks.get(i + 1).is_some_and(|n| is_punct(n, "!"))
                && toks.get(i + 2).is_some_and(|n| is_punct(n, "["))
            {
                let end = match_close(toks, i + 2, close);
                if is_tainted_expr(&toks[i + 3..end]) {
                    out.push(Finding {
                        rule: UNBOUNDED_DECODE_ALLOCATION,
                        path: f.path.clone(),
                        line: t.line,
                        snippet: f.snippet(t.line),
                        message: "`vec![…]` sized by an unclamped wire-decoded length; clamp against the remaining input or a protocol MAX first"
                            .to_owned(),
                    });
                }
                i = end;
                continue;
            }
            // Slice/index expression driven by the tainted length.
            if is_punct(t, "[")
                && i > open
                && (toks[i - 1].kind == TokKind::Ident
                    || is_punct(&toks[i - 1], ")")
                    || is_punct(&toks[i - 1], "]"))
            {
                let end = match_close(toks, i, close);
                if toks[i + 1..end]
                    .iter()
                    .any(|a| a.kind == TokKind::Ident && tainted.contains(&a.text))
                {
                    out.push(Finding {
                        rule: UNBOUNDED_DECODE_ALLOCATION,
                        path: f.path.clone(),
                        line: t.line,
                        snippet: f.snippet(t.line),
                        message: "slice/index driven by an unclamped wire-decoded length; clamp or reject oversized claims first"
                            .to_owned(),
                    });
                }
                // fall through token-by-token: nested sinks may hide inside
            }
            i += 1;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, src: &str) -> SourceFile {
        SourceFile::parse(path, src).unwrap()
    }

    fn run_one(path: &str, src: &str) -> Vec<Finding> {
        run_all(&[file(path, src)])
    }

    // ---- rule 1 ----------------------------------------------------

    #[test]
    fn hashmap_iteration_in_digest_crate_is_flagged() {
        let src = "use std::collections::HashMap;\n\
                   struct S { m: HashMap<u32, u32> }\n\
                   impl S { fn f(&self) { for v in self.m.values() { drop(v); } } }";
        let f = run_one("crates/netsim/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, NONDETERMINISTIC_ITERATION);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn for_in_ref_to_map_is_flagged() {
        let src = "use std::collections::HashMap;\n\
                   fn f() { let m: HashMap<u32, u32> = HashMap::new(); for x in &m { drop(x); } }";
        let f = run_one("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, NONDETERMINISTIC_ITERATION);
    }

    #[test]
    fn let_init_without_type_annotation_is_tracked() {
        let src = "use std::collections::HashSet;\n\
                   fn f() { let mut s = HashSet::new(); s.insert(1); s.retain(|_| true); }";
        let f = run_one("crates/peerhood/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("retain"));
    }

    #[test]
    fn btreemap_iteration_and_lookup_are_clean() {
        let src = "use std::collections::{BTreeMap, HashMap};\n\
                   struct S { m: BTreeMap<u32, u32>, h: HashMap<u32, u32> }\n\
                   impl S { fn f(&self) -> Option<&u32> { for v in self.m.values() {} self.h.get(&1) } }";
        assert!(run_one("crates/netsim/src/x.rs", src).is_empty());
    }

    #[test]
    fn hash_iteration_outside_digest_crates_is_clean() {
        let src = "use std::collections::HashMap;\n\
                   fn f(m: &HashMap<u32, u32>) { for v in m.values() { drop(v); } }";
        assert!(run_one("crates/harness/src/x.rs", src).is_empty());
    }

    #[test]
    fn hash_iteration_in_tests_is_exempt() {
        let src = "use std::collections::HashMap;\n\
                   #[cfg(test)] mod tests { use super::*;\n\
                   fn f(m: &HashMap<u32, u32>) { for v in m.values() { drop(v); } } }";
        assert!(run_one("crates/netsim/src/x.rs", src).is_empty());
    }

    #[test]
    fn hashmap_in_string_literal_is_not_a_finding() {
        let src = "fn f() -> &'static str { \"for v in map.values() HashMap\" }";
        assert!(run_one("crates/netsim/src/x.rs", src).is_empty());
    }

    // ---- rule 2 ----------------------------------------------------

    #[test]
    fn unwrap_in_dispatch_file_is_flagged() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        let f = run_one("crates/core/src/server.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, PANIC_IN_DISPATCH);
        assert!(f[0].message.contains("unwrap"));
    }

    #[test]
    fn expect_panic_macro_and_indexing_are_flagged() {
        let src = "fn f(v: &[u32], x: Option<u32>) -> u32 {\n\
                   let a = x.expect(\"boom\");\n\
                   if a > 9 { panic!(\"no\"); }\n\
                   v[0]\n}";
        let f = run_one("crates/peerhood/src/daemon.rs", src);
        let rules: Vec<_> = f.iter().map(|x| (x.rule, x.line)).collect();
        assert_eq!(
            rules,
            vec![
                (PANIC_IN_DISPATCH, 2),
                (PANIC_IN_DISPATCH, 3),
                (PANIC_IN_DISPATCH, 4)
            ]
        );
    }

    #[test]
    fn unwrap_in_dispatch_tests_is_exempt() {
        let src = "fn ok() -> u32 { 1 }\n\
                   #[cfg(test)] mod tests { #[test] fn t() { Some(1).unwrap(); } }";
        assert!(run_one("crates/core/src/server.rs", src).is_empty());
    }

    #[test]
    fn unwrap_outside_dispatch_files_is_not_this_rules_business() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert!(run_one("crates/core/src/store.rs", src).is_empty());
    }

    #[test]
    fn attributes_array_types_and_macros_are_not_indexing() {
        let src = "#[derive(Debug)]\nstruct S { a: [u8; 4] }\n\
                   fn f() -> Vec<u8> { vec![1, 2] }";
        assert!(run_one("crates/core/src/server.rs", src).is_empty());
    }

    // ---- rule 4 ----------------------------------------------------

    #[test]
    fn thread_spawn_flagged_outside_par() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        let f = run_one("crates/harness/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RAW_THREAD_SPAWN);
        // …and scope spawns too (the scope itself plus the `.spawn`):
        let src = "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }";
        assert_eq!(run_one("crates/core/src/x.rs", src).len(), 2);
    }

    #[test]
    fn thread_scope_flagged_even_when_spawns_hide_in_a_helper() {
        // A scope handed to a helper spawns threads without any visible
        // `.spawn` at the call site — the scope alone must trip the rule.
        let src = "fn f() { std::thread::scope(|s| fan_out(s)); }";
        let f = run_one("crates/peerhood/src/sim.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RAW_THREAD_SPAWN);
    }

    #[test]
    fn par_module_may_spawn() {
        let src = "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }";
        assert!(run_one("crates/netsim/src/par.rs", src).is_empty());
    }

    #[test]
    fn live_path_may_spawn() {
        let src = "fn f() { std::thread::Builder::new().spawn(|| {}); }";
        assert!(run_one("crates/peerhood/src/live/reactor.rs", src).is_empty());
        assert!(run_one("crates/harness/src/live.rs", src).is_empty());
        // Other peerhood modules stay covered.
        assert_eq!(run_one("crates/peerhood/src/daemon.rs", src).len(), 1);
    }

    // ---- rule 5 ----------------------------------------------------

    #[test]
    fn relaxed_ordering_flagged_in_production_code() {
        let src = "use std::sync::atomic::{AtomicU64, Ordering};\n\
                   fn f(a: &AtomicU64) { a.fetch_add(1, Ordering::Relaxed); }";
        let f = run_one("crates/netsim/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RELAXED_ORDERING);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn seqcst_and_test_relaxed_are_clean() {
        let src = "use std::sync::atomic::{AtomicU64, Ordering};\n\
                   fn f(a: &AtomicU64) { a.fetch_add(1, Ordering::SeqCst); }\n\
                   #[cfg(test)] mod tests { use super::*;\n\
                   fn g(a: &AtomicU64) { a.load(Ordering::Relaxed); } }";
        assert!(run_one("crates/netsim/src/x.rs", src).is_empty());
    }

    // ---- rule 6 ----------------------------------------------------

    fn proto_src(extra_variant: bool) -> String {
        let mut enum_body = String::from("A,\nB { x: u32 },\n");
        if extra_variant {
            enum_body.push_str("C,\n");
        }
        format!(
            "pub enum Request {{ {enum_body} }}\n\
             pub enum Response {{ Ok, Err {{ msg: String }}, }}\n\
             impl Request {{\n\
               fn encode(&self) {{ match self {{ Request::A => {{}}, Request::B {{ .. }} => {{}}, {} }} }}\n\
               fn decode() -> Request {{ if true {{ Request::A }} else {{ Request::B {{ x: 1 }} }} }}\n\
             }}\n\
             impl Response {{\n\
               fn encode(&self) {{ match self {{ Response::Ok => {{}}, Response::Err {{ .. }} => {{}}, }} }}\n\
               fn decode() -> Response {{ if true {{ Response::Ok }} else {{ Response::Err {{ msg: String::new() }} }} }}\n\
             }}\n\
             #[cfg(test)] mod tests {{\n\
               fn fixtures() {{ let _ = (Request::A, Request::B {{ x: 1 }}, Response::Ok, Response::Err {{ msg: String::new() }}); }}\n\
             }}\n",
            if extra_variant { "Request::C => {}," } else { "" }
        )
    }

    fn server_src() -> &'static str {
        "fn dispatch(r: &Request) -> Response {\n\
           match r { Request::A => Response::Ok,\n\
                     Request::B { .. } => Response::Err { msg: String::new() } }\n\
         }"
    }

    #[test]
    fn covered_variants_pass() {
        let files = [
            file("crates/core/src/protocol.rs", &proto_src(false)),
            file("crates/core/src/server.rs", server_src()),
        ];
        let f: Vec<_> = run_all(&files)
            .into_iter()
            .filter(|f| f.rule == WIRE_EXHAUSTIVENESS)
            .collect();
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn uncovered_variant_reports_each_missing_leg() {
        // `Request::C` has an encode arm only: missing half the Wire
        // coverage, the dispatch arm, and the round-trip fixture.
        let files = [
            file("crates/core/src/protocol.rs", &proto_src(true)),
            file("crates/core/src/server.rs", server_src()),
        ];
        let f: Vec<_> = run_all(&files)
            .into_iter()
            .filter(|f| f.rule == WIRE_EXHAUSTIVENESS)
            .collect();
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("Request::C"));
        assert!(f[0].message.contains("Wire encode/decode"));
        assert!(f[0].message.contains("dispatch"));
        assert!(f[0].message.contains("round-trip"));
    }

    // ---- rule 6: digest-taint --------------------------------------

    #[test]
    fn digest_taint_follows_reachability_not_mere_presence() {
        let src = "struct Cluster;\n\
                   impl Cluster { pub fn run_until(&mut self) { helper(); } }\n\
                   fn helper() { let _ = std::time::Instant::now(); }\n\
                   fn island() { let _ = std::time::Instant::now(); }";
        let f = run_one("crates/peerhood/src/sim.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, DIGEST_TAINT);
        assert_eq!(f[0].line, 3);
        assert!(
            f[0].message.contains("Cluster::run_until"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn digest_taint_catches_core_count_thread_id_and_ptr_casts() {
        let src = "struct Cluster;\n\
                   impl Cluster { pub fn run_until(&mut self) { a(); b(); c(); } }\n\
                   fn a() -> usize { std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) }\n\
                   fn b() { let _ = std::thread::current(); }\n\
                   fn c(v: &[u8]) -> usize { v.as_ptr() as usize }";
        let f = run_one("crates/peerhood/src/sim.rs", src);
        let lines: Vec<u32> = f
            .iter()
            .filter(|x| x.rule == DIGEST_TAINT)
            .map(|x| x.line)
            .collect();
        assert_eq!(lines, vec![3, 4, 5], "{f:?}");
    }

    #[test]
    fn digest_taint_exempts_live_bench_and_test_code() {
        let live = "struct Cluster;\n\
                    impl Cluster { pub fn run_until(&mut self) { let _ = std::time::Instant::now(); } }";
        assert!(run_one("crates/peerhood/src/live/net.rs", live).is_empty());
        assert!(run_one("crates/bench/src/lib.rs", live).is_empty());
        let test_only = "struct Cluster;\n\
                         impl Cluster { pub fn run_until(&mut self) {} }\n\
                         #[cfg(test)] mod tests { fn t() { let _ = std::time::Instant::now(); } }";
        assert!(run_one("crates/peerhood/src/sim.rs", test_only).is_empty());
    }

    // ---- rule 7: epoch-frozen-mutation -----------------------------

    #[test]
    fn epoch_worker_frozen_writes_are_flagged() {
        let src =
            "struct EpochWorker<'a> { view: EpochView<'a>, trace: &'a Trace, out: EpochOutbox }\n\
                   impl<'a> EpochWorker<'a> {\n\
                   fn bad_call(&mut self) { self.trace.record(1); }\n\
                   fn bad_borrow(&mut self) { let t = &mut self.view; drop(t); }\n\
                   fn bad_assign(&mut self) { self.view.epoch = 3; }\n\
                   }";
        let f = run_one("crates/peerhood/src/sim.rs", src);
        let got: Vec<(u32, &str)> = f.iter().map(|x| (x.line, x.rule)).collect();
        assert_eq!(
            got,
            vec![
                (3, EPOCH_FROZEN_MUTATION),
                (4, EPOCH_FROZEN_MUTATION),
                (5, EPOCH_FROZEN_MUTATION)
            ],
            "{f:?}"
        );
    }

    #[test]
    fn epoch_worker_reads_and_outbox_writes_are_clean() {
        let src = "struct EpochWorker<'a> { view: EpochView<'a>, trace: &'a Trace, out: EpochOutbox, scratch: Vec<u32> }\n\
                   impl<'a> EpochWorker<'a> {\n\
                   fn ok(&mut self) {\n\
                   let n = self.trace.len();\n\
                   let r = self.view.reachable(1);\n\
                   self.out.records.push(n);\n\
                   self.scratch.clear();\n\
                   drop(r);\n\
                   }\n\
                   }";
        assert!(run_one("crates/peerhood/src/sim.rs", src).is_empty());
    }

    // ---- rule 8: outbox-commutativity ------------------------------

    #[test]
    fn outbox_stats_assignment_and_shrink_are_flagged() {
        let src = "pub struct EpochOutbox { pub stats: TraceStats }\n\
                   fn commit(b: &mut EpochOutbox) {\n\
                   b.stats.messages = 3;\n\
                   b.stats.frames_sent -= 1;\n\
                   b.stats.messages += 1;\n\
                   }";
        let f = run_one("crates/peerhood/src/sim.rs", src);
        let got: Vec<u32> = f
            .iter()
            .filter(|x| x.rule == OUTBOX_COMMUTATIVITY)
            .map(|x| x.line)
            .collect();
        assert_eq!(got, vec![3, 4], "{f:?}");
    }

    #[test]
    fn stats_merge_fn_must_not_assign_or_max() {
        let src = "pub struct EpochOutbox { pub stats: TraceStats }\n\
                   pub struct TraceStats { pub messages: u64 }\n\
                   impl TraceStats {\n\
                   pub fn add(&mut self, o: &TraceStats) { self.messages = self.messages.max(o.messages); }\n\
                   }";
        let f = run_one("crates/netsim/src/trace.rs", src);
        let msgs: Vec<&str> = f
            .iter()
            .filter(|x| x.rule == OUTBOX_COMMUTATIVITY)
            .map(|x| x.message.as_str())
            .collect();
        assert_eq!(msgs.len(), 2, "{f:?}");
        assert!(msgs.iter().any(|m| m.contains("assignment")));
        assert!(msgs.iter().any(|m| m.contains(".max(")));
    }

    #[test]
    fn additive_merge_and_local_stats_bindings_are_clean() {
        let src = "pub struct EpochOutbox { pub stats: TraceStats }\n\
                   pub struct TraceStats { pub messages: u64 }\n\
                   impl TraceStats {\n\
                   pub fn add(&mut self, o: &TraceStats) { self.messages += o.messages; }\n\
                   }\n\
                   fn commit(b: &EpochOutbox, t: &mut TraceStats) {\n\
                   let stats = &b.stats;\n\
                   t.add(stats);\n\
                   }";
        assert!(run_one("crates/peerhood/src/sim.rs", src).is_empty());
    }

    // ---- rule 9: unbounded-decode-allocation -----------------------

    #[test]
    fn unclamped_decode_allocation_is_flagged() {
        let src = "fn f(hdr: [u8; 4]) -> Vec<u8> {\n\
                   let len = u32::from_be_bytes(hdr) as usize;\n\
                   Vec::with_capacity(len)\n\
                   }";
        let f = run_one("crates/codec/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, UNBOUNDED_DECODE_ALLOCATION);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn max_clamp_and_read_len_are_guards() {
        let src = "const MAX_FRAME_LEN: usize = 1 << 20;\n\
                   fn f(hdr: [u8; 4]) -> Option<Vec<u8>> {\n\
                   let len = u32::from_be_bytes(hdr) as usize;\n\
                   if len > MAX_FRAME_LEN { return None; }\n\
                   Some(Vec::with_capacity(len))\n\
                   }\n\
                   fn g(input: &[u8]) -> Vec<u8> {\n\
                   let n = read_len(input);\n\
                   Vec::with_capacity(n)\n\
                   }";
        assert!(run_one("crates/codec/src/x.rs", src).is_empty());
    }

    #[test]
    fn wait_for_more_bytes_is_not_a_guard() {
        // Comparing against the buffered length and returning `None` just
        // defers the oversized claim — the slice past the header is still
        // sized by the hostile length once enough bytes arrive.
        let src = "fn pop(buf: &mut Vec<u8>) -> Option<Vec<u8>> {\n\
                   let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;\n\
                   if buf.len() < 4 + len { return None; }\n\
                   Some(buf[4..4 + len].to_vec())\n\
                   }";
        let f = run_one("crates/peerhood/src/live/wire_x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, UNBOUNDED_DECODE_ALLOCATION);
        assert!(f[0].message.contains("slice/index"), "{}", f[0].message);
    }

    #[test]
    fn decode_allocation_outside_untrusted_crates_is_clean() {
        let src = "fn f(hdr: [u8; 4]) -> Vec<u8> {\n\
                   let len = u32::from_be_bytes(hdr) as usize;\n\
                   Vec::with_capacity(len)\n\
                   }";
        assert!(run_one("crates/harness/src/x.rs", src).is_empty());
    }

    // ---- rule catalog ----------------------------------------------

    #[test]
    fn every_rule_has_a_doc_entry() {
        for rule in ALL_RULES {
            let doc = rule_doc(rule).unwrap_or_else(|| panic!("no RuleDoc for {rule}"));
            assert!(!doc.summary.is_empty() && !doc.why.is_empty());
            assert!(!doc.bad.is_empty() && !doc.good.is_empty());
        }
        assert!(
            rule_doc("wall-clock-in-sim").is_none(),
            "rule was replaced by digest-taint"
        );
    }
}
