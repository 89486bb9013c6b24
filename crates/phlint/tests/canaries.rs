//! Lint self-test on the real tree: each canary is one violation of a
//! syntax-aware rule family, spliced in memory into a real workspace
//! file. The lint must report it as a finding that `lint.allow` does not
//! cover — so the rules still see the real code they guard, not only the
//! golden fixtures. No file on disk is ever rewritten.

use std::path::Path;

use phlint::rules::{self, Finding, SourceFile};

const SIM: &str = "crates/peerhood/src/sim.rs";
const TRACE: &str = "crates/netsim/src/trace.rs";
const WIRE: &str = "crates/codec/src/wire.rs";

/// The findings `lint.allow` does not cover once `edit` has rewritten
/// the text of the workspace file `target` (workspace-relative).
fn new_findings(target: &str, edit: impl Fn(&str) -> String) -> Vec<Finding> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let allowlist = phlint::load_allowlist(&root.join("lint.allow")).expect("lint.allow parses");
    let files = phlint::collect_workspace_files(&root).expect("workspace readable");
    let sources: Vec<SourceFile> = files
        .iter()
        .map(|path| {
            let rel = path.strip_prefix(&root).expect("under the root");
            let rel = rel.to_string_lossy().replace('\\', "/");
            let text = std::fs::read_to_string(path).expect("readable source");
            let text = if rel == target { edit(&text) } else { text };
            SourceFile::parse(rel, &text).expect("workspace source lexes")
        })
        .collect();
    let findings = rules::run_all(&sources);
    let allowed = allowlist.assign(&findings).expect("unambiguous baseline");
    findings
        .into_iter()
        .zip(allowed)
        .filter_map(|(finding, entry)| entry.is_none().then_some(finding))
        .collect()
}

fn assert_caught(rule: &str, target: &str, edit: impl Fn(&str) -> String) {
    let found = new_findings(target, edit);
    assert!(
        found.iter().any(|f| f.rule == rule && f.path == target),
        "injected {rule} violation in {target} was not caught; new findings: {found:#?}"
    );
}

fn append(canary: &'static str) -> impl Fn(&str) -> String {
    move |text| format!("{text}\n{canary}")
}

#[test]
fn the_untouched_tree_is_clean() {
    let found = new_findings("", str::to_owned);
    assert!(found.is_empty(), "findings outside lint.allow: {found:#?}");
}

/// A wall-clock read inside the digest root itself.
#[test]
fn digest_taint_canary_is_caught() {
    assert_caught(rules::DIGEST_TAINT, SIM, |text| {
        let anchor = "let t0 = self.collect_timing.then(Instant::now);";
        assert!(text.contains(anchor), "canary anchor moved out of {SIM}");
        text.replacen(
            anchor,
            &format!("{anchor}\n        let _canary = Instant::now();"),
            1,
        )
    });
}

/// A mutable borrow of the frozen epoch view.
#[test]
fn epoch_frozen_mutation_canary_is_caught() {
    assert_caught(
        rules::EPOCH_FROZEN_MUTATION,
        SIM,
        append(
            "impl EpochWorker {
    fn lint_canary(&mut self) {
        let _grab = &mut self.view;
    }
}",
        ),
    );
}

/// A non-additive merge on the outbox stats type.
#[test]
fn outbox_commutativity_canary_is_caught() {
    assert_caught(
        rules::OUTBOX_COMMUTATIVITY,
        TRACE,
        append(
            "impl TraceStats {
    fn absorb(&mut self, other: &TraceStats) {
        self.events_recorded = other.events_recorded;
    }
}",
        ),
    );
}

/// An allocation sized by a raw wire length.
#[test]
fn unbounded_decode_allocation_canary_is_caught() {
    assert_caught(
        rules::UNBOUNDED_DECODE_ALLOCATION,
        WIRE,
        append(
            "fn lint_canary(input: &[u8]) {
    let claim = u32::from_be_bytes([input[0], input[1], input[2], input[3]]) as usize;
    let _buf: Vec<u8> = Vec::with_capacity(claim);
}",
        ),
    );
}
