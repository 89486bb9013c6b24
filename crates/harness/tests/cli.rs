//! `repro` rejects what it does not understand: an undeclared flag, a
//! value its flag cannot parse and an unknown command each exit 2 with a
//! usage line, before any experiment runs.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("the repro binary runs")
}

fn assert_usage_error(args: &[&str], usage: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "repro {args:?}: {stderr}");
    assert!(stderr.contains(usage), "repro {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "repro {args:?} ran anyway");
}

#[test]
fn unknown_flags_and_bad_values_exit_2_with_the_usage_line() {
    assert_usage_error(&["bubbles", "--regions", "3"], "usage: repro bubbles");
    assert_usage_error(&["bubbles", "--bogus"], "usage: repro bubbles");
    assert_usage_error(&["bubbles", "--per-bubble", "many"], "usage: repro bubbles");
    assert_usage_error(&["crowd", "--nodes", "1e6"], "usage: repro crowd");
    assert_usage_error(&["crowd", "--faults"], "usage: repro crowd");
    assert_usage_error(&["msc"], "usage: repro msc");
    assert_usage_error(&["table6", "--seed", "1"], "usage: repro table6");
    assert_usage_error(&["lab", "--gossip"], "usage: repro lab");
    assert_usage_error(&["no-such-command"], "repro help");
}

#[test]
fn declared_flags_are_accepted() {
    let out = repro(&["fig6"]);
    assert!(out.status.success(), "{out:?}");
    let out = repro(&["msc", "--op", "member-list", "--seed", "7"]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("conformance: OK"));
}
