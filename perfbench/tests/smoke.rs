//! Runs every workload at toy size, untraced and traced, and checks that
//! the emitted metric names and units are exactly those `BENCHMARK.json`
//! declares, so the code and the JSON cannot drift. Also checks that a
//! deliberately broken check makes the command exit nonzero.

use std::path::PathBuf;
use std::process::{Command, Output};

use codec::json::Json;

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

const EXE: &str = env!("CARGO_BIN_EXE_perfbench");

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match json::get(doc, key) {
        Some(Json::Arr(items)) => items,
        other => panic!("{key} is not a list: {other:?}"),
    }
}

fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    match json::get(v, key) {
        Some(Json::Str(s)) => s,
        other => panic!("{key} is not a string: {other:?}"),
    }
}

fn perfbench(args: &[&str]) -> Output {
    let out =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{}.json", args.join("_")));
    Command::new(EXE)
        .args(["run", "--toy", "--seconds", "0.2"])
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .expect("run perfbench")
}

/// The JSON object on the last line of standard output.
fn last_line(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().expect("some output");
    json::parse(line).expect("last line is JSON")
}

/// `(workload.metric, unit)` pairs of the last line, sorted.
fn emitted(line: &Json) -> Vec<(String, String)> {
    let Some(Json::Obj(metrics)) = json::get(line, "metrics") else {
        panic!("no metrics object in {line:?}");
    };
    let mut pairs: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| (name.clone(), text(m, "unit").to_owned()))
        .collect();
    pairs.sort();
    pairs
}

#[test]
fn emitted_metrics_match_benchmark_json() {
    let doc = benchmark_json();
    let workloads: Vec<&str> = list(&doc, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = perfbench(&["--trace", trace]);
        assert!(
            out.status.success(),
            "--trace {trace} failed: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        let line = last_line(&out);
        assert_eq!(json::get(&line, "correct"), Some(&Json::Bool(true)));
        let emitted = emitted(&line);
        // Every workload runs; BENCHMARK.json lists the ones it gates.
        let mut ran: Vec<&str> = emitted
            .iter()
            .map(|(name, _)| name.split_once('.').expect("workload.metric").0)
            .collect();
        ran.dedup();
        for w in &workloads {
            assert!(ran.contains(w), "{w} is in BENCHMARK.json but did not run");
        }
        let mut declared: Vec<(String, String)> = ran
            .iter()
            .flat_map(|w| {
                list(&doc, section).iter().map(move |m| {
                    (
                        format!("{w}.{}", text(m, "name")),
                        text(m, "unit").to_owned(),
                    )
                })
            })
            .collect();
        declared.sort();
        assert_eq!(emitted, declared, "--trace {trace} vs {section}");
    }
}

#[test]
fn broken_checks_fail_the_command() {
    for args in [
        ["--workload", "crowd_lossy_20k", "--inject", "digest"],
        ["--workload", "gossip_bubbles", "--inject", "digest"],
        ["--workload", "live_write", "--inject", "journal"],
    ] {
        let out = perfbench(&args);
        assert!(!out.status.success(), "{args:?} exited 0");
        let line = last_line(&out);
        assert_eq!(
            json::get(&line, "correct"),
            Some(&Json::Bool(false)),
            "{args:?}"
        );
    }
}
