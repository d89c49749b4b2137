//! Smoke test: every workload, untraced and traced, on `small` designs.
//!
//! Each run must pass its output checks and print every metric of its
//! list (end-to-end untraced, per-layer traced) by name with its unit,
//! both in the human-readable lines and in the final JSON line.

use std::process::Command;

use xtalk::sta::serve::Json;

fn catalogue(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let doc = Json::parse(&text).expect("valid JSON");
    doc.get(key)
        .and_then(Json::as_arr)
        .expect(key)
        .iter()
        .map(|m| {
            (
                m.str_field("name").expect("name").to_string(),
                m.str_field("unit").expect("unit").to_string(),
            )
        })
        .collect()
}

fn run(workload: &str, trace: &str) {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "2"])
        .args(["--trace", trace, "--scale", "small"])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("benchmark starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{workload}: {stdout}");
    let last = stdout.lines().last().expect("output");
    let result = Json::parse(last).expect("last line is JSON");
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{workload} trace {trace}: {stdout}"
    );
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics object: {last}");
    };
    let want = catalogue(if trace == "0" {
        "end_to_end"
    } else {
        "per_layer"
    });
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| (name.clone(), m.str_field("unit").unwrap_or("").to_string()))
        .collect();
    assert_eq!(got, want, "{workload} trace {trace}");
    for (name, unit) in &want {
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(name.as_str()) && l.contains(&format!(" {unit} "))),
            "{workload}: no line for {name} [{unit}]"
        );
        let value = metrics
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, m)| m.get("value"))
            .and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}: {name} = {value:?}"
        );
        if trace == "0" {
            assert!(value.is_some_and(|v| v > 0.0), "{workload}: {name} reads 0");
        }
    }
    assert!(stdout.lines().any(|l| l.starts_with("meta {")));
    if trace == "1" {
        let trace_file = out.join(format!("trace-{workload}-5-small.json"));
        let doc = Json::parse(&std::fs::read_to_string(trace_file).expect("trace written"))
            .expect("trace is JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events");
        assert!(events.iter().any(|e| e.str_field("name") == Some("run")));
    }
}

#[test]
fn chip_iterative_small() {
    run("chip_iterative", "0");
    run("chip_iterative", "1");
}

#[test]
fn block_corners_small() {
    run("block_corners", "0");
    run("block_corners", "1");
}

#[test]
fn eco_service_small() {
    run("eco_service", "0");
    run("eco_service", "1");
}
