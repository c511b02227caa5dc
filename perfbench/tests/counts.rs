//! Runs the benchmark binary the way `run.py` does, one process
//! per run, and checks what its results promise: the exact counts
//! repeat for a seed, and the result line holds exactly the metrics
//! `BENCHMARK.json` declares. Build with `--release`: a debug build may
//! not finish the count pass in the six seconds each run gets.

use hiphop_runtime::flight::Json;
use std::collections::BTreeMap;
use std::process::Command;

/// One run: the `metric` lines by name, and the JSON result line.
fn run(workload: &str, seed: u64, trace: bool) -> (BTreeMap<String, f64>, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_hiphop-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "6",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(out.status.success(), "{workload} failed:\n{stdout}");
    let metrics = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("metric "))
        .map(|l| {
            let mut parts = l.split(' ');
            let name = parts.next().expect("name").to_owned();
            (
                name,
                parts.next().expect("value").parse().expect("a number"),
            )
        })
        .collect();
    let result = Json::parse(stdout.lines().last().expect("a result line")).expect("JSON");
    (metrics, result)
}

/// `(name, unit)` of every metric in a result line.
fn result_metrics(result: &Json) -> Vec<(String, String)> {
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64) > Some(0));
    result
        .get("metrics")
        .and_then(Json::members)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} has a value"
            );
            (name.clone(), unit.to_owned())
        })
        .collect()
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    json.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect(k).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn counts_repeat_for_a_seed_and_results_match_benchmark_json() {
    let counts: &[(&str, &[&str])] = &[
        (
            "dense",
            &[
                "compiler.nets",
                "compiler.registers",
                "compiler.levels",
                "runtime.evals_per_reaction",
                "runtime.allocs_per_reaction",
            ],
        ),
        (
            "concert",
            &[
                "compiler.nets",
                "sessions.allocs_per_reaction",
                "sessions.inputs_per_tick",
                "sessions.outputs_per_tick",
            ],
        ),
        (
            "durable",
            &[
                "sessions.allocs_per_reaction",
                "sessions.inputs_per_tick",
                "snapshot.bytes_per_session",
                "flight.journal_bytes_per_tick",
            ],
        ),
    ];
    for (workload, names) in counts {
        let (a, traced) = run(workload, 5, true);
        let (b, _) = run(workload, 5, true);
        for run in [&a, &b] {
            assert!(
                run["instants"] >= 200.0,
                "{workload}: the 200-instant count pass did not finish"
            );
        }
        for name in *names {
            assert!(a[*name] > 0.0, "{workload}: {name} is {}", a[*name]);
            assert_eq!(
                a[*name], b[*name],
                "{workload}: {name} differs between two runs of seed 5"
            );
        }
        assert_eq!(result_metrics(&traced), declared("per_layer"), "{workload}");
        let (_, plain) = run(workload, 6, false);
        assert_eq!(result_metrics(&plain), declared("end_to_end"), "{workload}");
    }
}
