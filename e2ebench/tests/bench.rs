//! The benchmark's own checks, on tiny instances. Run with
//! `cargo test --release --manifest-path e2ebench/Cargo.toml`.

use e2ebench::{per_layer, run, serve, thm1, Opts, Report, Workload, END_TO_END};
use fast_broadcast::graph::algo::{diameter_exact, eccentricity, edge_connectivity};
use std::process::Command;

fn tiny(workload: Workload, seed: u64, trace: bool) -> Opts {
    Opts {
        workload,
        seed,
        seconds: 0.05,
        trace,
        tiny: true,
    }
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let list = &text[start..start + text[start..].find(']').expect("list ends")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect(key) + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closing quote");
        rest[open..close].to_string()
    };
    list.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    assert_eq!(declared("end_to_end"), owned(END_TO_END));
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(declared("per_layer"), layers);
}

/// Every workload, untraced and traced, through the real command line:
/// exit 0, and a last line naming every declared metric with its unit.
#[test]
fn tiny_runs_print_every_declared_metric() {
    for w in Workload::ALL {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
                .args(["--workload", w.name(), "--seed", "3", "--seconds", "0.05"])
                .args(["--trace", trace, "--tiny"])
                .output()
                .expect("run e2ebench");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{} --trace {trace}: {stdout}",
                w.name()
            );
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{last}"
            );
            for (name, unit) in declared(section) {
                let entry = format!("\"{name}\": {{\"value\": ");
                assert!(last.contains(&entry), "{}: no {name} in {last}", w.name());
                let at = last.find(&entry).unwrap();
                let unit_at = last[at..].find("\"unit\": ").unwrap() + at;
                assert!(last[unit_at..].starts_with(&format!("\"unit\": \"{unit}\"")));
            }
        }
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "serve_mix", "--trace", "2"],
        &["--seed", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
            .args(args)
            .output()
            .expect("run e2ebench");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}

/// The counts a pure speed change must leave unchanged.
fn exact_counts(r: &Report) -> Vec<(String, f64)> {
    r.values
        .iter()
        .filter(|(n, _)| {
            [
                ".rounds",
                ".messages",
                ".round_calls",
                ".attempts",
                "_ratio",
                "sim_rounds",
                ".drains",
                ".hits",
                ".misses",
                ".warm_bytes",
                "_jobs",
                ".dropped",
            ]
            .iter()
            .any(|s| n.ends_with(s))
        })
        .cloned()
        .collect()
}

#[test]
fn same_seed_gives_identical_counts() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let a = run(&tiny(w, 5, trace));
            let b = run(&tiny(w, 5, trace));
            assert!(a.correct() && b.correct(), "{}: {:?}", w.name(), a.notes);
            let counts = exact_counts(&a);
            assert!(counts.len() >= if trace { 8 } else { 1 }, "{counts:?}");
            assert_eq!(counts, exact_counts(&b), "{} trace={trace}", w.name());
        }
    }
}

#[test]
fn different_seed_gives_different_inputs() {
    for w in [Workload::Thm1LongPipe, Workload::Thm1ManyTrees] {
        let shape = thm1::shape(w, true);
        let (a, b) = (thm1::Setup::new(shape, 1), thm1::Setup::new(shape, 2));
        for (x, y) in a.inst.iter().zip(&b.inst) {
            assert_ne!(x.input, y.input);
            assert_ne!(x.cfg.seed, y.cfg.seed);
        }
    }
    let shape = serve::shape(true);
    let (a, b) = (serve::Setup::new(shape, 1), serve::Setup::new(shape, 2));
    let seeds = |s: &serve::Setup| s.stream.iter().map(|j| j.seed).collect::<Vec<_>>();
    assert_ne!(seeds(&a), seeds(&b));
}

/// λ and D are taken from the construction; check them against the exact
/// algorithms once, including on the full-size `thm1_long_pipe` graph.
#[test]
fn lambda_and_diameter_match_the_construction() {
    for w in [Workload::Thm1LongPipe, Workload::Thm1ManyTrees] {
        let family = thm1::shape(w, true).family;
        let g = family.build();
        assert_eq!(edge_connectivity(&g), family.lambda());
        assert_eq!(eccentricity(&g, 0), diameter_exact(&g));
    }
    let full = thm1::shape(Workload::Thm1LongPipe, false).family;
    assert_eq!(edge_connectivity(&full.build()), full.lambda());
    let complete = thm1::Family::Complete { n: 96 };
    assert_eq!(edge_connectivity(&complete.build()), complete.lambda());
}
