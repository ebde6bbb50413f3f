//! End-to-end and per-layer benchmark of the Theorem 1 broadcast and the
//! `PoolServer` drain. See `README.md` in this directory for the
//! workloads, the metrics and how they relate.
//!
//! A run is one workload under one seed. Untraced, it reports the
//! end-to-end metrics ([`END_TO_END`]); traced, it replays the same work
//! with spans around every call into a layer and reports the per-layer
//! metrics ([`per_layer`]).

pub mod measure;
pub mod serve;
pub mod thm1;
pub mod trace;

use std::fmt::Write;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Thm1LongPipe,
    Thm1ManyTrees,
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Thm1LongPipe,
        Workload::Thm1ManyTrees,
        Workload::ServeMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Thm1LongPipe => "thm1_long_pipe",
            Workload::Thm1ManyTrees => "thm1_many_trees",
            Workload::ServeMix => "serve_mix",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    /// How long the timed loop runs (it always completes at least one
    /// pass over the workload's fixed instance set).
    pub seconds: f64,
    pub trace: bool,
    /// Small instances, for the benchmark's own tests.
    pub tiny: bool,
}

/// End-to-end metrics, reported by every workload's untraced run. A unit
/// of work is one broadcast (`thm1_*`) or one job (`serve_mix`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("cpu_per_unit_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("sim_rounds", "rounds"),
    ("peak_rss_mb", "MiB"),
];

/// The six phases of Theorem 1: metric prefix (also the span name) and
/// the library's phase name.
pub const PHASES: [(&str, &str); 6] = [
    ("core.leader", "leader-election"),
    ("core.bfs", "bfs"),
    ("core.convergecast", "numbering"),
    ("core.partition", "edge-partition"),
    ("core.subgraph_bfs", "subgraph-bfs"),
    ("core.routing", "parallel-routing"),
];

/// Per-layer metrics, reported by every workload's traced run; a layer
/// the workload does not exercise reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v = Vec::new();
    for (p, _) in PHASES {
        for (q, unit) in [
            ("s", "s"),
            ("rounds", "rounds"),
            ("messages", "count"),
            ("round_calls", "count"),
            ("protocol_cpu_s", "s"),
            ("engine_s", "s"),
        ] {
            v.push((format!("{p}.{q}"), unit));
        }
    }
    let fixed: &[(&str, &str)] = &[
        ("core.glue_s", "s"),
        ("core.broadcast.attempts", "count"),
        ("core.broadcast.round_ratio", "ratio"),
        ("core.broadcast.optimality_ratio", "ratio"),
        ("graph.build_s", "s"),
        ("par.threads", "threads"),
        ("trace.overhead", "ratio"),
        ("sim.pool.drain_s", "s"),
        ("sim.pool.drains", "count"),
        ("sim.pool.hits", "count"),
        ("sim.pool.misses", "count"),
        ("sim.pool.warm_bytes", "bytes"),
        ("sim.pool.batched_jobs", "count"),
        ("sim.pool.solo_jobs", "count"),
        ("sim.wide.refilled_jobs", "count"),
        ("sim.pool.queue_wait_p50_ms", "ms"),
        ("sim.pool.flood_latency_p50_ms", "ms"),
        ("sim.pool.rumor_latency_p50_ms", "ms"),
        ("sim.pool.gossip_latency_p50_ms", "ms"),
        ("sim.pool.rounds", "rounds"),
        ("sim.pool.messages", "count"),
        ("sim.pool.dropped", "count"),
        ("sim.session.isolated_s", "s"),
        ("sim.pool.batch_gain", "ratio"),
    ];
    v.extend(fixed.iter().map(|&(n, u)| (n.to_string(), u)));
    v
}

/// A run's result: failure accounting, metrics, spans and notes.
#[derive(Debug, Default)]
pub struct Report {
    /// Units of work attempted (broadcasts or jobs).
    pub attempted: u64,
    /// Units that errored, hit the round limit or failed an output check.
    pub failed: u64,
    /// `(name, value)`; units come from the catalogue.
    pub values: Vec<(String, f64)>,
    pub spans: Option<trace::Tracer>,
    /// Human-readable context: sample counts, percentiles, failures.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(value.is_finite(), "{name} = {value}");
        match self.values.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Record a failed unit with the reason.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.notes.len() < 64 {
            self.notes.push(format!("FAILED: {why}"));
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The catalogue this run reports: end-to-end or per-layer.
    pub fn catalogue(trace: bool) -> Vec<(String, &'static str)> {
        if trace {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        }
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`
    /// with every catalogued metric (0 where the run set none).
    pub fn json(&self, trace: bool) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in Report::catalogue(trace).iter().enumerate() {
            let v = self.get(name).unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Run `setup` at least 3 and at most 9 times, stopping once 2 s have
/// gone in total; return the last result and the median set-up time.
/// Each earlier result is dropped before the next set-up starts.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let (mut times, mut last) = (Vec::new(), None);
    while times.len() < 3 || (times.len() < 9 && times.iter().sum::<f64>() < 2.0) {
        drop(last.take());
        let t = std::time::Instant::now();
        last = Some(setup());
        times.push(measure::secs(t));
    }
    (last.expect("set up at least once"), measure::median(&times))
}

/// Run one workload under `opts`.
pub fn run(opts: &Opts) -> Report {
    let mut report = match opts.workload {
        Workload::Thm1LongPipe | Workload::Thm1ManyTrees => thm1::run(opts),
        Workload::ServeMix => serve::run(opts),
    };
    if !opts.trace {
        report.set("peak_rss_mb", measure::peak_rss_mib());
    } else {
        report.set("par.threads", congest_par::num_threads() as f64);
    }
    report
}
