//! The `serve_mix` workload: a multi-tenant job stream submitted through
//! a `PoolServer`'s bounded queue on two registered graphs.
//!
//! Job `i` of the stream runs flood-max, rumor or gossip by `i mod 3`,
//! belongs to tenant `i mod 4`, and carries a 2-edge `FaultPlan` when `i`
//! is odd; the workload seed picks job seeds, rumor sources and fault
//! schedules. Every output is checked
//! against `run_job_isolated`, whose results are computed before the timed
//! loop; the comparisons are kept off the clock.

use crate::measure::{cpu_ns, median, secs, tail};
use crate::trace::Tracer;
use crate::{repeated_setup, Opts, Report};
use fast_broadcast::graph::generators::{harary, torus2d};
use fast_broadcast::graph::{Graph, Node};
use fast_broadcast::sim::fault::FaultPlan;
use fast_broadcast::sim::rng::mix64;
use fast_broadcast::sim::{
    run_job_isolated, EngineConfig, EngineError, GraphKey, Job, JobSpec, JobStatus, PoolServer,
    RunStats, TenantMeter,
};
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// `harary(L, N)`.
    pub harary: (usize, usize),
    /// `torus2d(rows, cols)`.
    pub torus: (usize, usize),
    /// Distinct jobs in the stream; a multiple of `capacity`.
    pub jobs: usize,
    /// Bounded queue capacity.
    pub capacity: usize,
}

/// Stream prefix drained once during set-up to warm the pool: every
/// (family, graph, faulted) combination once.
const WARMUP_JOBS: usize = 12;

pub fn shape(tiny: bool) -> Shape {
    if tiny {
        Shape {
            harary: (6, 64),
            torus: (8, 8),
            jobs: 96,
            capacity: 16,
        }
    } else {
        Shape {
            harary: (6, 1024),
            torus: (32, 32),
            jobs: 2048,
            capacity: 512,
        }
    }
}

/// Job `i` of the stream for `seed`. The mix is fixed by `i`: every 12
/// consecutive jobs hold each (family, graph, faulted) combination once,
/// and gossip lengths cycle through 4..=8 rounds. The seed picks each
/// job's RNG seed, rumor source and fault schedule.
fn job(i: usize, seed: u64, keys: [GraphKey; 2], n: [usize; 2]) -> Job {
    let h = mix64(seed ^ mix64(i as u64));
    let gi = i / 6 % 2;
    let protocol = match i % 3 {
        0 => JobSpec::FloodMax,
        1 => JobSpec::Rumor {
            source: (h % n[gi] as u64) as Node,
        },
        _ => JobSpec::Gossip {
            rounds: 4 + (i / 12 % 5) as u64,
        },
    };
    Job {
        graph: keys[gi],
        protocol,
        seed: mix64(h ^ 0x5EED),
        faults: (i % 2 == 1).then(|| FaultPlan::new(2, mix64(h ^ 0xFA))),
        tenant: (i % 4) as u32,
    }
}

/// The job stream and a warmed server with both graphs registered.
pub struct Setup {
    pub stream: Vec<Job>,
    pub server: PoolServer,
    pub build_s: f64,
}

impl Setup {
    pub fn new(shape: Shape, seed: u64) -> Setup {
        let t = Instant::now();
        let graphs = [
            harary(shape.harary.0, shape.harary.1),
            torus2d(shape.torus.0, shape.torus.1),
        ];
        let build_s = secs(t);
        let mut server = PoolServer::new(EngineConfig::default(), shape.capacity);
        let n = graphs.each_ref().map(Graph::n);
        let keys = graphs.map(|g| server.register_graph(g));
        let stream: Vec<Job> = (0..shape.jobs).map(|i| job(i, seed, keys, n)).collect();
        let mut warm = Vec::new();
        for j in &stream[..WARMUP_JOBS.min(shape.jobs)] {
            server
                .submit(j.clone(), &mut warm)
                .expect("registered graph");
        }
        server.drain(&mut warm);
        Setup {
            stream,
            server,
            build_s,
        }
    }

    /// Every stream job run alone on a fresh session — the oracle.
    fn isolated(&self) -> Vec<Result<(Vec<u64>, RunStats), EngineError>> {
        let config = EngineConfig::default();
        self.stream
            .iter()
            .map(|j| {
                run_job_isolated(
                    self.server.pool().graph(j.graph),
                    &j.protocol,
                    j.seed,
                    j.faults,
                    &config,
                )
            })
            .collect()
    }
}

type Oracle = [Result<(Vec<u64>, RunStats), EngineError>];

/// What one pass over the queue observed.
#[derive(Default)]
struct Pass {
    /// Per completed job: submit → return of the call that produced it.
    latency_ms: Vec<f64>,
    /// Per completed job: submit → start of the call whose drain ran it.
    wait_ms: Vec<f64>,
    /// Per completed job: its `i mod 3` family.
    family: Vec<usize>,
    drains: usize,
    /// Wall and CPU time of the loop, output checks excluded.
    wall_s: f64,
    cpu_s: f64,
}

/// Submit stream jobs in order, cycling, until at least one whole stream
/// has gone in and `seconds` have passed, stopping on a queue-full
/// boundary so every drain runs `capacity` jobs; then drain the rest.
/// Each output is checked against `oracle` as it arrives, off the clock.
/// With a tracer, every call that drains gets a `sim.pool.drain` span.
fn drive(
    s: &mut Setup,
    seconds: f64,
    mut tr: Option<&mut Tracer>,
    oracle: &Oracle,
    r: &mut Report,
) -> Pass {
    let cap = s.server.capacity();
    let n_jobs = s.stream.len();
    let mut p = Pass::default();
    let mut submitted_at: Vec<Instant> = Vec::new();
    let mut base = None;
    let mut done = Vec::new();
    let mut checking = std::time::Duration::ZERO;
    let pass_span = tr.as_mut().map(|t| t.begin("sim.pool.pass", None));
    let (t0, c0) = (Instant::now(), cpu_ns());
    loop {
        let i = submitted_at.len();
        let last = i >= n_jobs && i.is_multiple_of(cap) && secs(t0) >= seconds;
        let drains = last || s.server.queued() >= cap;
        let span = match (&mut tr, drains) {
            (Some(t), true) => Some(t.begin("sim.pool.drain", pass_span)),
            _ => None,
        };
        let call = Instant::now();
        if last {
            s.server.drain(&mut done);
        } else {
            submitted_at.push(call);
            let id = s.server.submit(s.stream[i % n_jobs].clone(), &mut done);
            base.get_or_insert(id.expect("registered graph").index());
        }
        let end = Instant::now();
        if let (Some(t), Some(id)) = (&mut tr, span) {
            t.end(id);
        }
        p.drains += drains as usize;
        for o in done.drain(..) {
            let k = (o.id.index() - base.expect("a job was submitted")) as usize;
            let at = submitted_at[k];
            p.latency_ms.push((end - at).as_secs_f64() * 1e3);
            p.wait_ms
                .push(call.saturating_duration_since(at).as_secs_f64() * 1e3);
            p.family.push(k % n_jobs % 3);
            let c = Instant::now();
            let ok = match &oracle[k % n_jobs] {
                Ok((outputs, stats)) => {
                    o.status == JobStatus::Done && &o.outputs == outputs && &o.stats == stats
                }
                Err(_) => false,
            };
            if !ok {
                r.fail(format!(
                    "stream job {} differs from its isolated run",
                    k % n_jobs
                ));
            }
            checking += c.elapsed();
        }
        if last {
            break;
        }
    }
    p.wall_s = (t0.elapsed() - checking).as_secs_f64();
    p.cpu_s = cpu_ns().saturating_sub(c0) as f64 * 1e-9 - checking.as_secs_f64();
    if let (Some(t), Some(id)) = (&mut tr, pass_span) {
        t.end(id);
    }
    r.attempted += submitted_at.len() as u64;
    if p.latency_ms.len() != submitted_at.len() {
        r.fail(format!(
            "{} outputs for {} submitted jobs",
            p.latency_ms.len(),
            submitted_at.len()
        ));
    }
    p
}

pub fn run(opts: &Opts) -> Report {
    let shape = shape(opts.tiny);
    if opts.trace {
        run_traced(opts, shape)
    } else {
        run_untraced(opts, shape)
    }
}

fn run_untraced(opts: &Opts, shape: Shape) -> Report {
    let mut r = Report::default();
    let (mut s, setup_s) = repeated_setup(|| Setup::new(shape, opts.seed));
    r.set("setup_s", setup_s);
    let oracle = s.isolated();

    let p = drive(&mut s, opts.seconds, None, &oracle, &mut r);
    let jobs = p.latency_ms.len().max(1) as f64;
    let (tail_ms, pct) = tail(&p.latency_ms);
    r.set("latency_p50_ms", median(&p.latency_ms));
    r.set("cpu_per_unit_ms", p.cpu_s * 1e3 / jobs);
    r.set("throughput_per_s", jobs / p.wall_s);
    let rounds: u64 = oracle.iter().flatten().map(|(_, st)| st.rounds).sum();
    r.set("sim_rounds", rounds as f64);
    r.notes.push(format!(
        "{} jobs in {} drains of up to {} (stream of {}); latency p{pct:.1} = {tail_ms:.3} ms",
        p.latency_ms.len(),
        p.drains,
        shape.capacity,
        shape.jobs
    ));
    r
}

fn run_traced(opts: &Opts, shape: Shape) -> Report {
    let mut r = Report::default();
    let mut tr = Tracer::default();

    // One untraced pass for the overhead baseline, on its own server.
    let mut base = Setup::new(shape, opts.seed);
    let sp = tr.begin("sim.session.isolated", None);
    let oracle = base.isolated();
    let isolated_s = tr.end(sp);
    let untraced = drive(&mut base, 0.0, None, &oracle, &mut r);
    drop(base);

    let sp = tr.begin("setup", None);
    let mut s = Setup::new(shape, opts.seed);
    tr.end(sp);
    r.set("graph.build_s", s.build_s);
    let p = drive(&mut s, 0.0, Some(&mut tr), &oracle, &mut r);
    r.set("trace.overhead", p.wall_s / untraced.wall_s);

    let drain_s = tr.total("sim.pool.drain");
    let pool = s.server.pool();
    r.set("sim.pool.drain_s", drain_s);
    r.set("sim.pool.drains", p.drains as f64);
    r.set("sim.pool.hits", pool.hits() as f64);
    r.set("sim.pool.misses", pool.misses() as f64);
    r.set("sim.pool.warm_bytes", pool.warm_bytes_total() as f64);
    r.set("sim.pool.batched_jobs", s.server.batched_jobs() as f64);
    r.set("sim.pool.solo_jobs", s.server.solo_jobs() as f64);
    r.set("sim.wide.refilled_jobs", s.server.refilled_jobs() as f64);
    r.set("sim.pool.queue_wait_p50_ms", median(&p.wait_ms));
    for (f, name) in ["flood", "rumor", "gossip"].iter().enumerate() {
        let lat: Vec<f64> = (p.latency_ms.iter().zip(&p.family))
            .filter(|&(_, &fam)| fam == f)
            .map(|(&l, _)| l)
            .collect();
        r.set(&format!("sim.pool.{name}_latency_p50_ms"), median(&lat));
    }
    let meters = s.server.meters();
    let sum = |f: fn(&TenantMeter) -> u64| -> f64 {
        meters.iter().map(|(_, m)| f(m)).sum::<u64>() as f64
    };
    r.set("sim.pool.rounds", sum(|m| m.rounds));
    r.set("sim.pool.messages", sum(|m| m.messages));
    r.set("sim.pool.dropped", sum(|m| m.dropped));
    r.set("sim.session.isolated_s", isolated_s);
    r.set("sim.pool.batch_gain", isolated_s / drain_s);
    r.notes.push(format!(
        "{} jobs in {} drains; pool counters cover the server's life (set-up warm-up of {} jobs included)",
        p.latency_ms.len(),
        p.drains,
        WARMUP_JOBS
    ));
    r.spans = Some(tr);
    r
}
