//! The Theorem 1 workloads: `partition_broadcast_retrying` on one graph,
//! cycling through a fixed, seed-derived set of broadcast instances.
//!
//! The traced run re-composes the driver's six phases from the public
//! protocols on a [`PhaseHost`], each protocol wrapped in [`Counted`], and
//! checks that the re-composition reproduces the library's [`PhaseLog`]
//! (stats and state hash per phase) exactly.

use crate::measure::{cpu_ns, median, secs, tail};
use crate::trace::Tracer;
use crate::{repeated_setup, Opts, Report, Workload, PHASES};
use fast_broadcast::core::bfs::{BfsProtocol, SubgraphBfs};
use fast_broadcast::core::broadcast::{
    partition_broadcast_retrying, BroadcastConfig, BroadcastError, ParallelPipeline,
    DEFAULT_PARTITION_C,
};
use fast_broadcast::core::convergecast::{Numbering, TreeView};
use fast_broadcast::core::leader::FloodMax;
use fast_broadcast::core::lower_bounds::{combined_upper_bound, optimality_ratio};
use fast_broadcast::core::partition::EdgePartitionProtocol;
use fast_broadcast::core::pipeline::{expected_checksums, PipeCore, PipeMsg};
use fast_broadcast::core::{BroadcastInput, PartitionParams};
use fast_broadcast::graph::algo::eccentricity;
use fast_broadcast::graph::generators::{complete, harary};
use fast_broadcast::graph::{Graph, Node};
use fast_broadcast::sim::rng::{mix64, phase_seed};
use fast_broadcast::sim::{EngineConfig, EngineError, NodeCtx, PhaseHost, PhaseLog, Protocol};
use std::time::Instant;

/// Attempts the retrying driver may spend on Theorem 2's non-spanning
/// event.
pub const ATTEMPTS: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Harary { l: usize, n: usize },
    Complete { n: usize },
}

impl Family {
    pub fn build(self) -> Graph {
        match self {
            Family::Harary { l, n } => harary(l, n),
            Family::Complete { n } => complete(n),
        }
    }

    /// Edge connectivity by construction: `harary(L, N)` is
    /// `L`-edge-connected and `K_N` is `(N − 1)`-edge-connected.
    pub fn lambda(self) -> usize {
        match self {
            Family::Harary { l, .. } => l,
            Family::Complete { n } => n - 1,
        }
    }
}

/// A Theorem 1 workload: graph, message count, and how many distinct
/// broadcast instances one pass holds.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub family: Family,
    pub k: usize,
    pub instances: usize,
}

pub fn shape(w: Workload, tiny: bool) -> Shape {
    match (w, tiny) {
        (Workload::Thm1LongPipe, false) => Shape {
            family: Family::Harary { l: 64, n: 2048 },
            k: 8192,
            instances: 4,
        },
        (Workload::Thm1LongPipe, true) => Shape {
            family: Family::Harary { l: 32, n: 128 },
            k: 512,
            instances: 2,
        },
        (Workload::Thm1ManyTrees, false) => Shape {
            family: Family::Complete { n: 512 },
            k: 128,
            instances: 32,
        },
        (Workload::Thm1ManyTrees, true) => Shape {
            family: Family::Complete { n: 64 },
            k: 16,
            instances: 4,
        },
        (Workload::ServeMix, _) => unreachable!("serve_mix is not a Theorem 1 workload"),
    }
}

/// One broadcast: where the messages start and the driver's seed.
pub struct Instance {
    pub input: BroadcastInput,
    pub cfg: BroadcastConfig,
}

/// The graph and the seed-derived instances of one workload run.
pub struct Setup {
    pub g: Graph,
    pub lambda: usize,
    pub params: PartitionParams,
    pub inst: Vec<Instance>,
    pub build_s: f64,
}

impl Setup {
    /// Build the graph and the inputs, then run instance 0 once untimed.
    pub fn new(shape: Shape, seed: u64) -> Setup {
        let t = Instant::now();
        let g = shape.family.build();
        let build_s = secs(t);
        let lambda = shape.family.lambda();
        let params = PartitionParams::from_lambda(g.n(), lambda, DEFAULT_PARTITION_C);
        let inst = (0..shape.instances as u64)
            .map(|i| {
                let h = mix64(seed ^ mix64(i));
                Instance {
                    input: BroadcastInput::random_spread(&g, shape.k, h),
                    cfg: BroadcastConfig::with_seed(mix64(h ^ 0xB10C)),
                }
            })
            .collect();
        let setup = Setup {
            g,
            lambda,
            params,
            inst,
            build_s,
        };
        std::hint::black_box(setup.broadcast(0).ok());
        setup
    }

    /// Run instance `i` through the library; `Ok((phase log, attempts))`
    /// when every node received every message.
    pub fn broadcast(&self, i: usize) -> Result<(PhaseLog, usize), String> {
        let x = &self.inst[i];
        match partition_broadcast_retrying(&self.g, &x.input, self.params, &x.cfg, ATTEMPTS) {
            Ok((out, attempts)) if out.all_delivered() => Ok((out.phases, attempts)),
            Ok(_) => Err(format!("instance {i}: a node missed a message")),
            Err(e) => Err(format!("instance {i}: {e}")),
        }
    }
}

pub fn run(opts: &Opts) -> Report {
    let shape = shape(opts.workload, opts.tiny);
    if opts.trace {
        run_traced(opts, shape)
    } else {
        run_untraced(opts, shape)
    }
}

fn run_untraced(opts: &Opts, shape: Shape) -> Report {
    let mut r = Report::default();
    let (s, setup_s) = repeated_setup(|| Setup::new(shape, opts.seed));
    r.set("setup_s", setup_s);

    let m = s.inst.len();
    let mut rounds: Vec<Option<u64>> = vec![None; m];
    let (mut wall_ms, mut cpu_ms) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while r.attempted < m as u64 || secs(t0) < opts.seconds {
        let i = r.attempted as usize % m;
        let (t, c) = (Instant::now(), cpu_ns());
        let res = s.broadcast(i);
        wall_ms.push(secs(t) * 1e3);
        cpu_ms.push(cpu_ns().saturating_sub(c) as f64 * 1e-6);
        r.attempted += 1;
        match res {
            Ok((log, _)) => {
                let total = log.total_rounds();
                match rounds[i] {
                    Some(prev) if prev != total => {
                        r.fail(format!("instance {i}: {total} rounds, earlier {prev}"))
                    }
                    _ => rounds[i] = Some(total),
                }
            }
            Err(e) => r.fail(e),
        }
    }
    let elapsed = secs(t0);
    let (tail_ms, pct) = tail(&wall_ms);
    r.set("latency_p50_ms", median(&wall_ms));
    r.set("cpu_per_unit_ms", median(&cpu_ms));
    r.set("throughput_per_s", r.attempted as f64 / elapsed);
    r.set("sim_rounds", rounds.iter().flatten().sum::<u64>() as f64);
    r.notes.push(format!(
        "{} broadcasts of k={} on n={} (λ={}, λ′={}); latency p{pct:.1} = {tail_ms:.3} ms",
        r.attempted,
        shape.k,
        s.g.n(),
        s.lambda,
        s.params.num_subgraphs
    ));
    r
}

/// Per-phase totals over the traced pass.
#[derive(Debug, Default, Clone, Copy)]
struct PhaseAcc {
    s: f64,
    rounds: u64,
    messages: u64,
    calls: u64,
    protocol_ns: u64,
}

fn run_traced(opts: &Opts, shape: Shape) -> Report {
    let mut r = Report::default();
    let mut tr = Tracer::default();
    let sp = tr.begin("setup", None);
    let s = Setup::new(shape, opts.seed);
    tr.end(sp);
    r.set("graph.build_s", s.build_s);
    let m = s.inst.len();

    // The same instances untraced through the library, then replayed.
    let t = Instant::now();
    let lib: Vec<_> = (0..m).map(|i| s.broadcast(i)).collect();
    let untraced_s = secs(t);

    let mut acc = [PhaseAcc::default(); 6];
    let (mut glue_s, mut attempts, mut round_ratio, mut opt_ratio) = (0.0, 0, 0.0, 0.0);
    let n = s.g.n() as u64;
    let d = eccentricity(&s.g, 0).expect("connected") as u64;
    let t = Instant::now();
    for (i, lib) in lib.into_iter().enumerate() {
        r.attempted += 1;
        let b = tr.begin("core.broadcast", None);
        let replayed = replay(&s, i, &mut tr, b, &mut acc);
        let b_s = tr.end(b);
        let phases_s: f64 = tr.spans[b..]
            .iter()
            .filter(|sp| PHASES.iter().any(|p| p.0 == sp.name))
            .map(|sp| sp.secs())
            .sum();
        glue_s += b_s - phases_s;
        match (lib, replayed) {
            (Ok((lib_log, lib_att)), Ok((log, att))) => {
                if let Some(why) = log_mismatch(&lib_log, &log, lib_att, att) {
                    r.fail(format!(
                        "instance {i}: replay differs from the library: {why}"
                    ));
                }
                attempts += att;
                let k = s.inst[i].input.k() as u64;
                let rounds = log.total_rounds();
                let lambda = s.lambda as u64;
                let delta = s.g.min_degree() as u64;
                round_ratio += rounds as f64 / combined_upper_bound(n, k, d, delta, lambda);
                opt_ratio += optimality_ratio(rounds, k, lambda);
            }
            (Err(e), _) | (_, Err(e)) => r.fail(e),
        }
    }
    let traced_s = secs(t);

    let per = 1.0 / m as f64;
    let threads = congest_par::num_threads() as f64;
    for ((key, _), a) in PHASES.iter().zip(acc) {
        let protocol_cpu_s = a.protocol_ns as f64 * 1e-9 * per;
        r.set(&format!("{key}.s"), a.s * per);
        r.set(&format!("{key}.rounds"), a.rounds as f64 * per);
        r.set(&format!("{key}.messages"), a.messages as f64 * per);
        r.set(&format!("{key}.round_calls"), a.calls as f64 * per);
        r.set(&format!("{key}.protocol_cpu_s"), protocol_cpu_s);
        r.set(
            &format!("{key}.engine_s"),
            a.s * per - protocol_cpu_s / threads,
        );
    }
    r.set("core.glue_s", glue_s * per);
    r.set("core.broadcast.attempts", attempts as f64 * per);
    r.set("core.broadcast.round_ratio", round_ratio * per);
    r.set("core.broadcast.optimality_ratio", opt_ratio * per);
    r.set("trace.overhead", traced_s / untraced_s);
    r.notes.push(format!(
        "per-phase figures are means over {m} broadcasts; .engine_s is derived as .s − .protocol_cpu_s / par.threads"
    ));
    r.spans = Some(tr);
    r
}

/// Why two phase logs differ, if they do.
fn log_mismatch(lib: &PhaseLog, got: &PhaseLog, lib_att: usize, att: usize) -> Option<String> {
    if lib_att != att {
        return Some(format!("{att} attempts, library {lib_att}"));
    }
    if lib.len() != got.len() {
        return Some(format!("{} phases, library {}", got.len(), lib.len()));
    }
    let stats = lib.phases().zip(got.phases());
    let hashes = lib.hashes().zip(got.hashes());
    for (((ln, ls), (gn, gs)), ((_, lh), (_, gh))) in stats.zip(hashes) {
        if ln != gn || ls != gs || lh != gh {
            return Some(format!(
                "phase {ln}: {gs:?} {gh:?} vs library {ls:?} {lh:?}"
            ));
        }
    }
    None
}

/// A protocol that delegates to `inner` and counts and times its
/// `round` calls.
pub struct Counted<P> {
    inner: P,
    calls: u64,
    ns: u64,
}

impl<P: Protocol> Protocol for Counted<P> {
    type Msg = P::Msg;
    type Output = (P::Output, u64, u64);
    const QUIESCENT: bool = P::QUIESCENT;

    fn round(&mut self, ctx: &mut NodeCtx<'_, P::Msg>) {
        let t = Instant::now();
        self.inner.round(ctx);
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
    }

    fn finish(self) -> Self::Output {
        (self.inner.finish(), self.calls, self.ns)
    }
}

/// The library's `partition_broadcast_retrying` for instance `i`,
/// re-composed from the public protocols with a span per phase. Returns
/// the phase log of the successful attempt and the attempt count.
fn replay(
    s: &Setup,
    i: usize,
    tr: &mut Tracer,
    parent: usize,
    acc: &mut [PhaseAcc; 6],
) -> Result<(PhaseLog, usize), String> {
    let x = &s.inst[i];
    let mut host = PhaseHost::new(&s.g, x.cfg.phase_resident);
    for attempt in 0..ATTEMPTS {
        let mut cfg = x.cfg.clone();
        cfg.seed = x.cfg.seed.wrapping_add(attempt as u64 * 0x9E37_79B9);
        let mut ph = Phases {
            host: &mut host,
            tr: &mut *tr,
            parent,
            acc: &mut *acc,
            log: PhaseLog::new(),
            cfg: &cfg,
        };
        match ph.compose(&x.input, s.params) {
            Ok(true) => return Ok((ph.log, attempt + 1)),
            Ok(false) => return Err(format!("instance {i}: a node missed a message")),
            Err(BroadcastError::NotSpanning { .. }) => continue,
            Err(e) => return Err(format!("instance {i}: {e}")),
        }
    }
    Err(format!("instance {i}: no partition spanned"))
}

/// One attempt's phase runner: times each `PhaseHost::run` and logs it as
/// the library does.
struct Phases<'a, 'g> {
    host: &'a mut PhaseHost<'g>,
    tr: &'a mut Tracer,
    parent: usize,
    acc: &'a mut [PhaseAcc; 6],
    log: PhaseLog,
    cfg: &'a BroadcastConfig,
}

impl Phases<'_, '_> {
    /// Run phase `idx` (1-based, as the library seeds it) and return its
    /// per-node outputs.
    fn run<P: Protocol>(
        &mut self,
        idx: usize,
        mut factory: impl FnMut(Node, &Graph) -> P,
    ) -> Result<Vec<P::Output>, EngineError> {
        let (key, lib_name) = PHASES[idx - 1];
        let config = EngineConfig::with_seed(phase_seed(self.cfg.seed, idx as u64))
            .max_rounds(self.cfg.max_rounds);
        let span = self.tr.begin(key, Some(self.parent));
        let wrapped = |v: Node, g: &Graph| Counted {
            inner: factory(v, g),
            calls: 0,
            ns: 0,
        };
        let run = self.host.run(wrapped, config);
        let a = &mut self.acc[idx - 1];
        a.s += self.tr.end(span);
        let out = run?;
        let stats = out.stats;
        let rows = out.take_outputs();
        self.log
            .record_hashed(lib_name, stats, self.host.state_hash());
        a.rounds += stats.rounds;
        a.messages += stats.total_messages;
        Ok(rows
            .into_iter()
            .map(|(o, calls, ns)| {
                a.calls += calls;
                a.protocol_ns += ns;
                o
            })
            .collect())
    }

    /// The six phases of `partition_broadcast_hosted`. `Ok(true)` when
    /// every node received every message.
    fn compose(
        &mut self,
        input: &BroadcastInput,
        params: PartitionParams,
    ) -> Result<bool, BroadcastError> {
        let g = self.host.graph();
        let n = g.n();
        let k = input.k() as u64;
        let lp = params.num_subgraphs;
        let seed = self.cfg.seed;

        let root = self.run(1, |v, _| FloodMax::new(v))?[0].leader;
        let views: Vec<TreeView> = self
            .run(2, |v, _| BfsProtocol::new(root, v))?
            .iter()
            .map(TreeView::from_bfs)
            .collect();
        let payloads = input.payloads_by_node(n);
        let numbering = self.run(3, |v, _| {
            Numbering::new(views[v as usize].clone(), payloads[v as usize].len() as u64)
        })?;
        let ids_by_node: Vec<Vec<u32>> = (0..n)
            .map(|v| {
                let (start, _) = numbering[v];
                (0..payloads[v].len() as u64)
                    .map(|j| (start + j) as u32)
                    .collect()
            })
            .collect();
        let port_colors = self.run(4, |v, gr| {
            EdgePartitionProtocol::new(v, seed, lp, gr.degree(v))
        })?;
        let sub_bfs = self.run(5, |v, _| {
            SubgraphBfs::new(root, v, port_colors[v as usize].clone(), lp)
        })?;
        for c in 0..lp {
            let unreached = sub_bfs.iter().filter(|infos| !infos[c].reached).count();
            if unreached > 0 {
                return Err(BroadcastError::NotSpanning {
                    subgraph: c as u32,
                    unreached,
                });
            }
        }
        let cap = k.max(1).div_ceil(lp as u64);
        let color_of_id = |id: u32| ((id as u64 / cap).min(lp as u64 - 1)) as usize;
        let mut k_per_class = vec![0u64; lp];
        for &id in ids_by_node.iter().flatten() {
            k_per_class[color_of_id(id)] += 1;
        }
        let record = self.cfg.record_payloads;
        let per_node = self.run(6, |v, _| {
            let vi = v as usize;
            let cores = (0..lp)
                .map(|c| {
                    let own: Vec<PipeMsg> = ids_by_node[vi]
                        .iter()
                        .zip(payloads[vi].iter())
                        .filter(|(&id, _)| color_of_id(id) == c)
                        .map(|(&id, &payload)| PipeMsg { id, payload })
                        .collect();
                    PipeCore::new(
                        TreeView::from_bfs(&sub_bfs[vi][c]),
                        k_per_class[c],
                        own,
                        record,
                    )
                })
                .collect();
            ParallelPipeline::new(cores)
        })?;
        let all: Vec<(u32, u64)> = (0..n)
            .flat_map(|v| {
                ids_by_node[v]
                    .iter()
                    .copied()
                    .zip(payloads[v].iter().copied())
            })
            .collect();
        let expected = expected_checksums(all.iter());
        Ok(per_node
            .iter()
            .all(|r| r.delivered == k && (r.xor_check, r.sum_check) == expected))
    }
}
