//! Engine-throughput bench. Both engine comparisons race the live engine
//! against the seed-style `Vec<Option<Msg>>` engine
//! ([`congest_sim::baseline`]), the simulator's one reference model:
//!
//! 1. **Packed plane vs. baseline, whole runs** — serial and parallel
//!    packed engine vs the baseline on 256–1024-node high-degree graphs.
//! 2. **Sharded plane vs. baseline, per round** — the shard-owned
//!    deliver/metering plane (bit-sliced congestion counters, sparse
//!    worklist fast path) at `n = 10^6` across 1/2/4/8 shards on dense
//!    and sparse traffic, against the serial baseline. The gated metrics
//!    are the dense and sparse geomean speedups at 4 shards.
//!
//! The remaining sections race the live stack against its own simpler
//! compositions: session hosting vs per-phase engines, incremental churn
//! repair vs rebuilds, wide lane batching vs sequential runs, continuous
//! batching vs chunked runs, and the pool's batching drain vs one session
//! per job.
//!
//! Each workload implements the live trait plus [`BaselineProtocol`]
//! with identical logic, so measured differences are pure engine. Every
//! arm is cross-checked bit-identical before it is timed. Results are
//! printed as criterion-style lines and exported to `BENCH_sim.json` at
//! the workspace root so later changes have a perf trajectory to compare
//! against.
//!
//! **Smoke mode** (`SIM_BENCH_SMOKE=1`): shrinks every dimension so CI can
//! execute the whole bench in seconds. Smoke runs keep all cross-checks
//! (panicking on any engine disagreement), print `REGRESSION-MARKER` if
//! any gated ratio falls below its smoke bar, and do **not** rewrite
//! `BENCH_sim.json`.

use congest_graph::generators::{complete, harary};
use congest_graph::Graph;
use congest_sim::baseline::{run_baseline, BaselineCtx, BaselineProtocol};
use congest_sim::{run_protocol, EngineConfig, NodeCtx, PhaseHost, Protocol};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::fmt::Write as _;
use std::time::Instant;

const ROUNDS: u64 = 200;

/// Shard-scaling gates: dense and sparse geomean speedup over the
/// baseline engine at 4 shards, full size and smoke size. Each bar is the
/// former bar against the retired frozen round loop times that loop's
/// measured speedup over the baseline at the same size, so no gate got
/// looser; CHANGES.md logs the derivation.
const DENSE_BAR: f64 = 4.4;
const DENSE_BAR_SMOKE: f64 = 1.5;
const SPARSE_BAR: f64 = 5.2;
const SPARSE_BAR_SMOKE: f64 = 4.3;

fn smoke() -> bool {
    std::env::var("SIM_BENCH_SMOKE").is_ok_and(|v| v != "0")
}

/// Dense traffic: every node sends a 64-bit counter on every port, every
/// round — the worst case for both planes (all arcs occupied).
#[derive(Clone)]
struct DenseChatter {
    acc: u64,
    until: u64,
}

impl DenseChatter {
    fn new(until: u64) -> Self {
        DenseChatter { acc: 1, until }
    }

    fn step(&mut self, round: u64, inbox_sum: u64) -> Option<u64> {
        self.acc = self.acc.wrapping_add(inbox_sum);
        (round < self.until).then_some(self.acc.wrapping_add(round))
    }
}

impl Protocol for DenseChatter {
    type Msg = u64;
    type Output = u64;
    fn round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
        let sum = ctx.inbox().map(|(_, m)| m).fold(0u64, u64::wrapping_add);
        match self.step(ctx.round, sum) {
            Some(m) => ctx.send_all(m),
            None => ctx.set_done(true),
        }
    }
    fn finish(self) -> u64 {
        self.acc
    }
}

impl BaselineProtocol for DenseChatter {
    type Msg = u64;
    type Output = u64;
    fn round(&mut self, ctx: &mut BaselineCtx<'_, u64>) {
        let sum = ctx.inbox().map(|(_, &m)| m).fold(0u64, u64::wrapping_add);
        match self.step(ctx.round, sum) {
            Some(m) => ctx.send_all(m),
            None => ctx.set_done(true),
        }
    }
    fn finish(self) -> u64 {
        self.acc
    }
}

/// Sparse traffic: ~1/16 of the nodes speak each round — the regime the
/// occupancy bitset is built for (quiescent arcs cost one bit, not an
/// `Option` clear + scan).
#[derive(Clone)]
struct SparseChatter {
    node: u32,
    acc: u64,
    until: u64,
}

impl SparseChatter {
    fn new(node: u32, until: u64) -> Self {
        SparseChatter {
            node,
            acc: 1,
            until,
        }
    }

    fn speaks(&self, round: u64) -> bool {
        (self.node as u64).wrapping_add(round).is_multiple_of(16)
    }
}

impl Protocol for SparseChatter {
    type Msg = u64;
    type Output = u64;
    fn round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
        self.acc = self
            .acc
            .wrapping_add(ctx.inbox().map(|(_, m)| m).fold(0u64, u64::wrapping_add));
        if ctx.round < self.until {
            if self.speaks(ctx.round) {
                ctx.send_all(self.acc | 1);
            }
        } else {
            ctx.set_done(true);
        }
    }
    fn finish(self) -> u64 {
        self.acc
    }
}

impl BaselineProtocol for SparseChatter {
    type Msg = u64;
    type Output = u64;
    fn round(&mut self, ctx: &mut BaselineCtx<'_, u64>) {
        self.acc = self
            .acc
            .wrapping_add(ctx.inbox().map(|(_, &m)| m).fold(0u64, u64::wrapping_add));
        if ctx.round < self.until {
            if self.speaks(ctx.round) {
                ctx.send_all(self.acc | 1);
            }
        } else {
            ctx.set_done(true);
        }
    }
    fn finish(self) -> u64 {
        self.acc
    }
}

/// Truly sparse **per-port** traffic: ~1/128 of the nodes speak each
/// round, each on two rotating ports — the regime the engine's worklist
/// fast path owns (staged totals far below the sparse threshold, so the
/// deliver phase is O(traffic) instead of O(arcs)).
#[derive(Clone)]
struct SparsePorts {
    node: u32,
    acc: u64,
    until: u64,
}

impl SparsePorts {
    fn new(node: u32, until: u64) -> Self {
        SparsePorts {
            node,
            acc: 1,
            until,
        }
    }

    fn speaks(&self, round: u64) -> bool {
        (self.node as u64).wrapping_add(round).is_multiple_of(128)
    }

    fn ports(&self, round: u64, deg: usize) -> (u32, u32) {
        let p1 = (round % deg as u64) as u32;
        let p2 = ((round + deg as u64 / 2) % deg as u64) as u32;
        (p1, p2)
    }
}

impl Protocol for SparsePorts {
    type Msg = u64;
    type Output = u64;
    fn round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
        self.acc = self
            .acc
            .wrapping_add(ctx.inbox().map(|(_, m)| m).fold(0u64, u64::wrapping_add));
        if ctx.round < self.until {
            if self.speaks(ctx.round) {
                let (p1, p2) = self.ports(ctx.round, ctx.degree());
                ctx.send(p1, self.acc | 1);
                if p2 != p1 {
                    ctx.send(p2, self.acc | 3);
                }
            }
        } else {
            ctx.set_done(true);
        }
    }
    fn finish(self) -> u64 {
        self.acc
    }
}

impl BaselineProtocol for SparsePorts {
    type Msg = u64;
    type Output = u64;
    fn round(&mut self, ctx: &mut BaselineCtx<'_, u64>) {
        self.acc = self
            .acc
            .wrapping_add(ctx.inbox().map(|(_, &m)| m).fold(0u64, u64::wrapping_add));
        if ctx.round < self.until {
            if self.speaks(ctx.round) {
                let (p1, p2) = self.ports(ctx.round, ctx.degree());
                ctx.send(p1, self.acc | 1);
                if p2 != p1 {
                    ctx.send(p2, self.acc | 3);
                }
            }
        } else {
            ctx.set_done(true);
        }
    }
    fn finish(self) -> u64 {
        self.acc
    }
}

/// Dense wave traffic: every node broadcasts every round and reacts to
/// *presence* (inbox population count) rather than reading every payload —
/// the traffic shape of the paper's flooding waves and pipelined
/// broadcasts. This is the pattern the engine's broadcast plane makes
/// O(1) per sender.
#[derive(Clone)]
struct DenseWave {
    acc: u64,
    until: u64,
}

impl DenseWave {
    fn new(until: u64) -> Self {
        DenseWave { acc: 1, until }
    }

    fn step(&mut self, round: u64, inbox_len: u64) -> Option<u64> {
        self.acc = self.acc.wrapping_add(inbox_len).rotate_left(1);
        (round < self.until).then_some(self.acc | 1)
    }
}

impl Protocol for DenseWave {
    type Msg = u64;
    type Output = u64;
    fn round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
        match self.step(ctx.round, ctx.inbox_len() as u64) {
            Some(m) => ctx.send_all(m),
            None => ctx.set_done(true),
        }
    }
    fn finish(self) -> u64 {
        self.acc
    }
}

impl BaselineProtocol for DenseWave {
    type Msg = u64;
    type Output = u64;
    fn round(&mut self, ctx: &mut BaselineCtx<'_, u64>) {
        match self.step(ctx.round, ctx.inbox_len() as u64) {
            Some(m) => ctx.send_all(m),
            None => ctx.set_done(true),
        }
    }
    fn finish(self) -> u64 {
        self.acc
    }
}

/// Wide dense broadcast: the pipelined-broadcast message shape — 96-bit
/// `(id, payload)` pairs in `u128` slabs — broadcast by every node every
/// round and fully read by receivers.
#[derive(Clone)]
struct WideBcast {
    node: u32,
    acc: u64,
    until: u64,
}

impl WideBcast {
    fn new(node: u32, until: u64) -> Self {
        WideBcast {
            node,
            acc: 1,
            until,
        }
    }

    fn step(&mut self, round: u64, inbox_fold: u64) -> Option<(u32, u64)> {
        self.acc = self.acc.wrapping_add(inbox_fold);
        (round < self.until).then_some((self.node, self.acc))
    }
}

impl Protocol for WideBcast {
    type Msg = (u32, u64);
    type Output = u64;
    fn round(&mut self, ctx: &mut NodeCtx<'_, (u32, u64)>) {
        let fold = ctx
            .inbox()
            .fold(0u64, |a, (_, (id, p))| a.wrapping_add(id as u64 ^ p));
        match self.step(ctx.round, fold) {
            Some(m) => ctx.send_all(m),
            None => ctx.set_done(true),
        }
    }
    fn finish(self) -> u64 {
        self.acc
    }
}

impl BaselineProtocol for WideBcast {
    type Msg = (u32, u64);
    type Output = u64;
    fn round(&mut self, ctx: &mut BaselineCtx<'_, (u32, u64)>) {
        let fold = ctx
            .inbox()
            .fold(0u64, |a, (_, &(id, p))| a.wrapping_add(id as u64 ^ p));
        match self.step(ctx.round, fold) {
            Some(m) => ctx.send_all(m),
            None => ctx.set_done(true),
        }
    }
    fn finish(self) -> u64 {
        self.acc
    }
}

/// Wide 96-bit messages (the broadcast pipeline's `(id, payload)` shape),
/// dense — exercises the `u128` slab.
///
/// The inbox read goes through the engine's internal-iteration `fold`
/// like every other dense workload. This workload originally used an
/// external `for` loop, which was measured ~2.2× slower here: a `for`
/// loop drives `Iterator::next`'s per-item state machine, and on
/// broadcast-heavy rounds that rebuilds the presence word per word
/// advance *and* re-derives the neighbor per item — the fused
/// single-pass scan only exists on the `fold` override. That idiom gap,
/// not the `u128` slab itself, was the whole `wide_u128` deficit
/// (1.41× vs ~3× for the other dense workloads in earlier recordings).
#[derive(Clone)]
struct WideChatter {
    acc: u64,
}

impl Protocol for WideChatter {
    type Msg = (u32, u64);
    type Output = u64;
    fn round(&mut self, ctx: &mut NodeCtx<'_, (u32, u64)>) {
        self.acc = ctx.inbox().fold(self.acc, |a, (_, (id, payload))| {
            a.wrapping_add(id as u64 ^ payload)
        });
        if ctx.round < ROUNDS {
            ctx.send_all((ctx.node, self.acc));
        } else {
            ctx.set_done(true);
        }
    }
    fn finish(self) -> u64 {
        self.acc
    }
}

impl BaselineProtocol for WideChatter {
    type Msg = (u32, u64);
    type Output = u64;
    fn round(&mut self, ctx: &mut BaselineCtx<'_, (u32, u64)>) {
        let node = ctx.node;
        for (_, &(id, payload)) in ctx.inbox() {
            self.acc = self.acc.wrapping_add(id as u64 ^ payload);
        }
        if ctx.round < ROUNDS {
            ctx.send_all((node, self.acc));
        } else {
            ctx.set_done(true);
        }
    }
    fn finish(self) -> u64 {
        self.acc
    }
}

/// The broadcast algorithm's own traffic shape: wide `(id, payload)`
/// messages on a rotating ~1/8 of each node's ports — what pipelined
/// routing over λ′ edge-disjoint trees looks like on the wire.
#[derive(Clone)]
struct PipelineLike {
    node: u32,
    acc: u64,
}

impl PipelineLike {
    fn active(&self, port: u32, round: u64) -> bool {
        (self.node as u64 + port as u64 + round).is_multiple_of(8)
    }
}

impl Protocol for PipelineLike {
    type Msg = (u32, u64);
    type Output = u64;
    fn round(&mut self, ctx: &mut NodeCtx<'_, (u32, u64)>) {
        for (_, (id, payload)) in ctx.inbox() {
            self.acc = self.acc.wrapping_add(id as u64 ^ payload);
        }
        if ctx.round < ROUNDS {
            for p in 0..ctx.degree() as u32 {
                if self.active(p, ctx.round) {
                    ctx.send(p, (p, self.acc));
                }
            }
        } else {
            ctx.set_done(true);
        }
    }
    fn finish(self) -> u64 {
        self.acc
    }
}

impl BaselineProtocol for PipelineLike {
    type Msg = (u32, u64);
    type Output = u64;
    fn round(&mut self, ctx: &mut BaselineCtx<'_, (u32, u64)>) {
        for (_, &(id, payload)) in ctx.inbox() {
            self.acc = self.acc.wrapping_add(id as u64 ^ payload);
        }
        if ctx.round < ROUNDS {
            for p in 0..ctx.degree() as u32 {
                if self.active(p, ctx.round) {
                    ctx.send(p, (p, self.acc));
                }
            }
        } else {
            ctx.set_done(true);
        }
    }
    fn finish(self) -> u64 {
        self.acc
    }
}

/// Lane-salted QUIESCENT rumor flood for the wide-batch arm: lane `l`'s
/// rumor starts at a lane-dependent source and floods the circulant,
/// each node relaying once in its adoption round. Every node is `done`
/// from round 0 on, so outside the O(degree)-wide frontier a lane's
/// nodes are done-and-silent — the regime where the wide kernel's
/// active-lane word skips the node step outright, while the sequential
/// engine still pays one step call per node per round. This is the
/// "many sparse runs" shape the wide kernel exists for.
#[derive(Clone)]
struct LaneRumor {
    me: u32,
    src: u32,
    heard: bool,
    acc: u64,
}

impl LaneRumor {
    fn new(node: u32, salt: u64, n: usize) -> Self {
        let h = congest_sim::rng::mix64(0xB47C ^ salt);
        LaneRumor {
            me: node,
            src: (h % n as u64) as u32,
            heard: false,
            acc: h | 1,
        }
    }
}

impl Protocol for LaneRumor {
    type Msg = u64;
    type Output = u64;
    /// State mutates and sends happen only at round 0 (the source's
    /// announcement) or on message arrival (adoption + relay), so a
    /// done round with an empty inbox is a semantic no-op.
    const QUIESCENT: bool = true;
    fn round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
        let sum = ctx.inbox().map(|(_, m)| m).fold(0u64, u64::wrapping_add);
        self.acc = self.acc.wrapping_add(sum);
        if ctx.inbox_len() > 0 && !self.heard {
            self.heard = true;
            ctx.send_all(sum | 1);
        }
        if ctx.round == 0 && self.me == self.src && !self.heard {
            self.heard = true;
            ctx.send_all(self.acc | 1);
        }
        ctx.set_done(true);
    }
    fn finish(self) -> u64 {
        self.acc
    }
}

/// [`LaneRumor`] with a staggered tail for the wide-tail bench: the
/// rumor floods as usual, then the *source* lingers, pulsing port 0
/// every round until its lane-local round reaches `linger`. Jobs get
/// lingers of very different lengths, so a chunked wide run holds its
/// full width hostage to each chunk's slowest lane — the regime lane
/// compaction (narrowing the sweep) and mid-sweep refill (retired slots
/// keep earning) exist for.
#[derive(Clone)]
struct TailRumor {
    me: u32,
    src: u32,
    linger: u64,
    heard: bool,
    acc: u64,
}

impl TailRumor {
    fn new(node: u32, salt: u64, n: usize, linger: u64) -> Self {
        let h = congest_sim::rng::mix64(0x7A11 ^ salt);
        TailRumor {
            me: node,
            src: (h % n as u64) as u32,
            linger,
            heard: false,
            acc: h | 1,
        }
    }
}

impl Protocol for TailRumor {
    type Msg = u64;
    type Output = u64;
    /// Sends and state changes happen only at round 0, on message
    /// arrival, or at the lingering source — which stays not-done until
    /// its pulses stop — so a done round with an empty inbox is a
    /// semantic no-op.
    const QUIESCENT: bool = true;
    fn round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
        let sum = ctx.inbox().map(|(_, m)| m).fold(0u64, u64::wrapping_add);
        self.acc = self.acc.wrapping_add(sum);
        if ctx.inbox_len() > 0 && !self.heard {
            self.heard = true;
            ctx.send_all(sum | 1);
        }
        if self.me == self.src {
            if ctx.round == 0 && !self.heard {
                self.heard = true;
                ctx.send_all(self.acc | 1);
            } else if ctx.round < self.linger {
                ctx.send(0, self.acc.wrapping_add(ctx.round) | 1);
            }
            ctx.set_done(ctx.round >= self.linger);
            return;
        }
        ctx.set_done(true);
    }
    fn finish(self) -> u64 {
        self.acc
    }
}

struct Measurement {
    workload: &'static str,
    graph: &'static str,
    arcs: usize,
    packed_serial_ns: u128,
    packed_parallel_ns: u128,
    baseline_ns: u128,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.baseline_ns as f64 / self.packed_serial_ns as f64
    }
}

fn best_of<F: FnMut() -> u64>(samples: usize, mut f: F) -> u128 {
    let mut best = u128::MAX;
    let mut sink = 0u64;
    for _ in 0..samples {
        let t = Instant::now();
        sink = sink.wrapping_add(f());
        best = best.min(t.elapsed().as_nanos());
    }
    criterion::black_box(sink);
    best
}

fn measure<P>(
    name: &'static str,
    gname: &'static str,
    g: &Graph,
    make: impl Fn(u32) -> P + Copy,
) -> Measurement
where
    P: Protocol<Output = u64> + BaselineProtocol<Output = u64> + Clone,
{
    // Correctness cross-check before timing: both engines must agree.
    let base_cfg = || EngineConfig::serial().max_rounds(10 * ROUNDS);
    let packed = run_protocol(g, |v, _| make(v), EngineConfig::serial()).unwrap();
    let base = run_baseline(g, |v, _| make(v), base_cfg()).unwrap();
    assert_eq!(
        packed.outputs, base.outputs,
        "{name}/{gname} outputs differ"
    );
    assert_eq!(packed.stats, base.stats, "{name}/{gname} stats differ");

    let samples = 7;
    let packed_serial_ns = best_of(samples, || {
        run_protocol(g, |v, _| make(v), EngineConfig::serial())
            .unwrap()
            .stats
            .total_messages
    });
    let packed_parallel_ns = best_of(samples, || {
        run_protocol(g, |v, _| make(v), EngineConfig::default())
            .unwrap()
            .stats
            .total_messages
    });
    let baseline_ns = best_of(samples, || {
        run_baseline(g, |v, _| make(v), base_cfg())
            .unwrap()
            .stats
            .total_messages
    });
    Measurement {
        workload: name,
        graph: gname,
        arcs: g.num_arcs(),
        packed_serial_ns,
        packed_parallel_ns,
        baseline_ns,
    }
}

/// One workload row of the shard-scaling comparison: the seed-style
/// baseline engine (serial, `Vec<Option<Msg>>` slabs) vs. the sharded
/// engine at several shard counts. All numbers are **ns per round**,
/// measured as the delta between two run horizons so per-node setup
/// (protocol construction, slab allocation) cancels out — the metric is
/// the round loop itself.
struct ScalingRow {
    workload: &'static str,
    graph: String,
    arcs: usize,
    baseline_ns: u128,
    /// `(shards, ns per round)` per shard count, ascending.
    new_by_shards: Vec<(usize, u128)>,
}

/// One timed invocation, in ns.
fn time_once(run: &mut dyn FnMut(u64) -> u64, rounds: u64) -> u128 {
    let t = Instant::now();
    criterion::black_box(run(rounds));
    t.elapsed().as_nanos()
}

impl ScalingRow {
    fn new_ns_at(&self, shards: usize) -> u128 {
        self.new_by_shards
            .iter()
            .find(|&&(s, _)| s == shards)
            .map(|&(_, ns)| ns)
            .expect("shard count measured")
    }

    fn speedup_at(&self, shards: usize) -> f64 {
        self.baseline_ns as f64 / self.new_ns_at(shards) as f64
    }
}

fn geomean(vals: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut count) = (0.0f64, 0usize);
    for v in vals {
        sum += v.ln();
        count += 1;
    }
    (sum / count.max(1) as f64).exp()
}

/// Pool width the sharded engine gets for a given shard count: one lane
/// per shard, capped at the machine's parallelism (a 1-core runner
/// executes the sharded plane serially — same results, honest numbers).
fn pool_for(shards: usize) -> usize {
    shards.min(
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    )
}

const SHARD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Cross-check one workload before timing it: the sharded engine (4
/// shards, each listed sparse threshold) must reproduce the baseline
/// engine's outputs, stats, and per-edge congestion bit-for-bit.
fn check_vs_baseline<P>(
    name: &str,
    g: &Graph,
    make: impl Fn(u32) -> P,
    thresholds: &[Option<usize>],
) where
    P: Protocol<Output = u64> + BaselineProtocol<Output = u64>,
{
    let base = run_baseline(g, |v, _| make(v), EngineConfig::serial()).unwrap();
    for &thr in thresholds {
        let mut cfg = EngineConfig::serial().shards(4);
        cfg.sparse_threshold = thr;
        let live = run_protocol(g, |v, _| make(v), cfg).unwrap();
        assert_eq!(
            live.outputs, base.outputs,
            "{name}: sharded vs baseline (thr {thr:?})"
        );
        assert_eq!(live.stats, base.stats, "{name}: stats (thr {thr:?})");
        assert_eq!(
            live.edge_congestion, base.edge_congestion,
            "{name}: per-edge meters (thr {thr:?})"
        );
    }
}

/// Time one shard-scaling row. Sampling is **interleaved across
/// configurations**: every sample pass times the baseline arm and each
/// shard count back to back, so slow machine-level drift (DRAM
/// contention on shared hosts moves a memory-bound arm's cost several-fold
/// between minutes) hits all arms of a row equally and the reported
/// *ratios* stay meaningful.
fn scaling_row<P>(
    workload: &'static str,
    graph: &str,
    g: &Graph,
    (hi, lo): (u64, u64),
    samples: usize,
    make: impl Fn(u32, u64) -> P + Copy,
) -> ScalingRow
where
    P: Protocol<Output = u64> + BaselineProtocol<Output = u64>,
{
    let mut base = |r: u64| {
        run_baseline(g, |v, _| make(v, r), EngineConfig::serial())
            .unwrap()
            .stats
            .total_messages
    };
    let new = |shards: usize, r: u64| {
        congest_par::with_threads(pool_for(shards), || {
            run_protocol(g, |v, _| make(v, r), EngineConfig::default().shards(shards))
                .unwrap()
                .stats
                .total_messages
        })
    };
    let n_cfg = 1 + SHARD_SWEEP.len();
    let mut best_hi = vec![u128::MAX; n_cfg];
    let mut best_lo = vec![u128::MAX; n_cfg];
    for _ in 0..samples {
        for ci in 0..n_cfg {
            let (t_hi, t_lo) = if ci == 0 {
                (time_once(&mut base, hi), time_once(&mut base, lo))
            } else {
                let s = SHARD_SWEEP[ci - 1];
                let mut f = |r: u64| new(s, r);
                (time_once(&mut f, hi), time_once(&mut f, lo))
            };
            best_hi[ci] = best_hi[ci].min(t_hi);
            best_lo[ci] = best_lo[ci].min(t_lo);
        }
    }
    let per_round = |ci: usize| best_hi[ci].saturating_sub(best_lo[ci]).max(1) / (hi - lo) as u128;
    ScalingRow {
        workload,
        graph: graph.to_string(),
        arcs: g.num_arcs(),
        baseline_ns: per_round(0),
        new_by_shards: SHARD_SWEEP
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, per_round(i + 1)))
            .collect(),
    }
}

/// The shard-scaling + baseline comparison section. Cross-checks engine
/// agreement at a small scale first (panicking on any mismatch — that is
/// what CI's smoke lane guards), then times the big runs. Returns the
/// rows plus the dense and sparse geomean speedups at 4 shards.
fn bench_shard_scaling() -> (Vec<ScalingRow>, f64, f64) {
    let (n_big, rounds, samples) = if smoke() {
        (60_000usize, 16u64, 5usize)
    } else {
        (1_000_000usize, 24u64, 3usize)
    };
    let horizons = (rounds, rounds / 4);

    // --- Cross-checks at small scale. Sparse per-port traffic runs with
    // the fast path forced off and on: both must match the baseline
    // before the sparse arm's numbers count.
    {
        let g = harary(16, 1500);
        let r = 40u64;
        check_vs_baseline("dense", &g, |_| DenseChatter::new(r), &[None]);
        check_vs_baseline("wave", &g, |_| DenseWave::new(r), &[None]);
        check_vs_baseline("sparse", &g, |v| SparseChatter::new(v, r), &[None]);
        check_vs_baseline("wide", &g, |v| WideBcast::new(v, r), &[None]);
        let forced = [Some(0), Some(usize::MAX)];
        check_vs_baseline("sparse_ports", &g, |v| SparsePorts::new(v, r), &forced);
    }

    // --- Big runs.
    let gname = format!("harary16_{n_big}");
    let g = harary(16, n_big);
    let rows = vec![
        scaling_row("dense_u64", &gname, &g, horizons, samples, |_, r| {
            DenseChatter::new(r)
        }),
        scaling_row("dense_wave", &gname, &g, horizons, samples, |_, r| {
            DenseWave::new(r)
        }),
        scaling_row("dense_wide_u128", &gname, &g, horizons, samples, |v, r| {
            WideBcast::new(v, r)
        }),
        scaling_row("sparse_u64", &gname, &g, horizons, samples, |v, r| {
            SparseChatter::new(v, r)
        }),
        scaling_row("sparse_ports", &gname, &g, horizons, samples, |v, r| {
            SparsePorts::new(v, r)
        }),
    ];

    // Headline: dense-traffic geomean speedup over the baseline engine at
    // 4 shards, plus the sparse geomean over the sparse arms — the bar
    // the sparse fast path must clear on the traffic regime Theorem 12
    // spends most rounds in.
    let dense_geomean = geomean(
        rows.iter()
            .filter(|r| matches!(r.workload, "dense_u64" | "dense_wave" | "dense_wide_u128"))
            .map(|r| r.speedup_at(4)),
    );
    let sparse_geomean = geomean(
        rows.iter()
            .filter(|r| matches!(r.workload, "sparse_u64" | "sparse_ports"))
            .map(|r| r.speedup_at(4)),
    );
    (rows, dense_geomean, sparse_geomean)
}

/// One row of the phase-reuse comparison: a whole multi-phase algorithm
/// executed **session-hosted** (one resident engine for every phase) vs
/// **per-phase** (a fresh engine per phase — the pre-session
/// composition). Whole-run wall clock: the difference *is* the
/// per-phase engine churn.
struct PhaseReuseRow {
    workload: &'static str,
    graph: String,
    phases: usize,
    session_ns: u128,
    per_phase_ns: u128,
}

impl PhaseReuseRow {
    fn speedup(&self) -> f64 {
        self.per_phase_ns as f64 / self.session_ns as f64
    }
}

/// Session-hosted vs per-phase composition: the end-to-end six-phase
/// Theorem 1 broadcast, the exp-search doubling loop, and a
/// short-phase chatter composition where engine churn dominates.
fn bench_phase_reuse() -> (Vec<PhaseReuseRow>, f64) {
    use congest_core::broadcast::{partition_broadcast_with, BroadcastConfig, BroadcastInput};
    use congest_core::exp_search::exp_search_broadcast;
    use congest_core::partition::PartitionParams;

    let (n_bcast, n_search, n_chat, samples) = if smoke() {
        (2_000usize, 1_000usize, 40_000usize, 2usize)
    } else {
        (40_000usize, 12_000usize, 400_000usize, 3usize)
    };
    let mut rows = Vec::new();

    // --- Theorem 1 end to end (six phases).
    {
        let g = harary(16, n_bcast);
        let input = BroadcastInput::random_spread(&g, n_bcast / 4, 7);
        let params = PartitionParams::from_lambda(g.n(), 16, 2.0);
        let run_arm = |resident: bool| {
            let mut cfg = BroadcastConfig::with_seed(0x7E57);
            cfg.phase_resident = resident;
            partition_broadcast_with(&g, &input, params, &cfg).unwrap()
        };
        // Cross-check: both compositions must agree bit for bit.
        let a = run_arm(true);
        let b = run_arm(false);
        assert_eq!(a.stats, b.stats, "theorem1: session vs per-phase stats");
        assert_eq!(a.per_node, b.per_node, "theorem1: session vs per-phase");
        assert!(a.all_delivered());
        let (mut ses, mut per) = (u128::MAX, u128::MAX);
        for _ in 0..samples {
            let t = Instant::now();
            criterion::black_box(run_arm(true).total_rounds);
            ses = ses.min(t.elapsed().as_nanos());
            let t = Instant::now();
            criterion::black_box(run_arm(false).total_rounds);
            per = per.min(t.elapsed().as_nanos());
        }
        rows.push(PhaseReuseRow {
            workload: "theorem1_broadcast_6phase",
            graph: format!("harary16_{n_bcast}"),
            phases: 6,
            session_ns: ses,
            per_phase_ns: per,
        });
    }

    // --- Exponential search (the doubling loop re-pays partition +
    // subgraph-BFS + validity check per iteration).
    {
        let g = harary(8, n_search);
        let input = BroadcastInput::random_spread(&g, n_search / 4, 3);
        let run_arm = |resident: bool| {
            let mut cfg = BroadcastConfig::with_seed(0x5EA);
            cfg.phase_resident = resident;
            exp_search_broadcast(&g, &input, &cfg).unwrap()
        };
        let (a, ra) = run_arm(true);
        let (b, rb) = run_arm(false);
        assert_eq!(a.stats, b.stats, "exp_search: session vs per-phase");
        assert_eq!(ra, rb, "exp_search: reports diverge");
        assert!(a.all_delivered());
        let phases = a.phases.len();
        let (mut ses, mut per) = (u128::MAX, u128::MAX);
        for _ in 0..samples {
            let t = Instant::now();
            criterion::black_box(run_arm(true).0.total_rounds);
            ses = ses.min(t.elapsed().as_nanos());
            let t = Instant::now();
            criterion::black_box(run_arm(false).0.total_rounds);
            per = per.min(t.elapsed().as_nanos());
        }
        rows.push(PhaseReuseRow {
            workload: "exp_search_broadcast",
            graph: format!("harary8_{n_search}"),
            phases,
            session_ns: ses,
            per_phase_ns: per,
        });
    }

    // --- Short phases at scale: 12 three-round phases, where engine
    // (re)construction dominates the rounds themselves.
    {
        let g = harary(16, n_chat);
        let phase_count = 12usize;
        let run_arm = |resident: bool| -> u64 {
            let mut host = PhaseHost::new(&g, resident);
            let mut acc = 0u64;
            for p in 0..phase_count as u64 {
                let out = host
                    .run(
                        |_, _| DenseChatter::new(3),
                        EngineConfig::with_seed(congest_sim::rng::phase_seed(0xC0DE, p)),
                    )
                    .unwrap();
                acc ^= out.stats.total_messages;
            }
            acc
        };
        assert_eq!(run_arm(true), run_arm(false), "short_phases cross-check");
        let (mut ses, mut per) = (u128::MAX, u128::MAX);
        for _ in 0..samples {
            let t = Instant::now();
            criterion::black_box(run_arm(true));
            ses = ses.min(t.elapsed().as_nanos());
            let t = Instant::now();
            criterion::black_box(run_arm(false));
            per = per.min(t.elapsed().as_nanos());
        }
        rows.push(PhaseReuseRow {
            workload: "short_phases_12x3rounds",
            graph: format!("harary16_{n_chat}"),
            phases: phase_count,
            session_ns: ses,
            per_phase_ns: per,
        });
    }

    let geo = geomean(rows.iter().map(PhaseReuseRow::speedup));
    (rows, geo)
}

/// One row of the churn-repair race: a remove batch applied and then
/// re-added at a phase boundary, incremental arm vs full rebuild. Both
/// numbers are **ns per mutation batch** (one `apply_pending`, i.e. one
/// graph splice + engine repair, vs one `GraphBuilder::build` + one
/// `Session::new`).
struct ChurnRepairRow {
    graph: String,
    batch: usize,
    incremental_ns: u128,
    rebuild_ns: u128,
}

impl ChurnRepairRow {
    fn speedup(&self) -> f64 {
        self.rebuild_ns as f64 / self.incremental_ns as f64
    }
}

/// Incremental repair vs full rebuild at phase boundaries. The workload
/// alternates a remove batch with the matching re-add batch, so the
/// topology (and therefore every repair's work size) is identical cycle
/// after cycle. The rebuild arm is given its edge lists for free — only
/// `GraphBuilder::build` + `Session::new` are timed — so the comparison
/// is pure construct-vs-repair.
fn bench_churn_repair() -> (Vec<ChurnRepairRow>, f64) {
    use congest_graph::GraphBuilder;
    use congest_sim::{ChurnSession, Mutation, Session};

    let (configs, cycles, samples) = if smoke() {
        (vec![(2_000usize, 16usize)], 2u32, 2usize)
    } else {
        (
            vec![(20_000usize, 16usize), (20_000, 256), (200_000, 64)],
            4u32,
            3usize,
        )
    };
    let mut rows = Vec::new();
    for (n, batch) in configs {
        let g = harary(16, n);
        let full: Vec<(u32, u32)> = g.edge_list().map(|(_, u, v)| (u, v)).collect();
        // A well-spread batch: every (m / batch)-th edge of the canonical list.
        let step = full.len() / batch;
        let picked: Vec<(u32, u32)> = (0..batch).map(|i| full[i * step]).collect();
        let removed: Vec<(u32, u32)> = full
            .iter()
            .copied()
            .filter(|e| !picked.contains(e))
            .collect();

        let mut churn = ChurnSession::new(g.clone());
        let cycle = |churn: &mut ChurnSession| {
            for &(u, v) in &picked {
                churn.queue_mut().push(Mutation::RemoveEdge(u, v));
            }
            churn.apply_pending().unwrap();
            for &(u, v) in &picked {
                churn.queue_mut().push(Mutation::AddEdge(u, v));
            }
            churn.apply_pending().unwrap();
        };
        // Cross-check before timing: a full cycle must restore the exact
        // CSR (edge ids included), and a phase on the long-lived repaired
        // session must be bit-identical to one on a fresh session.
        cycle(&mut churn);
        assert_eq!(
            churn.graph(),
            &g,
            "churn_repair: remove+readd did not restore the graph"
        );
        let cfg = || EngineConfig::serial().seed(0xC842);
        let live = churn
            .run(|_, _| DenseChatter::new(4), cfg())
            .unwrap()
            .take_outputs();
        let fresh = Session::new(&g)
            .run(|_, _| DenseChatter::new(4), cfg())
            .unwrap()
            .take_outputs();
        assert_eq!(live, fresh, "churn_repair: repaired session diverged");
        // Warm a second cycle so the repair scratch (which ping-pongs
        // between two buffer sets) reaches steady state before timing.
        cycle(&mut churn);

        let incremental_total = best_of(samples, || {
            for _ in 0..cycles {
                cycle(&mut churn);
            }
            churn.graph().num_arcs() as u64
        });
        let rebuild_total = best_of(samples, || {
            let mut acc = 0u64;
            for _ in 0..cycles {
                for list in [&removed, &full] {
                    let g2 = GraphBuilder::new(n)
                        .edges(list.iter().copied())
                        .build()
                        .unwrap();
                    let sess = Session::new(&g2);
                    criterion::black_box(&sess);
                    acc = acc.wrapping_add(g2.num_arcs() as u64);
                }
            }
            acc
        });
        let events = (cycles as u128) * 2;
        rows.push(ChurnRepairRow {
            graph: format!("harary16_{n}"),
            batch,
            incremental_ns: incremental_total / events,
            rebuild_ns: rebuild_total / events,
        });
    }
    let geo = geomean(rows.iter().map(ChurnRepairRow::speedup));
    (rows, geo)
}

struct WideBatchRow {
    w: usize,
    ns: u128,
    inst_rounds_per_sec: f64,
    speedup_vs_seq: f64,
}

/// Wide-batch throughput: W independent sparse instances through one
/// [`congest_sim::WideSession`] sweep vs the same instance on a
/// sequential `Session`, both single-core. Metric is instances·rounds
/// per second; the acceptance bar is W=32 ≥ 4× the sequential arm.
/// All 64 lanes are cross-checked bit-identical (outputs + stats)
/// against their per-lane sequential runs before any timing.
fn bench_wide_batch() -> (Vec<WideBatchRow>, f64) {
    use congest_sim::{LaneSpec, Session, WideSession};

    let (n, samples) = if smoke() {
        (1024usize, 2usize)
    } else {
        (4096usize, 5usize)
    };
    let g = harary(6, n);
    let lane_seed = |l: usize| congest_sim::rng::mix64(0x57ED_BA7C ^ l as u64);
    let wide_cfg = EngineConfig::serial();
    let seq_cfg = |l: usize| EngineConfig::serial().seed(lane_seed(l));
    let lanes_for =
        |w: usize| -> Vec<LaneSpec> { (0..w).map(|l| LaneSpec::new(lane_seed(l))).collect() };

    let mut wide = WideSession::new(&g);

    // Cross-check the full width bit-identical before timing anything,
    // and record each lane's true round count for the throughput metric
    // (sources sit at different eccentricities, so lanes can differ).
    let lanes64 = lanes_for(64);
    let lane_rounds: Vec<u64> = {
        let out = wide
            .run(
                &lanes64,
                |v, l, _| LaneRumor::new(v, l as u64, n),
                wide_cfg.clone(),
            )
            .unwrap();
        for l in 0..64 {
            let mut sess = Session::new(&g);
            let seq = sess
                .run(|v, _| LaneRumor::new(v, l as u64, n), seq_cfg(l))
                .unwrap();
            assert_eq!(
                out.stats(l),
                seq.stats,
                "wide_batch lane {l} stats diverged"
            );
            assert_eq!(
                out.outputs(l),
                seq.outputs(),
                "wide_batch lane {l} outputs diverged"
            );
        }
        (0..64).map(|l| out.stats(l).rounds).collect()
    };

    // Sequential arm: one instance per run on a resident Session.
    let seq_ns = {
        let mut sess = Session::new(&g);
        best_of(samples, || {
            let out = sess
                .run(|v, _| LaneRumor::new(v, 0, n), seq_cfg(0))
                .unwrap();
            out.outputs()[0]
        })
    };
    let seq_rate = lane_rounds[0] as f64 / (seq_ns as f64 / 1e9);

    let mut rows = Vec::new();
    for w in [1usize, 8, 32, 64] {
        let lanes = lanes_for(w);
        let ns = best_of(samples, || {
            let out = wide
                .run(
                    &lanes,
                    |v, l, _| LaneRumor::new(v, l as u64, n),
                    wide_cfg.clone(),
                )
                .unwrap();
            out.outputs(0)[0]
        });
        let inst_rounds: u64 = lane_rounds[..w].iter().sum();
        let rate = inst_rounds as f64 / (ns as f64 / 1e9);
        rows.push(WideBatchRow {
            w,
            ns,
            inst_rounds_per_sec: rate,
            speedup_vs_seq: rate / seq_rate,
        });
    }
    let at_32 = rows
        .iter()
        .find(|r| r.w == 32)
        .map(|r| r.speedup_vs_seq)
        .unwrap_or(0.0);
    (rows, at_32)
}

struct WideTailRow {
    arm: &'static str,
    wall_ns: u128,
    jobs_per_sec: f64,
}

/// Staggered-termination job stream through the wide kernel: J
/// lane-salted rumor floods whose sources linger for staggered spans,
/// with each 32-job chunk anchored by one job that lingers ~64x the
/// flood itself. Three arms, all single-core on one resident
/// `WideSession`:
///
/// * `chunked_no_compact` — 32-lane `run()` per chunk, compaction off:
///   the pre-compaction chunked kernel, paying the full-width sweep for
///   every straggler round.
/// * `refill_no_compact` — one `run_refill` drain over the whole queue
///   with lane compaction off: mid-sweep refill alone, so the sweep
///   stays full-width while retired slots keep earning.
/// * `refill_steady` — the same drain with compaction on (the shipped
///   default): refill plus narrowing the sweep when at most half the
///   lanes still run. Its ratio to `refill_no_compact` is what lane
///   compaction earns where it ships.
///
/// Every job of every arm is cross-checked bit-identical (outputs +
/// stats) against its isolated sequential `Session` run before any
/// timing. The acceptance bar: continuous batching (the refill arm)
/// ≥ 1.5x the non-compacting chunked kernel.
fn bench_wide_tail() -> (Vec<WideTailRow>, f64, f64) {
    use congest_sim::{LaneSpec, RunStats, Session, WideSession};

    let (n, jobs, samples) = if smoke() {
        (256usize, 96usize, 2usize)
    } else {
        (1024usize, 192usize, 5usize)
    };
    let w = 32usize;
    let g = harary(6, n);
    let job_seed = |j: usize| congest_sim::rng::mix64(0x7A11_C0DE ^ j as u64);
    let specs: Vec<LaneSpec> = (0..jobs).map(|j| LaneSpec::new(job_seed(j))).collect();
    let seq_cfg = |j: usize| EngineConfig::serial().seed(job_seed(j));

    // Tail lengths are keyed to the measured flood so the mix keeps its
    // shape across graph sizes: lane l of each chunk lingers l/8 floods
    // (staggered termination), and lane 0 anchors the chunk at 64
    // floods — the straggler the chunked arms must wait out chunk by
    // chunk, while the refill arm overlaps all the anchors.
    let flood_rounds = {
        let mut sess = Session::new(&g);
        let out = sess
            .run(|v, _| TailRumor::new(v, 1, n, 0), seq_cfg(1))
            .unwrap();
        out.stats.rounds
    };
    let linger = move |j: usize| {
        let lane = (j % w) as u64;
        if lane == 0 {
            64 * flood_rounds
        } else {
            lane * flood_rounds / 8
        }
    };
    let mk = move |v: u32, j: usize| TailRumor::new(v, j as u64, n, linger(j));

    // The isolated oracle, once per job: every arm below must reproduce
    // these outputs and stats bit-for-bit.
    let expected: Vec<(Vec<u64>, RunStats)> = (0..jobs)
        .map(|j| {
            let mut sess = Session::new(&g);
            let out = sess.run(|v, _| mk(v, j), seq_cfg(j)).unwrap();
            let stats = out.stats;
            (out.take_outputs(), stats)
        })
        .collect();

    let chunks: Vec<std::ops::Range<usize>> = (0..jobs)
        .step_by(w)
        .map(|lo| lo..(lo + w).min(jobs))
        .collect();
    let run_chunked = |wide: &mut WideSession<'_>, check: bool| -> u64 {
        let cfg = EngineConfig::serial().compact(false);
        let mut acc = 0u64;
        for chunk in &chunks {
            let lo = chunk.start;
            let out = wide
                .run(&specs[chunk.clone()], |v, l, _| mk(v, lo + l), cfg.clone())
                .unwrap();
            for l in 0..chunk.len() {
                if check {
                    let (outputs, stats) = &expected[lo + l];
                    assert_eq!(
                        out.outputs(l),
                        &outputs[..],
                        "wide_tail job {} outputs diverged",
                        lo + l
                    );
                    assert_eq!(
                        &out.stats(l),
                        stats,
                        "wide_tail job {} stats diverged",
                        lo + l
                    );
                }
                acc ^= out.outputs(l)[0] ^ out.stats(l).rounds;
            }
        }
        acc
    };
    let run_refill =
        |wide: &mut WideSession<'_>, scratch: &mut Vec<u64>, compact: bool, check: bool| -> u64 {
            let mut acc = 0u64;
            let admitted = wide.run_refill::<TailRumor, _, _, _>(
                &specs[..w],
                |v, j, _| mk(v, j),
                EngineConfig::serial().compact(compact),
                |job| (job < jobs).then(|| specs[job].clone()),
                |mut r| {
                    r.take_outputs_into(scratch);
                    if check {
                        let (outputs, stats) = &expected[r.job];
                        assert_eq!(
                            &scratch[..],
                            &outputs[..],
                            "wide_tail refill job {} outputs diverged (compact: {compact})",
                            r.job
                        );
                        assert_eq!(
                            &r.stats, stats,
                            "wide_tail refill job {} stats diverged (compact: {compact})",
                            r.job
                        );
                    }
                    acc ^= scratch[0] ^ r.stats.rounds ^ r.job as u64;
                },
            );
            assert_eq!(admitted, jobs, "wide_tail refill queue must drain");
            acc
        };

    // Cross-check all three arms bit-identical before timing anything.
    let mut wide = WideSession::new(&g);
    let mut scratch: Vec<u64> = Vec::new();
    run_chunked(&mut wide, true);
    run_refill(&mut wide, &mut scratch, false, true);
    run_refill(&mut wide, &mut scratch, true, true);

    let baseline_ns = best_of(samples, || run_chunked(&mut wide, false));
    let no_compact_ns = best_of(samples, || {
        run_refill(&mut wide, &mut scratch, false, false)
    });
    let refill_ns = best_of(samples, || run_refill(&mut wide, &mut scratch, true, false));

    let rate = |ns: u128| jobs as f64 / (ns as f64 / 1e9);
    let rows = vec![
        WideTailRow {
            arm: "chunked_no_compact",
            wall_ns: baseline_ns,
            jobs_per_sec: rate(baseline_ns),
        },
        WideTailRow {
            arm: "refill_no_compact",
            wall_ns: no_compact_ns,
            jobs_per_sec: rate(no_compact_ns),
        },
        WideTailRow {
            arm: "refill_steady",
            wall_ns: refill_ns,
            jobs_per_sec: rate(refill_ns),
        },
    ];
    let no_compact_speedup = baseline_ns as f64 / no_compact_ns as f64;
    let refill_speedup = baseline_ns as f64 / refill_ns as f64;
    (rows, no_compact_speedup, refill_speedup)
}

struct ServeRow {
    arm: &'static str,
    wall_ns: u128,
    jobs_per_sec: f64,
}

/// Serving-layer throughput: one multi-tenant rumor job stream over two
/// highly-connected circulants (the paper's regime; per-job sources,
/// seeds, and tenants) pushed through the `PoolServer`'s batching drain
/// — warm pooled states, compatible jobs grouped onto wide lane sweeps —
/// vs the same stream run one fresh `Session` per job
/// (`run_job_isolated`, the pool's oracle). Every output and stat is
/// cross-checked bit-identical before anything is timed. Returns the two
/// arms plus the batched-vs-isolated speedup.
///
/// The mix is deliberately all wide-worthy: rumor's thin wavefront is
/// where lane batching amortizes the arc sweep (measured ~3.7x at 32
/// lanes on `harary(6, 1024)`), while dense-head families like flood-max
/// run every lane hot simultaneously and batch roughly latency-neutral —
/// the policy tradeoff documented on `JobSpec::wide_worthy`.
fn bench_serve() -> (Vec<ServeRow>, f64) {
    use congest_sim::rng::mix64;
    use congest_sim::{run_job_isolated, Job, JobOutput, JobSpec, JobStatus, PoolServer};

    let (n, jobs_n, samples) = if smoke() {
        (1024usize, 64usize, 2usize)
    } else {
        (4096usize, 128usize, 5usize)
    };
    let graphs = [harary(6, n), harary(6, 3 * n / 4)];
    let cfg = EngineConfig::serial();

    // The stream: alternating graphs (the batcher has to regroup), every
    // job its own source and seed, tenants interleaved.
    let stream: Vec<(usize, JobSpec, u64, u32)> = (0..jobs_n)
        .map(|j| {
            let graph = j % 2;
            let spec = JobSpec::Rumor {
                source: (mix64(0x5E11 ^ j as u64) % graphs[graph].n() as u64) as u32,
            };
            (
                graph,
                spec,
                mix64(0x0B_5EED ^ mix64(j as u64)),
                (j % 4) as u32,
            )
        })
        .collect();

    let mut server = PoolServer::new(cfg.clone(), jobs_n);
    let keys = [
        server.register_graph(graphs[0].clone()),
        server.register_graph(graphs[1].clone()),
    ];
    let serve_once = |server: &mut PoolServer, out: &mut Vec<JobOutput>| {
        out.clear();
        for (graph, spec, seed, tenant) in &stream {
            server
                .submit(
                    Job {
                        graph: keys[*graph],
                        protocol: spec.clone(),
                        seed: *seed,
                        faults: None,
                        tenant: *tenant,
                    },
                    out,
                )
                .expect("graph is registered");
        }
        server.drain(out);
        out.sort_by_key(|o| o.id);
    };

    // Cross-check the whole stream bit-identical against the isolated
    // oracle before timing anything.
    let mut out = Vec::new();
    serve_once(&mut server, &mut out);
    assert_eq!(out.len(), stream.len());
    for ((graph, spec, seed, tenant), o) in stream.iter().zip(&out) {
        let (outputs, stats) = run_job_isolated(&graphs[*graph], spec, *seed, None, &cfg).unwrap();
        assert_eq!(o.status, JobStatus::Done, "serve job {:?} failed", o.id);
        assert_eq!(o.tenant, *tenant);
        assert_eq!(o.outputs, outputs, "serve job {:?} outputs diverged", o.id);
        assert_eq!(o.stats, stats, "serve job {:?} stats diverged", o.id);
    }
    assert!(
        server.batched_jobs() > server.solo_jobs(),
        "the mix must actually exercise wide batching ({} batched, {} solo)",
        server.batched_jobs(),
        server.solo_jobs()
    );

    // Batched arm: the resident server (pool stays warm across samples,
    // as in steady-state serving).
    let pooled_ns = best_of(samples, || {
        serve_once(&mut server, &mut out);
        out.iter().fold(0u64, |a, o| {
            a ^ o.outputs.first().copied().unwrap_or(0) ^ o.stats.total_messages
        })
    });
    // Isolated arm: one fresh session per job, same configs, same order.
    let isolated_ns = best_of(samples, || {
        stream.iter().fold(0u64, |a, (graph, spec, seed, _)| {
            let (outputs, stats) =
                run_job_isolated(&graphs[*graph], spec, *seed, None, &cfg).unwrap();
            a ^ outputs.first().copied().unwrap_or(0) ^ stats.total_messages
        })
    });

    let rate = |ns: u128| jobs_n as f64 / (ns as f64 / 1e9);
    let rows = vec![
        ServeRow {
            arm: "pool_batched",
            wall_ns: pooled_ns,
            jobs_per_sec: rate(pooled_ns),
        },
        ServeRow {
            arm: "session_per_job",
            wall_ns: isolated_ns,
            jobs_per_sec: rate(isolated_ns),
        },
    ];
    let speedup = isolated_ns as f64 / pooled_ns as f64;
    (rows, speedup)
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    measurements: &[Measurement],
    scaling: &[ScalingRow],
    phase_reuse: &[PhaseReuseRow],
    churn_repair: &[ChurnRepairRow],
    wide_batch: &[WideBatchRow],
    wide_tail: &[WideTailRow],
    serve: &[ServeRow],
    dense_geomean: f64,
    sparse_geomean: f64,
    phase_reuse_geomean: f64,
    churn_repair_geomean: f64,
    wide_batch_speedup_32: f64,
    wide_tail_no_compact: f64,
    wide_tail_refill: f64,
    serve_speedup: f64,
    path: &std::path::Path,
) {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"sim_throughput\",");
    let _ = writeln!(s, "  \"rounds_per_run\": {ROUNDS},");
    let _ = writeln!(
        s,
        "  \"note\": \"packed slab engine vs seed-style Vec<Option<Msg>> baseline on one core; ns = best of 7 whole-run samples; headline metric is geomean_speedup across workloads\","
    );
    let _ = writeln!(s, "  \"workloads\": [");
    for (i, m) in measurements.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"workload\": \"{}\",", m.workload);
        let _ = writeln!(s, "      \"graph\": \"{}\",", m.graph);
        let _ = writeln!(s, "      \"arcs\": {},", m.arcs);
        let _ = writeln!(s, "      \"packed_serial_ns\": {},", m.packed_serial_ns);
        let _ = writeln!(s, "      \"packed_parallel_ns\": {},", m.packed_parallel_ns);
        let _ = writeln!(s, "      \"baseline_ns\": {},", m.baseline_ns);
        let _ = writeln!(
            s,
            "      \"speedup_packed_vs_baseline\": {:.3}",
            m.speedup()
        );
        let _ = writeln!(
            s,
            "    }}{}",
            if i + 1 < measurements.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "  ],");
    let min = measurements
        .iter()
        .map(Measurement::speedup)
        .fold(f64::INFINITY, f64::min);
    let geomean = (measurements.iter().map(|m| m.speedup().ln()).sum::<f64>()
        / measurements.len() as f64)
        .exp();
    let _ = writeln!(s, "  \"min_speedup\": {min:.3},");
    let _ = writeln!(s, "  \"geomean_speedup\": {geomean:.3},");
    // --- Shard-scaling section: sharded engine vs the baseline engine.
    let _ = writeln!(
        s,
        "  \"shard_scaling_note\": \"sharded deliver/metering plane vs the seed-style baseline engine (congest_sim::baseline, serial Vec<Option<Msg>> slabs); values are ns per round via horizon differencing (setup cancels); pool width = min(shards, cores)\","
    );
    let _ = writeln!(
        s,
        "  \"shard_scaling_cores\": {},",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    let _ = writeln!(s, "  \"shard_scaling\": [");
    for (i, r) in scaling.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"workload\": \"{}\",", r.workload);
        let _ = writeln!(s, "      \"graph\": \"{}\",", r.graph);
        let _ = writeln!(s, "      \"arcs\": {},", r.arcs);
        let _ = writeln!(s, "      \"baseline_ns_per_round\": {},", r.baseline_ns);
        for &(shards, ns) in &r.new_by_shards {
            let _ = writeln!(s, "      \"sharded_ns_per_round_{shards}\": {ns},");
        }
        for &(shards, _) in &r.new_by_shards {
            let _ = writeln!(
                s,
                "      \"speedup_vs_baseline_{shards}_shards\": {:.3}{}",
                r.speedup_at(shards),
                if shards == *SHARD_SWEEP.last().unwrap() {
                    ""
                } else {
                    ","
                }
            );
        }
        let _ = writeln!(s, "    }}{}", if i + 1 < scaling.len() { "," } else { "" });
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(
        s,
        "  \"baseline_dense_geomean_speedup_4_shards\": {dense_geomean:.3},"
    );
    // --- Sparse-parity section: the sparse fast path's acceptance bar.
    let _ = writeln!(
        s,
        "  \"sparse_parity_note\": \"sparse traffic vs the seed-style baseline engine; the worklist fast path must keep the live engine at or above the sparse bar (geomean at 4 shards)\","
    );
    let _ = writeln!(s, "  \"sparse_parity\": {{");
    let _ = writeln!(s, "    \"workloads\": [");
    let sparse_rows: Vec<&ScalingRow> = scaling
        .iter()
        .filter(|r| matches!(r.workload, "sparse_u64" | "sparse_ports"))
        .collect();
    for (i, r) in sparse_rows.iter().enumerate() {
        let _ = writeln!(s, "      {{");
        let _ = writeln!(s, "        \"workload\": \"{}\",", r.workload);
        let _ = writeln!(s, "        \"graph\": \"{}\",", r.graph);
        let _ = writeln!(s, "        \"baseline_ns_per_round\": {},", r.baseline_ns);
        let _ = writeln!(s, "        \"sharded_ns_per_round_4\": {},", r.new_ns_at(4));
        let _ = writeln!(
            s,
            "        \"speedup_vs_baseline_4_shards\": {:.3}",
            r.speedup_at(4)
        );
        let _ = writeln!(
            s,
            "      }}{}",
            if i + 1 < sparse_rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "    ],");
    let _ = writeln!(
        s,
        "    \"geomean_vs_baseline_4_shards\": {sparse_geomean:.3}"
    );
    let _ = writeln!(s, "  }},");
    // --- Phase-reuse section: session-hosted vs per-phase composition.
    let _ = writeln!(
        s,
        "  \"phase_reuse_note\": \"whole multi-phase algorithms executed on one resident congest_sim::Session vs a fresh engine per phase (the pre-session run_protocol composition); whole-run wall clock, best of N; both arms cross-checked bit-identical before timing\","
    );
    let _ = writeln!(s, "  \"phase_reuse\": {{");
    let _ = writeln!(s, "    \"workloads\": [");
    for (i, r) in phase_reuse.iter().enumerate() {
        let _ = writeln!(s, "      {{");
        let _ = writeln!(s, "        \"workload\": \"{}\",", r.workload);
        let _ = writeln!(s, "        \"graph\": \"{}\",", r.graph);
        let _ = writeln!(s, "        \"phases\": {},", r.phases);
        let _ = writeln!(s, "        \"session_ns\": {},", r.session_ns);
        let _ = writeln!(s, "        \"per_phase_ns\": {},", r.per_phase_ns);
        let _ = writeln!(s, "        \"speedup_session\": {:.3}", r.speedup());
        let _ = writeln!(
            s,
            "      }}{}",
            if i + 1 < phase_reuse.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "    ],");
    let _ = writeln!(
        s,
        "    \"geomean_session_vs_per_phase\": {phase_reuse_geomean:.3}"
    );
    let _ = writeln!(s, "  }},");
    // --- Churn-repair section: incremental phase-boundary repair vs
    // full rebuild, the dynamic-graph acceptance bar.
    let _ = writeln!(
        s,
        "  \"churn_repair_note\": \"phase-boundary churn: a remove batch then the matching re-add batch; incremental arm = in-place CSR splice + engine repair on a live ChurnSession, rebuild arm = GraphBuilder::build + Session::new from a prepared edge list; ns per mutation batch, best of N; both arms cross-checked bit-identical before timing (geomean >= 1.0)\","
    );
    let _ = writeln!(s, "  \"churn_repair\": {{");
    let _ = writeln!(s, "    \"workloads\": [");
    for (i, r) in churn_repair.iter().enumerate() {
        let _ = writeln!(s, "      {{");
        let _ = writeln!(s, "        \"graph\": \"{}\",", r.graph);
        let _ = writeln!(s, "        \"batch_edges\": {},", r.batch);
        let _ = writeln!(
            s,
            "        \"incremental_ns_per_batch\": {},",
            r.incremental_ns
        );
        let _ = writeln!(s, "        \"rebuild_ns_per_batch\": {},", r.rebuild_ns);
        let _ = writeln!(s, "        \"speedup_incremental\": {:.3}", r.speedup());
        let _ = writeln!(
            s,
            "      }}{}",
            if i + 1 < churn_repair.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "    ],");
    let _ = writeln!(
        s,
        "    \"geomean_incremental_vs_rebuild\": {churn_repair_geomean:.3}"
    );
    let _ = writeln!(s, "  }},");
    // --- Wide-batch section: W instances through one interleaved sweep.
    let _ = writeln!(
        s,
        "  \"wide_batch_note\": \"W independent lane-salted QUIESCENT rumor floods on the harary(6, n) circulant through one WideSession sweep vs one instance per sequential Session run, both single-core; metric is instances*rounds/sec, whole-run wall clock, best of N; all 64 lanes cross-checked bit-identical (outputs + stats) against per-lane sequential runs before timing; acceptance bar: W=32 >= 4x sequential\","
    );
    let _ = writeln!(s, "  \"wide_batch\": {{");
    let _ = writeln!(s, "    \"arms\": [");
    for (i, r) in wide_batch.iter().enumerate() {
        let _ = writeln!(s, "      {{");
        let _ = writeln!(s, "        \"lanes\": {},", r.w);
        let _ = writeln!(s, "        \"wall_ns\": {},", r.ns);
        let _ = writeln!(
            s,
            "        \"instances_rounds_per_sec\": {:.0},",
            r.inst_rounds_per_sec
        );
        let _ = writeln!(
            s,
            "        \"speedup_vs_sequential\": {:.3}",
            r.speedup_vs_seq
        );
        let _ = writeln!(
            s,
            "      }}{}",
            if i + 1 < wide_batch.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "    ],");
    let _ = writeln!(
        s,
        "    \"speedup_vs_sequential_32_lanes\": {wide_batch_speedup_32:.3}"
    );
    let _ = writeln!(s, "  }},");
    // --- Wide-tail section: continuous batching vs chunked full-width.
    let _ = writeln!(
        s,
        "  \"wide_tail_note\": \"staggered-termination rumor mix on harary(6, n): sources linger pulsing one port for staggered spans, each 32-job chunk anchored by a straggler lingering ~64 floods; chunked_no_compact = 32-lane WideSession::run per chunk with lane compaction off, refill_no_compact = one run_refill drain (mid-sweep refill from the job queue) with compaction off, refill_steady = the same drain with compaction on; single-core, whole-stream wall clock, best of N; every job of every arm cross-checked bit-identical (outputs + stats) against its isolated sequential Session run before timing; acceptance bar: refill_steady >= 1.5x chunked_no_compact\","
    );
    let _ = writeln!(s, "  \"wide_tail\": {{");
    let _ = writeln!(s, "    \"arms\": [");
    for (i, r) in wide_tail.iter().enumerate() {
        let _ = writeln!(s, "      {{");
        let _ = writeln!(s, "        \"arm\": \"{}\",", r.arm);
        let _ = writeln!(s, "        \"wall_ns\": {},", r.wall_ns);
        let _ = writeln!(s, "        \"jobs_per_sec\": {:.0}", r.jobs_per_sec);
        let _ = writeln!(
            s,
            "      }}{}",
            if i + 1 < wide_tail.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "    ],");
    let _ = writeln!(
        s,
        "    \"speedup_refill_no_compact_vs_no_compact\": {wide_tail_no_compact:.3},"
    );
    let _ = writeln!(
        s,
        "    \"speedup_refill_vs_no_compact\": {wide_tail_refill:.3}"
    );
    let _ = writeln!(s, "  }},");
    // --- Serving layer: PoolServer batching drain vs session-per-job.
    let _ = writeln!(
        s,
        "  \"serve_throughput_note\": \"multi-tenant rumor job stream (2 highly-connected harary circulants, per-job sources/seeds/tenants, all wide-worthy) through the PoolServer batching drain (warm pooled states, compatible jobs grouped onto wide lane sweeps) vs one fresh Session per job (run_job_isolated); single-core, whole-stream wall clock, best of N; every job's outputs + stats cross-checked bit-identical against the isolated oracle before timing; acceptance bar: batched >= 2x session-per-job\","
    );
    let _ = writeln!(s, "  \"serve_throughput\": {{");
    let _ = writeln!(s, "    \"arms\": [");
    for (i, r) in serve.iter().enumerate() {
        let _ = writeln!(s, "      {{");
        let _ = writeln!(s, "        \"arm\": \"{}\",", r.arm);
        let _ = writeln!(s, "        \"wall_ns\": {},", r.wall_ns);
        let _ = writeln!(s, "        \"jobs_per_sec\": {:.0}", r.jobs_per_sec);
        let _ = writeln!(s, "      }}{}", if i + 1 < serve.len() { "," } else { "" });
    }
    let _ = writeln!(s, "    ],");
    let _ = writeln!(
        s,
        "    \"speedup_batched_vs_session_per_job\": {serve_speedup:.3}"
    );
    let _ = writeln!(s, "  }}");
    let _ = writeln!(s, "}}");
    std::fs::write(path, s).expect("write BENCH_sim.json");
}

/// Print the wide-tail section and emit its regression marker; returns
/// the rows + speedups for the JSON export.
fn run_wide_tail_section() -> (Vec<WideTailRow>, f64, f64) {
    let (wide_tail, wide_tail_no_compact, wide_tail_refill) = bench_wide_tail();
    println!("\n| wide-tail arm | wall clock | jobs/sec |");
    println!("|---|---|---|");
    for r in &wide_tail {
        println!(
            "| {} | {:.3} ms | {:.0} |",
            r.arm,
            r.wall_ns as f64 / 1e6,
            r.jobs_per_sec
        );
    }
    println!(
        "wide-tail speedup vs the non-compacting chunked kernel: \
         refill {wide_tail_no_compact:.2}x, refill+compaction {wide_tail_refill:.2}x \
         (compaction inside refill: {:.3}x)",
        wide_tail_refill / wide_tail_no_compact
    );
    // Continuous batching's acceptance bar: on a staggered-termination
    // mix, refilling retired slots from the queue (with the sweep
    // compacted) must beat chunked full-width runs by a wide margin,
    // smoke lane included.
    if wide_tail_refill < 1.5 {
        println!(
            "REGRESSION-MARKER: wide-tail speedup {wide_tail_refill:.3} < 1.5 — continuous \
             lane batching (compaction + refill) lost its advantage over the non-compacting \
             chunked kernel"
        );
    }
    (wide_tail, wide_tail_no_compact, wide_tail_refill)
}

/// Print the serve section and emit its regression marker; returns the
/// rows + speedup for the JSON export.
fn run_serve_section() -> (Vec<ServeRow>, f64) {
    let (serve, serve_speedup) = bench_serve();
    println!("\n| serve arm | wall clock | jobs/sec |");
    println!("|---|---|---|");
    for r in &serve {
        println!(
            "| {} | {:.3} ms | {:.0} |",
            r.arm,
            r.wall_ns as f64 / 1e6,
            r.jobs_per_sec
        );
    }
    println!("serve speedup (pool-batched vs one session per job): {serve_speedup:.2}x");
    // The serving layer's acceptance bar: batching compatible jobs onto
    // wide sweeps must at least double job throughput, smoke mix included.
    if serve_speedup < 2.0 {
        println!(
            "REGRESSION-MARKER: serve speedup {serve_speedup:.3} < 2.0 — pool batching lost \
             its advantage over one fresh session per job"
        );
    }
    (serve, serve_speedup)
}

fn bench_engine(c: &mut Criterion) {
    // `SIM_BENCH_SECTION=serve|wide_tail`: run only that section (CI's
    // smoke lanes), keep its cross-checks and marker, skip the rest.
    if let Ok(section) = std::env::var("SIM_BENCH_SECTION") {
        match section.as_str() {
            "serve" => {
                let _ = run_serve_section();
            }
            "wide_tail" => {
                let _ = run_wide_tail_section();
            }
            _ => panic!("unknown SIM_BENCH_SECTION `{section}`"),
        }
        println!("section mode: skipping remaining sections and BENCH_sim.json rewrite");
        return;
    }
    // --- Shard-scaling vs the baseline engine (always runs; the smoke
    // lane's guard).
    let (scaling, dense_geomean, sparse_geomean) = bench_shard_scaling();
    println!("\nper-round cost (ms/round), baseline engine (serial) vs sharded engine:");
    println!(
        "\n| workload | graph | arcs | baseline | 1 shard | 2 shards | 4 shards | 8 shards | speedup@4 |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    for r in &scaling {
        print!(
            "| {} | {} | {} | {:.3} |",
            r.workload,
            r.graph,
            r.arcs,
            r.baseline_ns as f64 / 1e6
        );
        for &(_, ns) in &r.new_by_shards {
            print!(" {:.3} |", ns as f64 / 1e6);
        }
        println!(" {:.2}x |", r.speedup_at(4));
    }
    println!("\ndense-traffic geomean speedup vs baseline engine @ 4 shards: {dense_geomean:.2}x");
    println!("sparse-traffic geomean speedup vs baseline engine @ 4 shards: {sparse_geomean:.2}x");
    // Bars carried over from the retired frozen-loop gates (see
    // DENSE_BAR); the smoke lane's bars sit strictly below the full ones.
    let bar = if smoke() { DENSE_BAR_SMOKE } else { DENSE_BAR };
    if dense_geomean < bar {
        println!(
            "REGRESSION-MARKER: dense geomean {dense_geomean:.3} < {bar:.1} vs the baseline engine"
        );
    }
    let sparse_bar = if smoke() {
        SPARSE_BAR_SMOKE
    } else {
        SPARSE_BAR
    };
    if sparse_geomean < sparse_bar {
        println!(
            "REGRESSION-MARKER: sparse geomean {sparse_geomean:.3} < {sparse_bar:.1} vs the baseline engine"
        );
    }
    // --- Phase-reuse: session-hosted vs per-phase composition.
    let (phase_reuse, phase_reuse_geomean) = bench_phase_reuse();
    println!("\n| phase-reuse workload | graph | phases | session | per-phase | speedup |");
    println!("|---|---|---|---|---|---|");
    for r in &phase_reuse {
        println!(
            "| {} | {} | {} | {:.3} ms | {:.3} ms | {:.2}x |",
            r.workload,
            r.graph,
            r.phases,
            r.session_ns as f64 / 1e6,
            r.per_phase_ns as f64 / 1e6,
            r.speedup()
        );
    }
    println!(
        "phase-reuse geomean speedup (session-hosted vs per-phase): {phase_reuse_geomean:.2}x"
    );
    // Session hosting must never lose to per-phase composition; the
    // smoke lane gets slack for small-n noise on shared runners.
    let reuse_bar = if smoke() { 0.85 } else { 1.0 };
    if phase_reuse_geomean < reuse_bar {
        println!(
            "REGRESSION-MARKER: phase-reuse geomean {phase_reuse_geomean:.3} < {reuse_bar:.2} — \
             session hosting lost to per-phase engine rebuilds"
        );
    }
    // --- Churn repair: incremental phase-boundary repair vs full rebuild.
    let (churn_repair, churn_repair_geomean) = bench_churn_repair();
    println!("\n| churn-repair graph | batch edges | incremental | rebuild | speedup |");
    println!("|---|---|---|---|---|");
    for r in &churn_repair {
        println!(
            "| {} | {} | {:.3} ms | {:.3} ms | {:.2}x |",
            r.graph,
            r.batch,
            r.incremental_ns as f64 / 1e6,
            r.rebuild_ns as f64 / 1e6,
            r.speedup()
        );
    }
    println!("churn-repair geomean speedup (incremental vs rebuild): {churn_repair_geomean:.2}x");
    // Incremental repair must never lose to a from-scratch rebuild; the
    // smoke lane gets slack for small-n noise on shared runners.
    let churn_bar = if smoke() { 0.9 } else { 1.0 };
    if churn_repair_geomean < churn_bar {
        println!(
            "REGRESSION-MARKER: churn-repair geomean {churn_repair_geomean:.3} < {churn_bar:.2} — \
             incremental repair lost to full engine rebuilds"
        );
    }
    // --- Wide batch: W instances through one interleaved sweep.
    let (wide_batch, wide_batch_speedup_32) = bench_wide_batch();
    println!("\n| wide-batch lanes | wall clock | instances·rounds/sec | vs sequential |");
    println!("|---|---|---|---|");
    for r in &wide_batch {
        println!(
            "| {} | {:.3} ms | {:.0} | {:.2}x |",
            r.w,
            r.ns as f64 / 1e6,
            r.inst_rounds_per_sec,
            r.speedup_vs_seq
        );
    }
    println!(
        "wide-batch speedup at 32 lanes vs one sequential instance: {wide_batch_speedup_32:.2}x"
    );
    // The whole point of the wide kernel: amortizing the arc sweep
    // across lanes must beat running the lanes one at a time by a wide
    // margin, in the smoke lane too.
    if wide_batch_speedup_32 < 4.0 {
        println!(
            "REGRESSION-MARKER: wide-batch speedup {wide_batch_speedup_32:.3} < 4.0 at 32 lanes \
             vs the sequential arm"
        );
    }
    // --- Wide tail: staggered-termination stream, chunked vs continuous.
    let (wide_tail, wide_tail_no_compact, wide_tail_refill) = run_wide_tail_section();
    // --- Serving layer: pool-batched job stream vs session-per-job.
    let (serve, serve_speedup) = run_serve_section();
    if smoke() {
        println!("smoke mode: skipping the whole-run workloads section and BENCH_sim.json rewrite");
        return;
    }

    let mut group = c.benchmark_group("sim_throughput");
    group.sample_size(5);
    // The paper's regime is *highly connected* networks: high-degree
    // graphs, where per-arc message-plane costs dominate per-node
    // bookkeeping.
    let clique = complete(256);
    let hara = harary(16, 1024);

    let mut measurements = Vec::new();
    for (gname, g) in [("complete256", &clique), ("harary16_1024", &hara)] {
        measurements.push(measure("dense_u64", gname, g, |_| {
            DenseChatter::new(ROUNDS)
        }));
        measurements.push(measure("sparse_u64", gname, g, |v| {
            SparseChatter::new(v, ROUNDS)
        }));
        measurements.push(measure("wide_u128", gname, g, |_| WideChatter { acc: 1 }));
        measurements.push(measure("pipeline_u128", gname, g, |v| PipelineLike {
            node: v,
            acc: 1,
        }));
    }

    // Also surface the packed engine through the criterion harness for the
    // usual per-benchmark lines.
    for (gname, g) in [("complete256", &clique), ("harary16_1024", &hara)] {
        for parallel in [false, true] {
            let label = if parallel { "parallel" } else { "serial" };
            group.bench_with_input(BenchmarkId::new(gname, label), g, |b, g| {
                b.iter(|| {
                    let cfg = if parallel {
                        EngineConfig::default()
                    } else {
                        EngineConfig::serial()
                    };
                    run_protocol(g, |_, _| DenseChatter::new(ROUNDS), cfg).unwrap()
                })
            });
        }
    }
    group.finish();

    println!(
        "\n| workload | graph | arcs | packed serial | packed parallel | baseline | speedup |"
    );
    println!("|---|---|---|---|---|---|---|");
    for m in &measurements {
        println!(
            "| {} | {} | {} | {:.2} ms | {:.2} ms | {:.2} ms | {:.2}x |",
            m.workload,
            m.graph,
            m.arcs,
            m.packed_serial_ns as f64 / 1e6,
            m.packed_parallel_ns as f64 / 1e6,
            m.baseline_ns as f64 / 1e6,
            m.speedup()
        );
    }

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_sim.json");
    write_json(
        &measurements,
        &scaling,
        &phase_reuse,
        &churn_repair,
        &wide_batch,
        &wide_tail,
        &serve,
        dense_geomean,
        sparse_geomean,
        phase_reuse_geomean,
        churn_repair_geomean,
        wide_batch_speedup_32,
        wide_tail_no_compact,
        wide_tail_refill,
        serve_speedup,
        &root,
    );
    println!("\nwrote {}", root.display());
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
