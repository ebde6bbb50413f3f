//! The seed-style engine: the simulator's independent reference model.
//!
//! This is (a compact copy of) the engine this workspace shipped with
//! before the packed message plane: inboxes and outboxes are
//! `Vec<Option<M>>` slabs, every round pays an O(arcs) `Option` clear,
//! and delivery is a clear-then-clone pass through the reverse-arc table.
//! It shares none of the live engine's message plane — no packed words,
//! no occupancy bitsets, no broadcast plane, no bit-sliced meters, no
//! shards — which is what makes it the differential oracle: the
//! property tests and `benches/sim_throughput.rs` assert the live
//! engine's outputs, [`RunStats`], traces, and per-edge congestion equal
//! to this engine's, and the bench races the two.
//!
//! Of [`EngineConfig`] it honors `max_rounds`, `collect_trace`, and
//! `faults` (dropped with the live engine's rule: a staged message on a
//! blocked edge is destroyed, counted in
//! [`RunStats::dropped_messages`], and never metered as traffic). It
//! always runs serially and has no per-node RNG; workloads that need
//! randomness carry their own [`crate::rng::node_rng`] stream.
//!
//! It drives [`BaselineProtocol`] rather than [`crate::Protocol`] because
//! the two engines expose different context types; workloads implement
//! both traits with identical logic.

use crate::engine::{EngineConfig, EngineError, RunOutcome, RunStats};
use crate::message::MsgBits;
use congest_graph::{Graph, Node, Port};

/// Node program for the baseline engine (oracle and bench workloads).
pub trait BaselineProtocol: Send {
    type Msg: Clone + Send + Sync + MsgBits;
    type Output: Send;

    fn round(&mut self, ctx: &mut BaselineCtx<'_, Self::Msg>);
    fn finish(self) -> Self::Output;
}

/// Seed-style per-round node view: `Option` slices.
pub struct BaselineCtx<'a, M> {
    pub node: Node,
    pub round: u64,
    inbox: &'a [Option<M>],
    outbox: &'a mut [Option<M>],
    done: &'a mut bool,
    max_bits: &'a mut usize,
}

impl<M: Clone + MsgBits> BaselineCtx<'_, M> {
    #[inline]
    pub fn degree(&self) -> usize {
        self.inbox.len()
    }

    pub fn inbox(&self) -> impl Iterator<Item = (Port, &M)> {
        self.inbox
            .iter()
            .enumerate()
            .filter_map(|(p, m)| m.as_ref().map(|m| (p as Port, m)))
    }

    pub fn inbox_len(&self) -> usize {
        self.inbox.iter().filter(|m| m.is_some()).count()
    }

    /// Stage `msg` on `port`, metering its size at send time (as
    /// [`crate::NodeCtx::send`] does, so a message the adversary later
    /// drops still counts toward [`RunStats::max_message_bits`]).
    #[inline]
    pub fn send(&mut self, port: Port, msg: M) {
        *self.max_bits = (*self.max_bits).max(msg.bits());
        let slot = &mut self.outbox[port as usize];
        assert!(slot.is_none(), "baseline CONGEST violation on port {port}");
        *slot = Some(msg);
    }

    pub fn send_all(&mut self, msg: M) {
        *self.max_bits = (*self.max_bits).max(msg.bits());
        for slot in self.outbox.iter_mut() {
            assert!(slot.is_none(), "baseline CONGEST violation in send_all");
            *slot = Some(msg.clone());
        }
    }

    #[inline]
    pub fn set_done(&mut self, done: bool) {
        *self.done = done;
    }
}

/// Run the seed-style engine to global termination (all nodes done and
/// no message in flight) or `config.max_rounds`, returning the same
/// outcome shape as [`crate::run_protocol`] so oracle checks compare
/// `outputs`, `stats`, `trace`, and `edge_congestion` directly.
///
/// Serial only — the seed's parallel path brought the same O(arcs)
/// clears and clones, so the serial arm is the honest per-core
/// comparison.
pub fn run_baseline<P, F>(
    graph: &Graph,
    mut factory: F,
    config: EngineConfig,
) -> Result<RunOutcome<P::Output>, EngineError>
where
    P: BaselineProtocol,
    F: FnMut(Node, &Graph) -> P,
{
    let n = graph.n();
    let arcs = graph.num_arcs();
    let mut states: Vec<P> = (0..n as Node).map(|v| factory(v, graph)).collect();
    let mut done = vec![false; n];
    let mut inbox: Vec<Option<P::Msg>> = (0..arcs).map(|_| None).collect();
    let mut outbox: Vec<Option<P::Msg>> = (0..arcs).map(|_| None).collect();
    // Per-arc congestion counters, exactly as the seed engine kept them.
    let mut arc_traffic: Vec<u64> = vec![0; arcs];
    let mut blocked: Vec<congest_graph::Edge> = Vec::new();
    let mut trace: Option<Vec<u64>> = config.collect_trace.then(Vec::new);

    let mut stats = RunStats::default();
    let mut round = 0u64;
    loop {
        if round >= config.max_rounds {
            return Err(EngineError::RoundLimitExceeded {
                limit: config.max_rounds,
            });
        }
        // Step: split the outbox into per-node slices (seed bookkeeping,
        // including its per-round allocation).
        let mut out_slices: Vec<&mut [Option<P::Msg>]> = Vec::with_capacity(n);
        {
            let mut rest = &mut outbox[..];
            for v in 0..n as Node {
                let (head, tail) = rest.split_at_mut(graph.degree(v));
                out_slices.push(head);
                rest = tail;
            }
        }
        for (v, (state, out)) in states.iter_mut().zip(out_slices).enumerate() {
            let lo = graph.arc_offset(v as Node);
            let deg = graph.degree(v as Node);
            let mut ctx = BaselineCtx {
                node: v as Node,
                round,
                inbox: &inbox[lo..lo + deg],
                outbox: out,
                done: &mut done[v],
                max_bits: &mut stats.max_message_bits,
            };
            state.round(&mut ctx);
        }
        // Adversary: destroy messages staged on this round's blocked
        // edges, in both directions, before anything is delivered.
        if let Some(plan) = &config.faults {
            plan.blocked_edges_into(round, graph.m(), &mut blocked);
            for &e in &blocked {
                let (u, v) = graph.endpoints(e);
                for (from, to) in [(u, v), (v, u)] {
                    let port = graph
                        .port_to(from, to)
                        .expect("edge endpoints are adjacent");
                    let slot = &mut outbox[graph.arc_offset(from) + port as usize];
                    if slot.take().is_some() {
                        stats.dropped_messages += 1;
                    }
                }
            }
        }
        // Deliver: clear-then-clone through the reverse-arc table.
        let mut delivered = 0u64;
        for arc in 0..arcs {
            match &outbox[graph.reverse_arc(arc)] {
                Some(msg) => {
                    inbox[arc] = Some(msg.clone());
                    arc_traffic[arc] += 1;
                    delivered += 1;
                }
                None => inbox[arc] = None,
            }
        }
        outbox.iter_mut().for_each(|s| *s = None);
        stats.total_messages += delivered;
        if let Some(t) = &mut trace {
            t.push(delivered);
        }
        round += 1;
        if delivered > 0 {
            stats.rounds = round;
        }
        if delivered == 0 && done.iter().all(|&d| d) {
            stats.iterations = round;
            break;
        }
    }
    if let Some(t) = &mut trace {
        t.truncate(stats.rounds as usize);
    }
    // The seed's post-run congestion fold: per-arc deliveries summed onto
    // their undirected edge.
    let mut edge_congestion: Vec<u64> = vec![0; graph.m()];
    for v in 0..n as Node {
        let lo = graph.arc_offset(v);
        for (i, &e) in graph.incident_edges(v).iter().enumerate() {
            edge_congestion[e as usize] += arc_traffic[lo + i];
        }
    }
    stats.max_edge_congestion = edge_congestion.iter().copied().max().unwrap_or(0);
    Ok(RunOutcome {
        outputs: states.into_iter().map(|s| s.finish()).collect(),
        stats,
        trace,
        edge_congestion,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_protocol;
    use crate::fault::FaultPlan;
    use crate::protocol::{NodeCtx, Protocol};
    use congest_graph::generators::{harary, torus2d};

    /// One workload, both engines: flood-and-count.
    struct Flood {
        heard_at: Option<u64>,
    }

    impl Protocol for Flood {
        type Msg = u32;
        type Output = Option<u64>;
        fn round(&mut self, ctx: &mut NodeCtx<'_, u32>) {
            if (ctx.round == 0 && ctx.node == 0 || ctx.inbox_len() > 0) && self.heard_at.is_none() {
                self.heard_at = Some(ctx.round);
                ctx.send_all(7);
            }
            ctx.set_done(self.heard_at.is_some());
        }
        fn finish(self) -> Option<u64> {
            self.heard_at
        }
    }

    impl BaselineProtocol for Flood {
        type Msg = u32;
        type Output = Option<u64>;
        fn round(&mut self, ctx: &mut BaselineCtx<'_, u32>) {
            if (ctx.round == 0 && ctx.node == 0 || ctx.inbox_len() > 0) && self.heard_at.is_none() {
                self.heard_at = Some(ctx.round);
                ctx.send_all(7);
            }
            ctx.set_done(self.heard_at.is_some());
        }
        fn finish(self) -> Option<u64> {
            self.heard_at
        }
    }

    /// Dense chatter for a fixed number of rounds, folding its inbox.
    struct Chatter {
        acc: u64,
        until: u64,
    }

    impl Chatter {
        fn step(&mut self, round: u64, inbox_sum: u64) -> Option<u64> {
            self.acc = self.acc.wrapping_add(inbox_sum);
            (round < self.until).then_some(self.acc.wrapping_add(round))
        }
    }

    impl Protocol for Chatter {
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

    impl BaselineProtocol for Chatter {
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

    #[test]
    fn baseline_and_packed_engines_agree() {
        let g = torus2d(6, 7);
        let flood = || Flood { heard_at: None };
        let packed = run_protocol(&g, |_, _| flood(), EngineConfig::serial().trace()).unwrap();
        let base = run_baseline(&g, |_, _| flood(), EngineConfig::serial().trace()).unwrap();
        assert_eq!(packed.outputs, base.outputs);
        assert_eq!(packed.stats, base.stats);
        assert_eq!(packed.trace, base.trace);
        assert_eq!(packed.edge_congestion, base.edge_congestion);
    }

    /// Above the parallel-stepping threshold, under a multi-lane pool: the
    /// sharded parallel engine must agree with the serial oracle.
    #[test]
    fn baseline_matches_parallel_engine_on_dense_chatter() {
        let g = harary(8, 300);
        let mk = || Chatter { acc: 1, until: 70 };
        let live = congest_par::with_threads(4, || {
            run_protocol(&g, |_, _| mk(), EngineConfig::with_seed(5)).unwrap()
        });
        let base = run_baseline(&g, |_, _| mk(), EngineConfig::with_seed(5)).unwrap();
        assert_eq!(live.outputs, base.outputs);
        assert_eq!(live.stats, base.stats);
        assert_eq!(live.edge_congestion, base.edge_congestion);
    }

    /// Faults: dropped messages are counted, never metered, and the live
    /// engine drops exactly the same ones.
    #[test]
    fn baseline_applies_the_fault_plan_like_the_engine() {
        let g = harary(6, 40);
        let mk = || Chatter { acc: 1, until: 12 };
        let cfg = EngineConfig::serial()
            .trace()
            .with_faults(FaultPlan::new(3, 0xFA));
        let live = run_protocol(&g, |_, _| mk(), cfg.clone()).unwrap();
        let base = run_baseline(&g, |_, _| mk(), cfg).unwrap();
        assert!(base.stats.dropped_messages > 0, "adversary must have acted");
        assert_eq!(live.outputs, base.outputs);
        assert_eq!(live.stats, base.stats);
        assert_eq!(live.trace, base.trace);
        assert_eq!(live.edge_congestion, base.edge_congestion);
    }

    #[test]
    fn baseline_round_limit_errors() {
        let g = torus2d(4, 4);
        let err = run_baseline(
            &g,
            |_, _| Chatter { acc: 1, until: 100 },
            EngineConfig::serial().max_rounds(10),
        )
        .unwrap_err();
        assert_eq!(err, EngineError::RoundLimitExceeded { limit: 10 });
    }
}
