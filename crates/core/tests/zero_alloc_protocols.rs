//! The zero-allocation contract for the paper's own tree protocols,
//! *measured*: a counting global allocator wraps the system allocator,
//! and the test asserts that routing 10× more messages through
//! [`TreePipeline`] (Lemma 1), [`ParallelPipeline`] (Theorem 1's phase 6,
//! λ′ edge-disjoint trees at once) and [`ReplicatedPipeline`] (the
//! resilient routing step) performs exactly the same number of heap
//! allocations.
//!
//! All `k` messages start at the common tree root, so the root's down
//! queues are filled by `PipeCore::new` — setup, built outside the
//! counted window — and every other node forwards one message per tree
//! per round. A queue's first push may allocate its buffer; after that,
//! `round()` must allocate nothing, so the count cannot depend on `k`
//! even though the 10× run takes ~10× the rounds.
//!
//! This file deliberately contains a single test: the allocator counter is
//! process-global, and the harness runs tests in one process.

use congest_core::bfs::{BfsNodeInfo, BfsProtocol, SubgraphBfs};
use congest_core::broadcast::ParallelPipeline;
use congest_core::convergecast::TreeView;
use congest_core::partition::{EdgePartition, PartitionParams};
use congest_core::pipeline::{expected_checksums, PipeCore, PipeMsg, TreePipeline};
use congest_core::resilient::ReplicatedPipeline;
use congest_graph::generators::harary;
use congest_graph::Graph;
use congest_sim::{run_protocol, EngineConfig, Protocol};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const ROOT: u32 = 0;
/// Edge-disjoint trees routed at once by the multi-tree protocols.
const CLASSES: usize = 2;

/// The k messages, all held by the root.
fn messages(k: usize) -> Vec<PipeMsg> {
    (0..k as u32)
        .map(|id| PipeMsg {
            id,
            payload: congest_sim::rng::mix64(0x2E40 ^ id as u64),
        })
        .collect()
}

/// Class of message `id` under Theorem 1's block assignment.
fn class_of(id: u32, k: usize) -> usize {
    (id as usize / k.div_ceil(CLASSES)).min(CLASSES - 1)
}

/// Build every node's protocol (setup, uncounted), then run them and
/// count the heap allocations of the run alone: engine setup, the
/// rounds, and output collection. Asserts every node ends with every
/// message, so a short-circuited run cannot pass.
fn counted_run<P: Protocol>(
    g: &Graph,
    build: impl Fn(u32) -> P,
    cfg: EngineConfig,
    delivered: impl Fn(&P::Output) -> bool,
) -> (u64, u64) {
    let mut slots: Vec<Option<P>> = (0..g.n() as u32).map(|v| Some(build(v))).collect();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = run_protocol(g, |v, _| slots[v as usize].take().unwrap(), cfg).unwrap();
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(out.outputs.iter().all(delivered), "a node missed a message");
    (allocs, out.stats.rounds)
}

fn min_allocs(mut f: impl FnMut() -> (u64, u64)) -> (u64, u64) {
    (0..5).map(|_| f()).min().unwrap()
}

/// Run `run(k)` and `run(10·k)` and require identical allocation counts.
fn assert_k_independent(
    name: &str,
    cfg: &EngineConfig,
    run: impl Fn(usize, EngineConfig) -> (u64, u64),
) {
    let k = 24;
    let _warm = run(k, cfg.clone());
    let (short, short_rounds) = min_allocs(|| run(k, cfg.clone()));
    let (long, long_rounds) = min_allocs(|| run(10 * k, cfg.clone()));
    assert!(
        long_rounds >= short_rounds + 8 * k as u64 / CLASSES as u64,
        "{name}: the 10·k run must take many more rounds ({short_rounds} vs {long_rounds})"
    );
    assert_eq!(
        long,
        short,
        "{name} round() allocated (parallel={}): {short} allocs for k = {k} \
         ({short_rounds} rounds) vs {long} for k = {} ({long_rounds} rounds)",
        cfg.parallel,
        10 * k
    );
}

#[test]
fn paper_protocol_rounds_allocate_nothing() {
    let g = harary(16, 128);

    // One BFS tree for Lemma 1 and CLASSES edge-disjoint spanning trees
    // (a Theorem 2 partition plus the per-class BFS) for the multi-tree
    // protocols: the first partition seed whose classes all span.
    let bfs: Vec<TreeView> =
        run_protocol(&g, |v, _| BfsProtocol::new(ROOT, v), EngineConfig::serial())
            .unwrap()
            .outputs
            .iter()
            .map(TreeView::from_bfs)
            .collect();
    let classes: Vec<Vec<BfsNodeInfo>> = (0..64u64)
        .find_map(|seed| {
            let part = EdgePartition::compute(&g, PartitionParams::explicit(CLASSES), seed);
            let out = run_protocol(
                &g,
                |v, gr: &Graph| SubgraphBfs::new(ROOT, v, part.port_colors(gr, v), CLASSES),
                EngineConfig::serial(),
            )
            .unwrap();
            out.outputs
                .iter()
                .all(|infos| infos.iter().all(|i| i.reached))
                .then_some(out.outputs)
        })
        .expect("a spanning partition among 64 seeds");
    let class_tree = |v: u32, c: usize| TreeView::from_bfs(&classes[v as usize][c]);

    // Root-held messages of one class, and each class's k.
    let own = |v: u32, k: usize, c: usize| -> Vec<PipeMsg> {
        if v != ROOT {
            return Vec::new();
        }
        messages(k)
            .into_iter()
            .filter(|m| class_of(m.id, k) == c)
            .collect()
    };
    let k_of = |k: usize, c: usize| (0..k as u32).filter(|&id| class_of(id, k) == c).count() as u64;
    let all_pairs =
        |k: usize| -> Vec<(u32, u64)> { messages(k).iter().map(|m| (m.id, m.payload)).collect() };

    for cfg in [EngineConfig::serial(), EngineConfig::default()] {
        // Lemma 1 on one tree.
        assert_k_independent("TreePipeline", &cfg, |k, cfg| {
            let want = expected_checksums(all_pairs(k).iter());
            counted_run(
                &g,
                |v| {
                    let mine = if v == ROOT { messages(k) } else { Vec::new() };
                    TreePipeline::new(bfs[v as usize].clone(), k as u64, mine, false)
                },
                cfg,
                |r| r.delivered == k as u64 && (r.xor_check, r.sum_check) == want,
            )
        });

        // Theorem 1's routing phase: CLASSES trees at once.
        assert_k_independent("ParallelPipeline", &cfg, |k, cfg| {
            let want = expected_checksums(all_pairs(k).iter());
            counted_run(
                &g,
                |v| {
                    ParallelPipeline::new(
                        (0..CLASSES)
                            .map(|c| {
                                PipeCore::new(class_tree(v, c), k_of(k, c), own(v, k, c), false)
                            })
                            .collect(),
                    )
                },
                cfg,
                |r| r.delivered == k as u64 && (r.xor_check, r.sum_check) == want,
            )
        });

        // The resilient routing step: every message replicated on every
        // tree, deduplicated by id at each node.
        assert_k_independent("ReplicatedPipeline", &cfg, |k, cfg| {
            let want = expected_checksums(all_pairs(k).iter());
            counted_run(
                &g,
                |v| {
                    let mine = if v == ROOT { messages(k) } else { Vec::new() };
                    let unique: Vec<(u32, u64)> = mine.iter().map(|m| (m.id, m.payload)).collect();
                    let cores = (0..CLASSES)
                        .map(|c| PipeCore::new(class_tree(v, c), k as u64, mine.clone(), false))
                        .collect();
                    ReplicatedPipeline::new(cores, k as u64, &unique)
                },
                cfg,
                |r| r.unique == k as u64 && (r.xor_check, r.sum_check) == want,
            )
        });
    }
}
