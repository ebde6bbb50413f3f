//! Property-based tests for the core protocols: BFS, numbering, pipeline,
//! parallel routing, and partition invariants on arbitrary connected
//! graphs.

use congest_core::bfs::{BfsProtocol, SubgraphBfs};
use congest_core::broadcast::ParallelPipeline;
use congest_core::convergecast::{AggOp, Aggregate, Numbering, TreeView};
use congest_core::partition::{EdgePartition, EdgePartitionProtocol, PartitionParams};
use congest_core::pipeline::{expected_checksums, PipeCore, PipeMsg, TreePipeline};
use congest_graph::{Graph, GraphBuilder, Node};
use congest_sim::{run_protocol, EngineConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn arb_connected_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (3..max_n, any::<u64>()).prop_map(|(n, seed)| {
        let mix = |mut z: u64| {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^ (z >> 31)
        };
        let mut b = GraphBuilder::new(n);
        let mut edges = std::collections::BTreeSet::new();
        for v in 1..n as u32 {
            let u = (mix(seed ^ v as u64) % v as u64) as u32;
            edges.insert((u, v));
        }
        for i in 0..(3 * n) as u64 {
            let u = (mix(seed ^ (i << 17)) % n as u64) as u32;
            let v = (mix(seed ^ (i << 18) ^ 99) % n as u64) as u32;
            if u != v {
                edges.insert((u.min(v), u.max(v)));
            }
        }
        for (u, v) in edges {
            b.push_edge(u, v);
        }
        b.build().unwrap()
    })
}

/// A graph that is the union of `lp` edge-disjoint random spanning trees
/// plus random extra edges, with every edge's class: the shape of a
/// Theorem 2 partition in which every class spans. Returns the graph and
/// each node's per-port class, or `None` when a random tree could not
/// avoid the earlier classes' edges (the case is then skipped).
fn spanning_classes(n: usize, lp: usize, seed: u64) -> Option<(Graph, Vec<Vec<u32>>)> {
    let mix = |z: u64| congest_sim::rng::mix64(seed ^ z);
    let mut class_of: BTreeMap<(Node, Node), u32> = BTreeMap::new();
    let key = |u: Node, v: Node| (u.min(v), u.max(v));
    for c in 0..lp as u64 {
        // Random attachment order, each node joining a random earlier one
        // over an edge no earlier class owns; a few orders are tried.
        let tree = (0..16u64).find_map(|attempt| {
            let salt = c << 48 ^ attempt << 40;
            let mut order: Vec<Node> = (0..n as Node).collect();
            order.sort_by_key(|&v| mix(salt ^ v as u64));
            (1..n)
                .map(|i| {
                    let start = mix(salt ^ 1 << 32 ^ i as u64) as usize % i;
                    (0..i)
                        .map(|j| key(order[(start + j) % i], order[i]))
                        .find(|e| !class_of.contains_key(e))
                })
                .collect::<Option<Vec<_>>>()
        })?;
        class_of.extend(tree.into_iter().map(|e| (e, c as u32)));
    }
    for i in 0..2 * n as u64 {
        let u = (mix(i << 17 ^ 0xE) % n as u64) as Node;
        let v = (mix(i << 18 ^ 0xF) % n as u64) as Node;
        if u != v {
            let c = (mix(i << 19) % lp as u64) as u32;
            class_of.entry(key(u, v)).or_insert(c);
        }
    }
    let mut b = GraphBuilder::new(n);
    for &(u, v) in class_of.keys() {
        b.push_edge(u, v);
    }
    let g = b.build().unwrap();
    let colors = (0..n as Node)
        .map(|v| {
            g.neighbors(v)
                .iter()
                .map(|&u| class_of[&key(u, v)])
                .collect()
        })
        .collect();
    Some((g, colors))
}

fn bfs_views(g: &Graph, root: Node) -> Vec<TreeView> {
    run_protocol(g, |v, _| BfsProtocol::new(root, v), EngineConfig::default())
        .unwrap()
        .outputs
        .iter()
        .map(TreeView::from_bfs)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Distributed numbering assigns disjoint covering ranges whatever the
    /// item distribution.
    #[test]
    fn numbering_is_a_bijection(
        g in arb_connected_graph(20),
        items_seed in any::<u64>(),
    ) {
        let views = bfs_views(&g, 0);
        let items = |v: usize| ((items_seed >> (v % 32)) & 3) as u64;
        let out = run_protocol(
            &g,
            |v, _| Numbering::new(views[v as usize].clone(), items(v as usize)),
            EngineConfig::default(),
        )
        .unwrap();
        let total: u64 = (0..g.n()).map(items).sum();
        let mut covered = vec![false; total as usize];
        for v in 0..g.n() {
            let (start, t) = out.outputs[v];
            prop_assert_eq!(t, total);
            for id in start..start + items(v) {
                prop_assert!(!covered[id as usize]);
                covered[id as usize] = true;
            }
        }
        prop_assert!(covered.iter().all(|&c| c));
    }

    /// The pipelined broadcast delivers every message to every node on
    /// arbitrary trees (built by BFS from arbitrary roots).
    #[test]
    fn pipeline_delivers_everywhere(
        g in arb_connected_graph(16),
        root_pick in any::<u32>(),
        k in 1usize..30,
    ) {
        let root = root_pick % g.n() as u32;
        let views = bfs_views(&g, root);
        let msgs: Vec<(u32, u64)> = (0..k as u32).map(|i| (i, 0xD00 + i as u64)).collect();
        let holder = |i: usize| (i * 13 + 5) % g.n();
        let out = run_protocol(
            &g,
            |v, _| {
                let own: Vec<PipeMsg> = msgs
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| holder(*i) == v as usize)
                    .map(|(_, &(id, payload))| PipeMsg { id, payload })
                    .collect();
                TreePipeline::new(views[v as usize].clone(), k as u64, own, false)
            },
            EngineConfig::default(),
        )
        .unwrap();
        let (ex, es) = expected_checksums(msgs.iter());
        for r in &out.outputs {
            prop_assert_eq!(r.delivered, k as u64);
            prop_assert_eq!((r.xor_check, r.sum_check), (ex, es));
        }
        // Lemma 1's congestion claim.
        prop_assert!(out.stats.max_edge_congestion <= 2 * k as u64);
    }

    /// Theorem 1's routing phase against an independent model: one
    /// `ParallelPipeline` over λ′ edge-disjoint spanning trees equals λ′
    /// separate `TreePipeline` runs, one per class, node for node
    /// (deliveries summed, checksums folded, payload records as a
    /// multiset), with rounds = max and messages = sum over the classes.
    /// Edge-disjointness also makes congestion the max over the classes.
    #[test]
    fn parallel_routing_equals_per_class_pipelines(
        n in 6usize..24,
        lp in 1usize..5,
        graph_seed in any::<u64>(),
        root_pick in any::<u32>(),
        k in 1usize..40,
        holder_seed in any::<u64>(),
    ) {
        let built = spanning_classes(n, lp, graph_seed);
        prop_assume!(built.is_some());
        let (g, colors) = built.unwrap();
        let root = root_pick % n as u32;
        let trees = run_protocol(
            &g,
            |v, _| SubgraphBfs::new(root, v, colors[v as usize].clone(), lp),
            EngineConfig::default(),
        )
        .unwrap()
        .outputs;
        prop_assert!(trees.iter().all(|infos| infos.iter().all(|i| i.reached)));

        // Message id j at a random node, in class ⌊j/K⌋ as in Theorem 1.
        let cap = k.div_ceil(lp);
        let class_of = |id: u32| (id as usize / cap).min(lp - 1);
        let holder = |id: u32| (congest_sim::rng::mix64(holder_seed ^ id as u64) % n as u64) as Node;
        let msg = |id: u32| PipeMsg { id, payload: congest_sim::rng::mix64(!holder_seed ^ id as u64) };
        let own = |v: Node, c: usize| -> Vec<PipeMsg> {
            (0..k as u32)
                .filter(|&id| holder(id) == v && class_of(id) == c)
                .map(msg)
                .collect()
        };
        let k_of = |c: usize| (0..k as u32).filter(|&id| class_of(id) == c).count() as u64;
        let tree = |v: Node, c: usize| TreeView::from_bfs(&trees[v as usize][c]);

        let parallel = run_protocol(
            &g,
            |v, _| {
                ParallelPipeline::new(
                    (0..lp).map(|c| PipeCore::new(tree(v, c), k_of(c), own(v, c), true)).collect(),
                )
            },
            EngineConfig::default(),
        )
        .unwrap();
        let per_class: Vec<_> = (0..lp)
            .map(|c| {
                run_protocol(
                    &g,
                    |v, _| TreePipeline::new(tree(v, c), k_of(c), own(v, c), true),
                    EngineConfig::default(),
                )
                .unwrap()
            })
            .collect();

        for v in 0..n {
            let got = &parallel.outputs[v];
            let runs = || per_class.iter().map(|run| &run.outputs[v]);
            prop_assert_eq!(got.delivered, runs().map(|r| r.delivered).sum::<u64>());
            prop_assert_eq!(got.xor_check, runs().fold(0, |x, r| x ^ r.xor_check));
            prop_assert_eq!(got.sum_check, runs().fold(0u64, |s, r| s.wrapping_add(r.sum_check)));
            let mut want: Vec<(u32, u64)> =
                runs().flat_map(|r| r.recorded.clone().unwrap()).collect();
            let mut rec = got.recorded.clone().unwrap();
            want.sort_unstable();
            rec.sort_unstable();
            prop_assert_eq!(rec, want);
        }
        let stats = || per_class.iter().map(|run| run.stats);
        prop_assert_eq!(parallel.stats.rounds, stats().map(|s| s.rounds).max().unwrap());
        prop_assert_eq!(parallel.stats.total_messages, stats().map(|s| s.total_messages).sum::<u64>());
        prop_assert_eq!(
            parallel.stats.max_edge_congestion,
            stats().map(|s| s.max_edge_congestion).max().unwrap()
        );
    }

    /// Aggregates over distributed BFS trees compute exactly the global
    /// fold for arbitrary values.
    #[test]
    fn aggregate_exactness(g in arb_connected_graph(18), vals_seed in any::<u64>()) {
        let views = bfs_views(&g, 0);
        let val = |v: usize| (vals_seed.rotate_left(v as u32 % 64)) & 0xFFFF;
        for (op, fold) in [
            (AggOp::Sum, (0..g.n()).map(val).sum::<u64>()),
            (AggOp::Min, (0..g.n()).map(val).min().unwrap()),
            (AggOp::Max, (0..g.n()).map(val).max().unwrap()),
        ] {
            let out = run_protocol(
                &g,
                |v, _| Aggregate::new(views[v as usize].clone(), op, val(v as usize)),
                EngineConfig::default(),
            )
            .unwrap();
            for &x in &out.outputs {
                prop_assert_eq!(x, fold);
            }
        }
    }

    /// The distributed one-round partition protocol matches the
    /// centralized mirror on every port of every node.
    #[test]
    fn partition_protocol_matches_mirror(
        g in arb_connected_graph(16),
        seed in any::<u64>(),
        lp in 1usize..5,
    ) {
        let central = EdgePartition::compute(&g, PartitionParams::explicit(lp), seed);
        let out = run_protocol(
            &g,
            |v, gr| EdgePartitionProtocol::new(v, seed, lp, gr.degree(v)),
            EngineConfig::default(),
        )
        .unwrap();
        prop_assert!(out.stats.rounds <= 1);
        for v in 0..g.n() as Node {
            prop_assert_eq!(&out.outputs[v as usize], &central.port_colors(&g, v));
        }
    }
}
