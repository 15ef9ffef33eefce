//! Answer digests: the bits of eight fixed answers and one prepared
//! session, one line each. A change that promises unchanged answers prints
//! the same nine lines before and after; CI diffs them against
//! `examples/answer_digests.expected`.
//!
//! ```text
//! cargo run --release -q -p dmf-bench --example answer_digests \
//!     | diff -u examples/answer_digests.expected -
//! ```
//!
//! The answers are the certified-answer benchmark's: two pairs of the 1k
//! fat-tree at the default config, one block of four 16×16 grid pairs
//! through the blocked engine, and two fat-tree pairs at flowd's client
//! config. Each line gives the 64-bit FNV-1a digest of the flow (every
//! entry's bits, little-endian, in edge order), the value and upper-bound
//! bits in hex (`value=ub=` when they are equal), and the gradient
//! iterations and phases.
//!
//! The last line is `prepare_100k`'s session: the 10⁵-node fat-tree
//! prepared through the j-tree hierarchy. It digests every tree in ensemble
//! order and, within a tree, every node in index order: the parent edge's
//! index as a little-endian `u64` (`u64::MAX` at the root), then the bits
//! of the node's cut capacity. It also gives the number of rows.

use capprox::{HierarchyConfig, RackeConfig};
use flowgraph::NodeId;
use maxflow::{MaxFlowConfig, MaxFlowResult, PreparedMaxFlow};
use service::cache::Fnv1a;
use testkit::families::streaming;

fn print_digest(workload: &str, (s, t): (u32, u32), r: &MaxFlowResult) {
    let mut flow = Fnv1a::new();
    for &x in r.flow.values() {
        flow.write_u64(x.to_bits());
    }
    let (value, ub) = (r.value.to_bits(), r.upper_bound.to_bits());
    let bounds = if value == ub {
        format!("value=ub={value:016x}")
    } else {
        format!("value={value:016x} ub={ub:016x}")
    };
    println!(
        "{workload} {s}–{t} flow={:016x} {bounds} it={} ph={}",
        flow.finish(),
        r.iterations,
        r.phases
    );
}

/// Answers each pair alone, one `max_flow` call after another.
fn print_singles(workload: &str, session: &mut PreparedMaxFlow, pairs: &[(u32, u32)]) {
    for &(s, t) in pairs {
        let r = session
            .max_flow(NodeId(s), NodeId(t))
            .expect("valid terminals");
        print_digest(workload, (s, t), &r);
    }
}

fn main() {
    let fat_tree = streaming::fat_tree(16, 8, 61, 10.0, 40.0).expect("1k fat-tree fits u32 ids");
    let mut session =
        PreparedMaxFlow::prepare(&fat_tree, &MaxFlowConfig::default()).expect("graph is valid");
    print_singles("fattree_single", &mut session, &[(597, 304), (803, 263)]);

    let grid = streaming::grid(16, 16, 1.0).expect("16x16 grid fits u32 ids");
    let pairs = [(80, 95), (123, 139), (98, 99), (196, 213)];
    let block: Vec<_> = pairs.iter().map(|&(s, t)| (NodeId(s), NodeId(t))).collect();
    let answers = PreparedMaxFlow::prepare(&grid, &MaxFlowConfig::default())
        .expect("graph is valid")
        .max_flow_batch(&block)
        .expect("valid terminals");
    for (&pair, r) in pairs.iter().zip(&answers) {
        print_digest("grid_batch", pair, r);
    }

    // loadgen's client config, under the tree seed flowd_mixed's replay uses.
    let flowd = MaxFlowConfig {
        epsilon: 0.5,
        racke: RackeConfig {
            num_trees: Some(3),
            seed: 0,
            ..Default::default()
        },
        phases: Some(2),
        ..Default::default()
    };
    let mut session = PreparedMaxFlow::prepare(&fat_tree, &flowd).expect("graph is valid");
    print_singles("flowd_config", &mut session, &[(34, 56), (163, 439)]);

    // prepare_100k's graph and config.
    let big = streaming::fat_tree(316, 8, 316, 10.0, 40.0).expect("100k fat-tree fits u32 ids");
    let hierarchy = MaxFlowConfig::default()
        .with_racke(RackeConfig::default().with_seed(1))
        .with_hierarchy(Some(
            HierarchyConfig::default()
                .with_direct_threshold(4_096)
                .with_chains(2)
                .with_trees_per_chain(Some(2))
                .with_seed(1),
        ));
    let session = PreparedMaxFlow::prepare(&big, &hierarchy).expect("graph is valid");
    let approximator = session.approximator();
    let mut trees = Fnv1a::new();
    for t in approximator.trees() {
        for v in big.nodes() {
            let parent = t.tree.parent_edge(v).map_or(u64::MAX, |e| e.index() as u64);
            trees.write_u64(parent);
            trees.write_u64(t.tree.cut_capacity(v).to_bits());
        }
    }
    println!(
        "prepare_100k trees={:016x} rows={}",
        trees.finish(),
        approximator.num_rows()
    );
}
