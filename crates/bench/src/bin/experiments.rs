//! Experiment runner: prints the E1–E9 tables of `dmf_bench` (see the README
//! section "Experiments and benches").
//!
//! ```text
//! cargo run --release -p dmf-bench --bin experiments -- all
//! cargo run --release -p dmf-bench --bin experiments -- table1 table4
//! ```

use dmf_bench::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<String> = if args.is_empty() || args.iter().any(|a| a == "all") {
        vec!["all".to_string()]
    } else {
        args
    };

    let run_all = selected.iter().any(|s| s == "all");
    let want = |name: &str| run_all || selected.iter().any(|s| s == name);

    let mut experiments = Vec::new();
    if want("table1") {
        experiments.push(table1_rounds(&[64, 144, 256]));
    }
    if want("table2") {
        experiments.push(table2_quality(36, &[0.5, 0.2, 0.1]));
    }
    if want("table3") {
        experiments.push(table3_stretch(&[100, 256]));
    }
    if want("table4") {
        experiments.push(table4_capprox(49, &[1, 4, 12]));
    }
    if want("table5") {
        experiments.push(table5_iterations(49, &[0.8, 0.4, 0.2, 0.1]));
    }
    if want("table6") {
        experiments.push(table6_sparsifier(&[100, 200, 300]));
    }
    if want("table7") {
        experiments.push(table7_jtrees(120, &[4, 8, 16, 32]));
    }
    if want("table8") {
        experiments.push(table8_primitives(&[100, 400, 900]));
    }
    if want("table9") {
        experiments.push(table9_lower_bound(&[64, 144, 256]));
    }
    if want("ablation_trees") {
        experiments.push(ablation_trees(36, &[1, 2, 4, 8, 16]));
    }
    if want("ablation_tree_kind") {
        experiments.push(ablation_tree_kind(80));
    }
    if want("ablation_decompose") {
        experiments.push(ablation_decompose(400));
    }

    if experiments.is_empty() {
        eprintln!(
            "unknown experiment selection {selected:?}; use table1..table9, ablation_trees, ablation_tree_kind, ablation_decompose, or all"
        );
        std::process::exit(2);
    }

    println!("# Experiment results (regenerated)\n");
    for e in experiments {
        println!("{e}");
    }
}
