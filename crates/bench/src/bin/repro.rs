//! Regenerates the paper's tables and figures and prints paper-vs-measured
//! comparisons.
//!
//! Usage:
//!
//! ```sh
//! cargo run -p failbench --bin repro -- all             # every experiment
//! cargo run -p failbench --bin repro -- fig6 fig9       # specific ones
//! cargo run -p failbench --bin repro -- ablations       # design ablations
//! cargo run -p failbench --bin repro -- list            # list ids (runs nothing)
//! cargo run -p failbench --bin repro -- all --threads 4 # bounded worker pool
//! ```
//!
//! Experiments run on a worker pool (default: all host cores; bound it
//! with `--threads N`). Results are collected in declaration order and
//! every log comes from the shared, seeded
//! [`LogStore`](failbench::LogStore), so the output is byte-identical to
//! a serial run at any thread count.
//!
//! Exits non-zero when any requested experiment fails its checks.

use failbench::experiments;
use failbench::runner::{self, CatalogEntry};

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut args: Vec<String> = Vec::new();
    let mut threads = 0usize; // 0 = host parallelism
    let mut iter = raw.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--threads" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) => threads = n,
                None => usage("--threads needs a positive integer"),
            },
            "--help" | "-h" => usage(""),
            _ => args.push(arg.clone()),
        }
    }
    if args.is_empty() {
        usage("no experiments requested");
    }
    if threads > 0 {
        runner::set_threads(threads);
    }

    let catalog = experiments::catalog();
    if args.iter().any(|a| a == "list") {
        for (id, _) in &catalog {
            println!("{id}");
        }
        return;
    }

    let mut selected: Vec<CatalogEntry> = Vec::new();
    for arg in &args {
        match arg.as_str() {
            "all" => selected.extend(&catalog),
            "ablations" => {
                selected.extend(catalog.iter().filter(|e| e.0.starts_with("ablate_")));
            }
            "extensions" => {
                selected.extend(catalog.iter().filter(|e| e.0.starts_with("ext_")));
            }
            id => match catalog.iter().find(|e| e.0 == id) {
                Some(entry) => selected.push(*entry),
                None => {
                    eprintln!("unknown experiment `{id}`; try `repro list`");
                    std::process::exit(2);
                }
            },
        }
    }
    let mut seen = Vec::new();
    selected.retain(|(id, _)| {
        let fresh = !seen.contains(id);
        seen.push(*id);
        fresh
    });

    let results = runner::run_catalog(&selected);
    let mut failed = 0;
    for exp in &results {
        println!("{}", exp.render());
        if !exp.passes() {
            failed += 1;
        }
    }
    println!(
        "{} of {} experiments reproduced",
        results.len() - failed,
        results.len()
    );
    if failed > 0 {
        std::process::exit(1);
    }
}

fn usage(problem: &str) -> ! {
    if !problem.is_empty() {
        eprintln!("error: {problem}");
    }
    eprintln!("usage: repro [--threads N] [all | ablations | extensions | list | <id>...]");
    eprintln!(
        "ids: {}",
        experiments::catalog()
            .iter()
            .map(|e| e.0)
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}
