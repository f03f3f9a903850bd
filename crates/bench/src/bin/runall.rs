//! Runs every figure and ablation harness in sequence, writing each
//! output under `results/`. This is the one-command reproduction of the
//! paper's whole evaluation section.
//!
//! Usage: `cargo run --release -p eunomia-bench --bin runall [-- --quick]`
//!
//! Threaded experiments (Figs. 2–4, the batching ablation) are sensitive
//! to concurrent load — run this on an otherwise idle machine.

use std::fs;
use std::path::Path;
use std::process::Command;

const HARNESSES: &[&str] = &[
    "fig1_motivation",
    "fig2_service_throughput",
    "fig3_ft_overhead",
    "fig4_failures",
    "fig5_geo_throughput",
    "fig6_visibility_cdf",
    "fig7_stragglers",
    "ablation_receiver",
    "ablation_batching",
    "ablation_clock_skew",
    "ablation_tree",
    "fig_faults",
    "fig_load",
];

fn main() {
    let forward: Vec<String> = std::env::args().skip(1).collect();
    let out_dir = Path::new("results");
    fs::create_dir_all(out_dir).expect("create results dir");
    let self_path = std::env::current_exe().expect("own path");
    let bin_dir = self_path.parent().expect("bin dir");

    let mut combined = String::new();
    for name in HARNESSES {
        eprintln!("== running {name} {} ==", forward.join(" "));
        let output = Command::new(bin_dir.join(name))
            .args(&forward)
            .output()
            .unwrap_or_else(|e| panic!("failed to launch {name}: {e}"));
        let stdout = String::from_utf8_lossy(&output.stdout);
        if !output.status.success() {
            eprintln!(
                "{name} FAILED:\n{}",
                String::from_utf8_lossy(&output.stderr)
            );
            std::process::exit(1);
        }
        fs::write(out_dir.join(format!("{name}.txt")), stdout.as_bytes())
            .expect("write result file");
        combined.push_str(&format!("### {name}\n{stdout}\n"));
    }
    fs::write(out_dir.join("all_figures.txt"), combined).expect("write combined results");
    eprintln!("\nall harnesses done -> results/all_figures.txt");
}
