//! Runs every experiment (Tables I–V, Fig 6, Fig 7, §VIII, §VI-B and
//! the online defense evaluation) and writes machine-readable JSON into
//! `experiments/` beside the printed tables.
//!
//! Accepts the shared harness flags; `--threads <n>` shards every
//! experiment, and output is byte-identical at any thread count.
//!
//! ```text
//! cargo run -p rangeamp-bench --release --bin all -- --threads 2
//! ```

use rangeamp::defense_eval::{run_defense_eval, DefenseEvalConfig};
use rangeamp::scanner::Scanner;
use rangeamp_bench::{write_json, BenchCli, MB};

fn main() {
    let cli = BenchCli::parse(&[]);
    let executor = cli.executor();

    eprintln!("== scanner (Tables I–III) ==");
    let scanner = Scanner::default();
    let t1 = scanner.scan_table1(&executor);
    let t2 = scanner.scan_table2(&executor);
    let t3 = scanner.scan_table3(&executor);
    println!("{}", rangeamp_bench::render_table1(&t1));
    println!("{}", rangeamp_bench::render_table2(&t2));
    println!("{}", rangeamp_bench::render_table3(&t3));
    write_json("experiments/table1.json", &t1);
    write_json("experiments/table2.json", &t2);
    write_json("experiments/table3.json", &t3);

    eprintln!("== SBR (Table IV + Fig 6) ==");
    let sizes: Vec<u64> = (1..=25).collect();
    let points = rangeamp_bench::sbr_points(&sizes, &executor);
    println!("{}", rangeamp_bench::render_table4(&points));
    write_json("experiments/fig6_sbr_sweep.json", &points);

    eprintln!("== OBR (Table V) ==");
    let obr = rangeamp_bench::table5_measurements(&executor);
    println!("{}", rangeamp_bench::render_table5(&obr));
    write_json("experiments/table5.json", &obr);

    eprintln!("== Flood (Fig 7) ==");
    let fig7 = rangeamp_bench::fig7_reports(&executor);
    println!("{}", rangeamp_bench::render_fig7_summary(&fig7));
    write_json("experiments/fig7.json", &fig7);

    eprintln!("== Dropped-GET comparison (§VIII) ==");
    write_json(
        "experiments/dropped_get.json",
        &rangeamp_bench::dropped_get_rows(10 * MB, &executor),
    );

    eprintln!("== HTTP/2 applicability (§VI-B) ==");
    write_json(
        "experiments/h2_check.json",
        &rangeamp_bench::h2_rows(&executor),
    );

    eprintln!("== Online defense evaluation (DESIGN.md §12) ==");
    let defense = run_defense_eval(&DefenseEvalConfig::default(), &executor, 2020);
    println!("{}", rangeamp_bench::render_defense_eval(&defense));
    write_json("experiments/defense.json", &defense);

    eprintln!("all experiments complete; JSON in experiments/");
}
