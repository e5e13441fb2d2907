//! Severity assessment (paper §V-E): projects the monetary cost of a
//! sustained SBR attack for each vendor — victim origin-egress bill, CDN
//! traffic bill where applicable, and the attacker's own traffic.
//!
//! Accepts the shared harness flags (`--json`, `--threads`); output is
//! byte-identical at any thread count.
//!
//! ```text
//! cargo run -p rangeamp-bench --release --bin severity
//! ```

use rangeamp::report::TextTable;
use rangeamp::severity::CostModel;
use rangeamp_bench::BenchCli;

fn main() {
    let cli = BenchCli::parse(&[]);
    let model = CostModel::default();
    let rate = 10; // requests per second
    let hours = 1.0;
    let rows = rangeamp_bench::severity_rows(rate, hours, &model, &cli.executor());

    let mut table = TextTable::new(
        "Projected cost of 1 hour of SBR at 10 req/s against a 25 MB resource (illustrative list prices)",
        &[
            "CDN",
            "billing",
            "origin egress (GB)",
            "origin egress ($)",
            "CDN traffic ($)",
            "victim total ($)",
            "attacker (GB)",
            "$ per attacker GB",
        ],
    );
    for row in &rows {
        table.row(vec![
            row.cost.vendor.clone(),
            row.billing.clone(),
            format!("{:.1}", row.cost.origin_gb),
            format!("{:.2}", row.cost.origin_egress_usd),
            format!("{:.2}", row.cost.cdn_traffic_usd),
            format!("{:.2}", row.cost.victim_usd()),
            format!("{:.4}", row.cost.attacker_gb),
            format!("{:.0}", row.cost.cost_asymmetry()),
        ]);
    }
    println!("{table}");
    println!(
        "§V-E: \"A great monetary loss to the victims\" — one laptop-scale request \
         stream translates into hundreds of GB of billed victim traffic per hour."
    );
    cli.write_json(&rows);
}
