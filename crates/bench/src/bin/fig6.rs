//! Regenerates Fig 6: SBR amplification factor (a), client-side response
//! traffic (b), and origin-side response traffic (c) as the target
//! resource sweeps 1..=25 MB for all 13 vendors. Output is one CSV block
//! per sub-figure, ready for plotting.
//!
//! Accepts the shared harness flags (`--json <path>`, `--threads <n>`);
//! output is byte-identical at any thread count.
//!
//! ```text
//! cargo run -p rangeamp-bench --release --bin fig6
//! ```

use rangeamp_bench::{sbr_points, BenchCli, SbrPoint, MB};
use rangeamp_cdn::Vendor;

fn print_csv(title: &str, points: &[SbrPoint], value: impl Fn(&SbrPoint) -> String) {
    println!("# {title}");
    print!("size_mb");
    for vendor in Vendor::ALL {
        print!(",{}", vendor.name().replace(' ', "_"));
    }
    println!();
    for size_mb in 1..=25u64 {
        print!("{size_mb}");
        for vendor in Vendor::ALL {
            let point = points
                .iter()
                .find(|p| p.vendor == vendor.name() && p.file_size == size_mb * MB)
                .expect("sweep covers every vendor and size");
            print!(",{}", value(point));
        }
        println!();
    }
    println!();
}

fn main() {
    let cli = BenchCli::parse(&[]);
    let sizes: Vec<u64> = (1..=25).collect();
    let points = sbr_points(&sizes, &cli.executor());

    print_csv("Fig 6a — amplification factor", &points, |p| {
        format!("{:.0}", p.amplification_factor)
    });
    print_csv(
        "Fig 6b — response traffic CDN→client (bytes)",
        &points,
        |p| p.client_bytes.to_string(),
    );
    print_csv(
        "Fig 6c — response traffic origin→CDN (bytes)",
        &points,
        |p| p.origin_bytes.to_string(),
    );

    // The qualitative checks the paper's text makes about Fig 6.
    let factor_at = |vendor: &str, size_mb: u64| -> f64 {
        points
            .iter()
            .find(|p| p.vendor == vendor && p.file_size == size_mb * MB)
            .map(|p| p.amplification_factor)
            .unwrap_or(0.0)
    };
    println!("# shape checks");
    println!(
        "azure_plateau_16mb: factor(16MB)={:.0} factor(25MB)={:.0}",
        factor_at("Azure", 16),
        factor_at("Azure", 25)
    );
    println!(
        "cloudfront_plateau_10mb: factor(10MB)={:.0} factor(25MB)={:.0}",
        factor_at("CloudFront", 10),
        factor_at("CloudFront", 25)
    );
    println!(
        "akamai_gcore_lead: akamai(25MB)={:.0} gcore(25MB)={:.0} max_others={:.0}",
        factor_at("Akamai", 25),
        factor_at("G-Core Labs", 25),
        Vendor::ALL
            .iter()
            .filter(|v| !matches!(v, Vendor::Akamai | Vendor::GCoreLabs))
            .map(|v| factor_at(v.name(), 25))
            .fold(0.0f64, f64::max)
    );
    cli.write_json(&points);
}
