//! `scan_probe`: each op is one vulnerability-scanner probe as
//! `Scanner::probe` makes it: a fresh single-edge testbed, then the same
//! range request twice. Probes cover the 13 vendors, the Table I range
//! families and resource sizes from 1 KB to 25 MB, so resource fill
//! happens inside the timed op here and nowhere else. The seed sets the
//! probes' query string and where in the fixed probe order a run starts.

use rangeamp::cdn::Vendor;
use rangeamp::executor::splitmix64;
use rangeamp::http::{Request, Response};
use rangeamp::origin::OriginConfig;

use crate::bed::{self, EdgeBed, Wiring};
use crate::check::{self, Pattern, Verdict};
use crate::runner::{CacheState, OpRecord, Workload};
use crate::trace::{self, Layer};
use rangeamp::TARGET_PATH;

const KB: u64 = 1024;
const MB: u64 = 1024 * 1024;

/// The Table I probe ranges (canonical and extra probes of the three
/// vulnerable families).
const RANGES: [&str; 5] = [
    "bytes=0-0",
    "bytes=-1",
    "bytes=0-0,9437184-9437184",
    "bytes=1500-1500",
    "bytes=8388608-8388608",
];

/// Resource sizes: doubling from 1 KB to 16 MB with 8 MB replaced by Table
/// I's canonical 9 MB, plus its 12 and 25 MB. An odd count puts the median
/// op inside one size class rather than on the edge between two.
fn sizes() -> Vec<u64> {
    let mut sizes: Vec<u64> = (0..15).map(|k| KB << k).filter(|&s| s != 8 * MB).collect();
    sizes.extend([9 * MB, 12 * MB, 25 * MB]);
    sizes
}

/// One planned probe.
#[derive(Debug, Clone)]
pub struct Probe {
    vendor: Vendor,
    size: u64,
    range: &'static str,
    request: Request,
}

/// The workload state.
#[derive(Debug)]
pub struct ScanProbe {
    traced: bool,
    /// One cycle per range rotation: every (vendor, size) pair once, with
    /// the range family rotating so `RANGES.len()` cycles cover them all.
    cycles: Vec<Vec<Probe>>,
    pattern: Pattern,
}

impl ScanProbe {
    /// Generates the probe plan from `seed` and warms one probe per vendor.
    pub fn setup(seed: u64, traced: bool) -> ScanProbe {
        let sizes = sizes();
        let query = format!("?scan={seed:016x}");
        let cycles = (0..RANGES.len())
            .map(|rotation| {
                let mut cycle = Vec::new();
                for (v, &vendor) in Vendor::ALL.iter().enumerate() {
                    for (s, &size) in sizes.iter().enumerate() {
                        let range = RANGES[(v + s + rotation) % RANGES.len()];
                        cycle.push(Probe {
                            vendor,
                            size,
                            range,
                            request: bed::get(&query, Some(range)),
                        });
                    }
                }
                shuffle(&mut cycle, splitmix64(INTERLEAVE ^ rotation as u64));
                let phase = (splitmix64(seed) % cycle.len() as u64) as usize;
                cycle.rotate_left(phase);
                cycle
            })
            .collect();
        let mut workload = ScanProbe {
            traced,
            cycles,
            pattern: Pattern::of(TARGET_PATH),
        };
        for vendor in Vendor::ALL {
            let warm = Probe {
                vendor,
                size: KB,
                range: RANGES[0],
                request: bed::get(&query, Some(RANGES[0])),
            };
            workload.run(&warm);
        }
        workload
    }
}

/// Seed of the fixed interleaving of each cycle. The order is the same in
/// every run, so the allocator sees one sequence of sizes and peak RSS
/// does not depend on the seed; the seed picks where in the sequence a
/// run starts.
pub const INTERLEAVE: u64 = 0x0de4_5eed;

/// Seeded Fisher-Yates shuffle.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = splitmix64(state);
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
}

/// What the two rounds of one probe returned: response, client bytes,
/// victim bytes.
pub type Rounds = Vec<(Response, u64, u64)>;

impl Workload for ScanProbe {
    type Input = Probe;
    type Output = Rounds;

    fn cycle(&self) -> u64 {
        self.cycles[0].len() as u64
    }

    fn prepare(&mut self, op: u64) -> Probe {
        let per = self.cycle();
        let cycle = &self.cycles[((op / per) % self.cycles.len() as u64) as usize];
        cycle[(op % per) as usize].clone()
    }

    fn run(&mut self, probe: &Probe) -> Rounds {
        let wiring = Wiring {
            traced: self.traced,
            ..Wiring::default()
        };
        let bed = trace::span(Layer::TestbedBuild, || {
            let origin = bed::origin(probe.size, OriginConfig::apache_default());
            EdgeBed::new(probe.vendor.profile(), origin, &wiring)
        });
        (0..2)
            .map(|_| {
                bed.reset();
                let req = bed::wire_roundtrip(&probe.request);
                bed::parse_range(&req);
                let resp = bed.request(&req);
                (resp, bed.client_bytes(), bed.victim_bytes())
            })
            .collect()
    }

    fn check(&mut self, probe: Probe, rounds: Rounds) -> OpRecord {
        let mut verdict = Verdict::Ok;
        let (mut status, mut client_bytes, mut victim_bytes) = (0u64, 0u64, 0u64);
        let mut cache = Vec::new();
        for (resp, client, victim) in &rounds {
            if verdict == Verdict::Ok {
                verdict =
                    match check::response(Some(probe.range), probe.size, resp, &self.pattern).0 {
                        Verdict::Wrong(why) => Verdict::Wrong(format!(
                            "{} {} at {} bytes: {why}",
                            probe.vendor, probe.range, probe.size
                        )),
                        other => other,
                    };
            }
            status = status * 1000 + u64::from(resp.status().as_u16());
            client_bytes += client;
            victim_bytes += victim;
            cache.push(CacheState::of(resp));
        }
        OpRecord {
            status,
            client_bytes,
            victim_bytes,
            detail: 0,
            attack: false,
            cache,
            verdict,
        }
    }
}
