//! `obr_cascade`: each op is one Table V OBR request on a long-lived
//! FCDN → BCDN cascade over a 1 KB resource. For each of the 11
//! vulnerable pairs, n is swept geometrically from 2 up to the pair's
//! header limit, and every max-n op first calls `ObrAttack::max_n` as
//! `ObrAttack::run` does. Table V requests carry no query string (a longer
//! request line would break the header-limit solution), so the BCDN serves
//! its cached copy and the seed only picks where in the fixed op order a
//! run starts. The load is range grammar on lists of up to
//! ~11k specs, BCDN multipart assembly and the header-limit solver; there
//! is no resource fill after set-up.

use rangeamp::attack::{obr_combos, ObrAttack};
use rangeamp::executor::splitmix64;
use rangeamp::http::{Request, Response};
use rangeamp::TARGET_PATH;

use crate::bed::{self, CascadeBed, Wiring};
use crate::check::{self, Pattern, Verdict};
use crate::runner::{CacheState, OpRecord, Workload};
use crate::trace::{self, Layer};
use crate::workloads::scan_probe::{shuffle, INTERLEAVE};

/// Table V's target size.
const SIZE: u64 = 1024;
/// The attacker's receive window (`ObrAttack`'s default).
const WINDOW: u64 = 1024;

#[derive(Debug)]
struct Pair {
    attack: ObrAttack,
    bed: CascadeBed,
}

/// One planned op.
#[derive(Debug, Clone)]
pub struct Shot {
    pair: usize,
    n: usize,
    at_limit: bool,
    range: String,
    request: Request,
}

/// The workload state.
#[derive(Debug)]
pub struct ObrCascade {
    pairs: Vec<Pair>,
    cycle: Vec<Shot>,
    pattern: Pattern,
}

impl ObrCascade {
    /// Builds the 11 cascades, solves each pair's limit to plan the sweep,
    /// and warms every cascade with one request.
    pub fn setup(seed: u64, traced: bool) -> ObrCascade {
        let wiring = Wiring {
            traced,
            ..Wiring::default()
        };
        let mut pairs = Vec::new();
        let mut cycle = Vec::new();
        for (index, (fcdn, bcdn)) in obr_combos().into_iter().enumerate() {
            let attack = ObrAttack::new(fcdn, bcdn);
            let limit = attack.max_n();
            let mut ns: Vec<usize> = (1..usize::BITS)
                .map(|k| 1usize << k)
                .take_while(|&n| n < limit)
                .collect();
            ns.push(limit);
            for n in ns {
                let range = attack.range_case().header(n).to_string();
                cycle.push(Shot {
                    pair: index,
                    n,
                    at_limit: n == limit,
                    request: bed::get("", Some(&range)),
                    range,
                });
            }
            pairs.push(Pair {
                bed: CascadeBed::new(fcdn.fcdn_profile(), bcdn.profile(), SIZE, &wiring),
                attack,
            });
        }
        shuffle(&mut cycle, INTERLEAVE);
        let phase = (splitmix64(seed) % cycle.len() as u64) as usize;
        cycle.rotate_left(phase);
        let mut workload = ObrCascade {
            pairs,
            cycle,
            pattern: Pattern::of(TARGET_PATH),
        };
        for pair in 0..workload.pairs.len() {
            let warm = workload
                .cycle
                .iter()
                .find(|shot| shot.pair == pair && shot.n <= 4)
                .cloned()
                .expect("every sweep starts at n = 2");
            workload.run(&warm);
        }
        workload
    }
}

impl Workload for ObrCascade {
    type Input = Shot;
    type Output = (Response, usize, u64, u64);

    fn cycle(&self) -> u64 {
        self.cycle.len() as u64
    }

    fn prepare(&mut self, op: u64) -> Shot {
        let shot = self.cycle[(op % self.cycle()) as usize].clone();
        self.pairs[shot.pair].bed.reset();
        shot
    }

    fn run(&mut self, shot: &Shot) -> Self::Output {
        let pair = &self.pairs[shot.pair];
        let n = if shot.at_limit {
            trace::span(Layer::Limits, || pair.attack.max_n())
        } else {
            shot.n
        };
        let req = bed::wire_roundtrip(&shot.request);
        bed::parse_range(&req);
        let resp = pair.bed.request(&req, WINDOW);
        (resp, n, pair.bed.client_bytes(), pair.bed.victim_bytes())
    }

    fn check(&mut self, shot: Shot, (resp, n, client, victim): Self::Output) -> OpRecord {
        let label = || {
            format!(
                "{} n={}",
                self.pairs[shot.pair].attack.range_case().describe(),
                shot.n
            )
        };
        let verdict = if n != shot.n {
            Verdict::Wrong(format!("{}: max_n solved {n}, planned {}", label(), shot.n))
        } else {
            match check::response(Some(&shot.range), SIZE, &resp, &self.pattern) {
                (Verdict::Ok, parts) if parts != shot.n => Verdict::Wrong(format!(
                    "{}: {parts} parts, expected one per range",
                    label()
                )),
                (Verdict::Wrong(why), _) => Verdict::Wrong(format!("{}: {why}", label())),
                (other, _) => other,
            }
        };
        OpRecord {
            status: u64::from(resp.status().as_u16()),
            client_bytes: client,
            victim_bytes: victim,
            detail: 0,
            attack: true,
            cache: vec![CacheState::of(&resp)],
            verdict,
        }
    }
}
