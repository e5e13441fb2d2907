//! `defense_mix`: each op is one request through defended edges on
//! virtual time: four SBR vendors and one OBR cascade, each edge with its
//! own `DefenseLayer` and a bounded cache.
//!
//! Benign traffic is the four `WorkloadGenerator` archetypes on the hot
//! object, sent by a Zipf population of `X-Client-Id`s that each stick to
//! one home edge. Three attackers run beside them: a stable-ID SBR
//! attacker, a rotating-ID SBR attacker and a stable-ID OBR attacker, all
//! with cache-busted URLs, so hits on the hot object sit beside misses
//! that force evictions. This is the only workload where the defense and
//! per-client state carry load.
//!
//! Rates, resource sizes, the OBR range count and the enforcement
//! configuration come from `DefenseEvalConfig::default()`: each attacker
//! sends one request per `attack_interval_ms`, and the most popular
//! benign client at most one per `benign_interval_ms`. The population
//! size, the Zipf exponent, the rotating attacker's id count and the
//! cache size are this benchmark's choices; the constants below say why.

use std::sync::Arc;

use rangeamp::attack::{exploited_range_case, ObrAttack};
use rangeamp::cdn::{DefenseHook, Vendor, CLIENT_ID_HEADER};
use rangeamp::defense::DefenseLayer;
use rangeamp::defense_eval::DefenseEvalConfig;
use rangeamp::executor::splitmix64;
use rangeamp::http::{Request, Response};
use rangeamp::net::SharedClock;
use rangeamp::origin::OriginConfig;
use rangeamp::workload::{BenignClient, WorkloadGenerator};
use rangeamp::TARGET_PATH;

use crate::bed::{self, CascadeBed, EdgeBed, Wiring};
use crate::check::{self, Pattern, Verdict};
use crate::runner::{CacheState, OpRecord, Workload};

/// The SBR edges' vendors.
const SBR_VENDORS: [Vendor; 4] = [
    Vendor::Akamai,
    Vendor::AlibabaCloud,
    Vendor::CloudFront,
    Vendor::GCoreLabs,
];
/// The OBR cascade.
const OBR_PAIR: (Vendor, Vendor) = (Vendor::Cloudflare, Vendor::Akamai);
/// The OBR attacker's receive window (the defense evaluation's).
const OBR_WINDOW: u64 = 1024;
/// Distinct benign client ids: a population large enough that most
/// clients send only a few requests a run, as behind a real edge, and
/// small enough that set-up can warm each one.
const POPULATION: usize = 8192;
/// Distinct ids the rotating attacker cycles through: no id recurs within
/// a detector window, and the warm-up cycles use every id, so the tracked
/// client count is at its steady level before timing starts.
const ROTATING_IDS: u64 = 2048;
/// Entry limit of every edge cache: small enough that the attackers'
/// cache-busted misses evict from the first warm-up cycle on (the
/// default of 4096 entries would take some 16 cycles to fill).
const CACHE_ENTRIES: usize = 256;
/// Attackers: stable-ID SBR, rotating-ID SBR and OBR.
const ATTACKERS: usize = 3;
/// Ops per cycle.
const CYCLE: usize = 4000;
/// Cycles run during set-up, so caches, defense rungs and per-client
/// state are at their steady level before timing starts.
const WARM_CYCLES: u64 = 4;
/// Pre-generated requests per benign archetype and resource.
const POOL: usize = 64;

/// Virtual milliseconds between ops and each attacker's requests per
/// cycle. Per virtual millisecond the attackers send
/// `ATTACKERS / attack_interval_ms` ops and the benign clients
/// `zipf_total / benign_interval_ms`, which puts the most popular client,
/// who draws `1 / zipf_total` of the benign ops, at one request per
/// `benign_interval_ms`. The tick is rounded up, so that client stays at
/// or below the evaluation's benign rate.
fn rates(eval: &DefenseEvalConfig, zipf_total: f64) -> (u64, usize) {
    let ops_per_ms = ATTACKERS as f64 / eval.attack_interval_ms as f64
        + zipf_total / eval.benign_interval_ms as f64;
    let tick_ms = (1.0 / ops_per_ms).ceil() as u64;
    let attacks = CYCLE * tick_ms as usize / eval.attack_interval_ms as usize;
    (tick_ms, attacks)
}

/// Which edge an op goes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    Sbr(usize),
    Cascade,
}

#[derive(Debug, Clone, Copy)]
enum Sender {
    Benign { client: usize, pooled: usize },
    StableSbr,
    RotatingSbr(u64),
    Obr,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    sender: Sender,
    target: Target,
    buster: u64,
}

/// One materialised op.
#[derive(Debug)]
pub struct Shot {
    request: Request,
    range: Option<String>,
    target: Target,
    attack: bool,
}

/// The workload state.
#[derive(Debug)]
pub struct DefenseMix {
    eval: DefenseEvalConfig,
    clock: SharedClock,
    tick_ms: u64,
    /// Requests per attacker per cycle.
    attacks: usize,
    sbr: Vec<EdgeBed>,
    cascade: CascadeBed,
    layers: Vec<Arc<DefenseLayer>>,
    obr_range: String,
    /// Benign requests per archetype: `[sbr, cascade]` resource sizes.
    pools: [Vec<Vec<Request>>; 2],
    archetype: Vec<usize>,
    slots: Vec<Slot>,
    /// Op index the next `prepare(0)` maps to (warm-up ops come first).
    offset: u64,
    pattern: Pattern,
}

fn home(client: usize) -> Target {
    match client % (SBR_VENDORS.len() + 1) {
        i if i < SBR_VENDORS.len() => Target::Sbr(i),
        _ => Target::Cascade,
    }
}

impl DefenseMix {
    /// Builds the defended edges, generates one cycle of op slots from
    /// `seed`, then warms every benign client and runs the warm-up cycles.
    pub fn setup(seed: u64, traced: bool) -> DefenseMix {
        let eval = DefenseEvalConfig::default();
        let clock = SharedClock::new();
        let mut layers = Vec::new();
        let mut wiring = || {
            let layer = Arc::new(DefenseLayer::new(eval.enforce));
            layers.push(layer.clone());
            Wiring {
                traced,
                clock: Some(clock.clone()),
                defense: Some(layer as Arc<dyn DefenseHook>),
                cache_entries: Some(CACHE_ENTRIES),
            }
        };
        let sbr: Vec<EdgeBed> = SBR_VENDORS
            .iter()
            .map(|vendor| {
                let origin = bed::origin(eval.sbr_resource_size, OriginConfig::apache_default());
                EdgeBed::new(vendor.profile(), origin, &wiring())
            })
            .collect();
        let (fcdn, bcdn) = OBR_PAIR;
        let cascade = CascadeBed::new(
            fcdn.fcdn_profile(),
            bcdn.profile(),
            eval.obr_resource_size,
            &wiring(),
        );
        let attack = ObrAttack::new(fcdn, bcdn);
        let obr_range = attack
            .range_case()
            .header(eval.obr_ranges.min(attack.max_n()).max(2))
            .to_string();

        let pools = [eval.sbr_resource_size, eval.obr_resource_size].map(|size| {
            let mut generator = WorkloadGenerator::new(seed ^ size, size);
            BenignClient::ALL
                .iter()
                .map(|&kind| (0..POOL).map(|_| generator.benign(kind).request).collect())
                .collect()
        });
        let archetype = (0..POPULATION)
            .map(|c| (splitmix64(seed ^ c as u64) % BenignClient::ALL.len() as u64) as usize)
            .collect();

        // Zipf(1) popularity over the population (the exponent is a
        // choice, not a measurement).
        let mut cdf = Vec::with_capacity(POPULATION);
        let mut total = 0.0;
        for rank in 0..POPULATION {
            total += 1.0 / (rank + 1) as f64;
            cdf.push(total);
        }
        let (tick_ms, attacks) = rates(&eval, total);
        assert!(
            CYCLE / attacks > 2 * (ATTACKERS - 1),
            "attacker slots must not collide"
        );
        // Each attacker's requests are evenly spaced over the cycle, as
        // in the evaluation's schedule; the SBR attackers take the SBR
        // edges in turn. Benign draws fill the other slots.
        let mut state = seed;
        let mut placed: Vec<Option<Slot>> = vec![None; CYCLE];
        for k in 0..attacks {
            let at = k * CYCLE / attacks;
            let edge = Target::Sbr(k % SBR_VENDORS.len());
            let senders = [
                (Sender::StableSbr, edge),
                (Sender::RotatingSbr(k as u64), edge),
                (Sender::Obr, Target::Cascade),
            ];
            for (j, (sender, target)) in senders.into_iter().enumerate() {
                state = splitmix64(state);
                placed[at + 2 * j] = Some(Slot {
                    sender,
                    target,
                    buster: state,
                });
            }
        }
        let slots = placed
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| {
                    state = splitmix64(state);
                    let u = (state >> 11) as f64 / (1u64 << 53) as f64 * total;
                    let client = cdf.partition_point(|&c| c < u).min(POPULATION - 1);
                    state = splitmix64(state);
                    Slot {
                        sender: Sender::Benign {
                            client,
                            pooled: (state % POOL as u64) as usize,
                        },
                        target: home(client),
                        buster: 0,
                    }
                })
            })
            .collect();

        let mut workload = DefenseMix {
            eval,
            clock,
            tick_ms,
            attacks,
            sbr,
            cascade,
            layers,
            obr_range,
            pools,
            archetype,
            slots,
            offset: 0,
            pattern: Pattern::of(TARGET_PATH),
        };
        for client in 0..POPULATION {
            let shot = workload.benign(client, client % POOL);
            workload.clock.advance_millis(tick_ms);
            workload.run(&shot);
        }
        let warm = WARM_CYCLES * CYCLE as u64;
        for op in 0..warm {
            let shot = workload.prepare(op);
            workload.run(&shot);
        }
        workload.offset = warm;
        workload
    }

    fn benign(&self, client: usize, pooled: usize) -> Shot {
        let target = home(client);
        let pool = &self.pools[usize::from(target == Target::Cascade)][self.archetype[client]];
        let mut request = pool[pooled].clone();
        request
            .headers_mut()
            .append(CLIENT_ID_HEADER, format!("client-{client}"));
        Shot {
            range: request.headers().get("range").map(str::to_string),
            request,
            target,
            attack: false,
        }
    }

    fn size(&self, target: Target) -> u64 {
        match target {
            Target::Sbr(_) => self.eval.sbr_resource_size,
            Target::Cascade => self.eval.obr_resource_size,
        }
    }
}

impl Workload for DefenseMix {
    type Input = Shot;
    type Output = (Response, u64, u64);

    fn cycle(&self) -> u64 {
        CYCLE as u64
    }

    fn prepare(&mut self, op: u64) -> Shot {
        let op = op + self.offset;
        let cycle = op / CYCLE as u64;
        let slot = self.slots[(op % CYCLE as u64) as usize];
        self.clock.advance_millis(self.tick_ms);
        let shot = match slot.sender {
            Sender::Benign { client, pooled } => self.benign(client, pooled),
            attacker => {
                let (id, range) = match attacker {
                    Sender::StableSbr | Sender::RotatingSbr(_) => {
                        let Target::Sbr(edge) = slot.target else {
                            unreachable!("SBR attackers target SBR edges")
                        };
                        let case =
                            exploited_range_case(SBR_VENDORS[edge], self.eval.sbr_resource_size);
                        let id = match attacker {
                            Sender::RotatingSbr(k) => {
                                format!(
                                    "rotating-{}",
                                    (cycle * self.attacks as u64 + k) % ROTATING_IDS
                                )
                            }
                            _ => "mallory".to_string(),
                        };
                        (id, case.ranges[0].to_string())
                    }
                    _ => ("obr-mallory".to_string(), self.obr_range.clone()),
                };
                let query = format!("?rnd={:016x}", slot.buster ^ splitmix64(cycle));
                let mut request = bed::get(&query, Some(&range));
                request.headers_mut().append(CLIENT_ID_HEADER, id);
                Shot {
                    request,
                    range: Some(range),
                    target: slot.target,
                    attack: true,
                }
            }
        };
        match shot.target {
            Target::Sbr(edge) => self.sbr[edge].reset(),
            Target::Cascade => self.cascade.reset(),
        }
        shot
    }

    fn run(&mut self, shot: &Shot) -> Self::Output {
        let req = bed::wire_roundtrip(&shot.request);
        bed::parse_range(&req);
        match shot.target {
            Target::Sbr(edge) => {
                let bed = &self.sbr[edge];
                let resp = bed.request(&req);
                (resp, bed.client_bytes(), bed.victim_bytes())
            }
            Target::Cascade => {
                let window = if shot.attack { OBR_WINDOW } else { u64::MAX };
                let resp = self.cascade.request(&req, window);
                (
                    resp,
                    self.cascade.client_bytes(),
                    self.cascade.victim_bytes(),
                )
            }
        }
    }

    fn check(&mut self, shot: Shot, (resp, client, victim): Self::Output) -> OpRecord {
        let size = self.size(shot.target);
        let verdict = match check::response(shot.range.as_deref(), size, &resp, &self.pattern).0 {
            Verdict::Wrong(why) => Verdict::Wrong(format!(
                "{} {:?} ({}): {why}",
                shot.request.uri(),
                shot.range,
                shot.request.headers().get(CLIENT_ID_HEADER).unwrap_or("-")
            )),
            other => other,
        };
        OpRecord {
            status: u64::from(resp.status().as_u16()),
            client_bytes: client,
            victim_bytes: victim,
            detail: 0,
            attack: shot.attack,
            cache: vec![CacheState::of(&resp)],
            verdict,
        }
    }

    fn tracked_clients(&self) -> u64 {
        self.layers.iter().map(|l| l.report().len() as u64).sum()
    }
}
