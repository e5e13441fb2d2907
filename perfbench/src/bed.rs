//! Testbed wiring from the program's public parts.
//!
//! These mirror `rangeamp::TestbedBuilder::build` (single edge) and the
//! `CascadeTestbed` constructors, with one difference: the origin and the
//! BCDN reach their callers through [`trace::upstream`], so the traced run
//! can put a timing wrapper on those seams. Untraced, the wiring is the
//! same object graph the core crate builds.

use std::sync::Arc;

use rangeamp::cdn::{
    BreakerConfig, Cache, DefenseHook, EdgeNode, Resilience, UpstreamService, VendorProfile,
};
use rangeamp::http::{wire, Request, Response};
use rangeamp::net::{Segment, SegmentName, SharedClock};
use rangeamp::origin::{OriginConfig, OriginServer, ResourceStore};
use rangeamp::{TARGET_HOST, TARGET_PATH};

use crate::trace::{self, Layer};

/// Optional wiring shared by the single-edge and cascade builders.
#[derive(Debug, Clone, Default)]
pub struct Wiring {
    /// Put timing wrappers on the upstream and defense seams.
    pub traced: bool,
    /// Drive the edges off this virtual clock instead of a fresh one each.
    pub clock: Option<SharedClock>,
    /// Online defense on the client-facing edge.
    pub defense: Option<Arc<dyn DefenseHook>>,
    /// Entry limit of each edge cache (default: the cache's own).
    pub cache_entries: Option<usize>,
}

/// An origin serving one synthetic resource at [`TARGET_PATH`].
pub fn origin(size: u64, config: OriginConfig) -> Arc<OriginServer> {
    let store = trace::span_bytes(
        Layer::ResourceBuild,
        || {
            let mut store = ResourceStore::new();
            store.add_synthetic(TARGET_PATH, size, "application/octet-stream");
            store
        },
        |_| size,
    );
    Arc::new(OriginServer::with_config(store, config))
}

fn edge(
    profile: VendorProfile,
    upstream: Arc<dyn UpstreamService>,
    name: SegmentName,
    wiring: &Wiring,
    front: bool,
) -> EdgeNode {
    let mut node = EdgeNode::new(profile.clone(), upstream, Segment::new(name));
    if let Some(clock) = &wiring.clock {
        node = node.with_resilience(Resilience::new(
            profile.retry,
            BreakerConfig::default(),
            clock.clone(),
        ));
    }
    if let Some(entries) = wiring.cache_entries {
        node = node.with_cache(Cache::with_capacity(entries));
    }
    if front {
        if let Some(hook) = &wiring.defense {
            node = node.with_defense(trace::defense(hook.clone(), wiring.traced));
        }
    }
    node
}

/// Client → edge → origin (paper Fig 3a).
#[derive(Debug)]
pub struct EdgeBed {
    client: Segment,
    edge: EdgeNode,
}

impl EdgeBed {
    /// Wires `profile` in front of `origin`.
    pub fn new(profile: VendorProfile, origin: Arc<OriginServer>, wiring: &Wiring) -> EdgeBed {
        let upstream = trace::upstream(origin, Layer::OriginServe, wiring.traced);
        let edge = edge(profile, upstream, SegmentName::CdnOrigin, wiring, true);
        let clock = edge.resilience().clock().clone();
        let client = Segment::new(SegmentName::ClientCdn);
        client.attach_clock(clock.clone());
        edge.origin_segment().attach_clock(clock);
        EdgeBed { client, edge }
    }

    /// Sends one client request, metering both segments.
    pub fn request(&self, req: &Request) -> Response {
        trace::span(Layer::Edge, || {
            self.client.send_request(req);
            let resp = self.edge.handle(req);
            self.client.send_response(&resp);
            resp
        })
    }

    /// Response bytes the client received since the last reset.
    pub fn client_bytes(&self) -> u64 {
        self.client.stats().response_bytes
    }

    /// Response bytes on the victim (`cdn-origin`) link since the last reset.
    pub fn victim_bytes(&self) -> u64 {
        self.edge.origin_segment().stats().response_bytes
    }

    /// Zeroes both segments' counters and captures.
    pub fn reset(&self) {
        self.client.reset();
        self.edge.origin_segment().reset();
    }
}

/// Client → FCDN → BCDN → origin with range support off (paper Fig 3b).
#[derive(Debug)]
pub struct CascadeBed {
    client: Segment,
    fcdn: EdgeNode,
    bcdn: Arc<EdgeNode>,
}

impl CascadeBed {
    /// Wires `fcdn` in front of `bcdn` over a `size`-byte resource.
    pub fn new(fcdn: VendorProfile, bcdn: VendorProfile, size: u64, wiring: &Wiring) -> CascadeBed {
        let origin = origin(size, OriginConfig::ranges_disabled());
        let upstream = trace::upstream(origin, Layer::OriginServe, wiring.traced);
        let bcdn = Arc::new(edge(bcdn, upstream, SegmentName::BcdnOrigin, wiring, false));
        let middle = trace::upstream(bcdn.clone(), Layer::Bcdn, wiring.traced);
        let fcdn = edge(fcdn, middle, SegmentName::FcdnBcdn, wiring, true);
        let clock = fcdn.resilience().clock().clone();
        let client = Segment::new(SegmentName::ClientFcdn);
        client.attach_clock(clock.clone());
        fcdn.origin_segment().attach_clock(clock.clone());
        bcdn.origin_segment().attach_clock(clock);
        CascadeBed { client, fcdn, bcdn }
    }

    /// Sends one client request; the client accepts only `window` bytes
    /// of the response before aborting (§IV-C's small receive window).
    pub fn request(&self, req: &Request, window: u64) -> Response {
        trace::span(Layer::Fcdn, || {
            self.client.send_request(req);
            let resp = self.fcdn.handle(req);
            self.client.send_response_truncated(&resp, window);
            resp
        })
    }

    /// Response bytes the client accepted since the last reset.
    pub fn client_bytes(&self) -> u64 {
        self.client.stats().response_bytes
    }

    /// Response bytes on the victim (`fcdn-bcdn`) link since the last reset.
    pub fn victim_bytes(&self) -> u64 {
        self.fcdn.origin_segment().stats().response_bytes
    }

    /// Zeroes every segment's counters and captures.
    pub fn reset(&self) {
        self.client.reset();
        self.fcdn.origin_segment().reset();
        self.bcdn.origin_segment().reset();
    }
}

/// A GET of [`TARGET_PATH`] plus `query` with a `Host` and optional `Range`.
pub fn get(query: &str, range: Option<&str>) -> Request {
    let mut builder = Request::get(&format!("{TARGET_PATH}{query}")).header("Host", TARGET_HOST);
    if let Some(range) = range {
        builder = builder.header("Range", range);
    }
    builder.build()
}

/// The op's request as the edge receives it: encoded to wire bytes and
/// decoded again.
pub fn wire_roundtrip(req: &Request) -> Request {
    trace::span(Layer::WireRoundtrip, || {
        wire::decode_request(&wire::encode_request(req))
            .expect("benchmark requests are well-formed")
    })
}

/// Replays the edge's `Range` parse on the op's request.
pub fn parse_range(req: &Request) {
    trace::span(Layer::RangeParse, || {
        std::hint::black_box(
            req.headers()
                .get("range")
                .map(rangeamp::http::range::RangeHeader::parse),
        );
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rangeamp::attack::{obr_combos, ObrAttack};
    use rangeamp::cdn::Vendor;
    use rangeamp::defense::DefenseLayer;
    use rangeamp::{CascadeTestbed, Testbed};

    /// (status, client bytes, victim bytes) of each request, in order.
    type Trail = Vec<(u16, u64, u64)>;

    const RANGES: [&str; 5] = [
        "bytes=0-0",
        "bytes=-1",
        "bytes=0-0,9437184-9437184",
        "bytes=1500-1500",
        "bytes=0-",
    ];

    fn requests() -> Vec<Request> {
        RANGES
            .iter()
            .flat_map(|range| {
                // A miss, another key, then the first key again: a hit
                // wherever the vendor caches and the cache holds two
                // entries.
                ["?p=1", "?p=2", "?p=1"].map(|query| get(query, Some(range)))
            })
            .chain([get("", None)])
            .collect()
    }

    #[test]
    fn edge_bed_meters_like_the_core_testbed() {
        for vendor in Vendor::ALL {
            for size in [1024, 10 * 1024 * 1024] {
                for defended in [false, true] {
                    let layer = || Arc::new(DefenseLayer::default()) as Arc<dyn DefenseHook>;
                    let mut builder = Testbed::builder()
                        .vendor(vendor)
                        .resource(TARGET_PATH, size);
                    if defended {
                        builder = builder.defense(layer());
                    }
                    let core = builder.build();
                    let wiring = Wiring {
                        defense: defended.then(layer),
                        ..Wiring::default()
                    };
                    let ours = EdgeBed::new(
                        vendor.profile(),
                        origin(size, OriginConfig::apache_default()),
                        &wiring,
                    );
                    let (mut want, mut got) = (Trail::new(), Trail::new());
                    for req in requests() {
                        core.reset_traffic();
                        let resp = core.request(&req);
                        want.push((
                            resp.status().as_u16(),
                            core.client_segment().stats().response_bytes,
                            core.origin_segment().stats().response_bytes,
                        ));
                        ours.reset();
                        let resp = ours.request(&req);
                        got.push((
                            resp.status().as_u16(),
                            ours.client_bytes(),
                            ours.victim_bytes(),
                        ));
                    }
                    assert_eq!(got, want, "{vendor:?}, {size} B, defended {defended}");
                }
            }
        }
    }

    #[test]
    fn cascade_bed_meters_like_the_core_cascade() {
        for (fcdn, bcdn) in obr_combos() {
            let attack = ObrAttack::new(fcdn, bcdn);
            let case = attack.range_case();
            let core = CascadeTestbed::with_profiles(fcdn.fcdn_profile(), bcdn.profile(), 1024);
            let ours = CascadeBed::new(
                fcdn.fcdn_profile(),
                bcdn.profile(),
                1024,
                &Wiring::default(),
            );
            let (mut want, mut got) = (Trail::new(), Trail::new());
            for n in [2, 16, attack.max_n()] {
                let req = get("", Some(&case.header(n).to_string()));
                for window in [u64::MAX, 1024] {
                    core.reset_traffic();
                    let resp = core.request_with_small_window(&req, window);
                    want.push((
                        resp.status().as_u16(),
                        core.client_segment().stats().response_bytes,
                        core.fcdn_bcdn_segment().stats().response_bytes,
                    ));
                    ours.reset();
                    let resp = ours.request(&req, window);
                    got.push((
                        resp.status().as_u16(),
                        ours.client_bytes(),
                        ours.victim_bytes(),
                    ));
                }
            }
            assert_eq!(got, want, "{fcdn:?} -> {bcdn:?}");
        }
    }
}
