//! Testbed wiring: client ↔ CDN(s) ↔ origin with byte-metered segments.

use std::sync::Arc;

use rangeamp_cdn::{
    BreakerConfig, Cache, ClockedOrigin, DefenseHook, EdgeNode, FaultyUpstream, Resilience,
    UpstreamService, Vendor, VendorProfile,
};
use rangeamp_http::{Request, Response};
use rangeamp_net::metrics::{FACTOR_BUCKETS, LATENCY_BUCKETS_MS};
use rangeamp_net::{FaultPlan, Segment, SegmentName, SharedClock, SpanKind, Telemetry};
use rangeamp_origin::{OriginConfig, OriginServer, ResourceStore};

/// Default target path used by the attack builders.
pub const TARGET_PATH: &str = "/target.bin";
/// Default Host header of the victim site.
pub const TARGET_HOST: &str = "victim.example";

/// A single-CDN deployment (paper Fig 3a): client → CDN → origin.
///
/// # Example
///
/// ```
/// use rangeamp::Testbed;
/// use rangeamp_cdn::Vendor;
/// use rangeamp_http::Request;
///
/// let bed = Testbed::builder()
///     .vendor(Vendor::Fastly)
///     .resource("/f.bin", 1024 * 1024)
///     .build();
/// let req = Request::get("/f.bin?r=1")
///     .header("Host", "victim.example")
///     .header("Range", "bytes=0-0")
///     .build();
/// let resp = bed.request(&req);
/// assert_eq!(resp.body().len(), 1);
/// assert!(bed.origin_segment().stats().response_bytes > 1024 * 1024);
/// ```
#[derive(Debug)]
pub struct Testbed {
    client_segment: Segment,
    edge: EdgeNode,
    origin: Arc<OriginServer>,
}

impl Testbed {
    /// Starts a builder with Akamai and a 1 MB `/target.bin`.
    pub fn builder() -> TestbedBuilder {
        TestbedBuilder::default()
    }

    /// Sends one client request through the CDN, metering both segments.
    ///
    /// With telemetry attached (see [`TestbedBuilder::telemetry`]) the
    /// request roots a new trace: a `client-request` span wraps the whole
    /// exchange, the edge/fetch/origin spans nest beneath it, and the
    /// per-request amplification factor (victim-segment response bytes ÷
    /// attacker-segment response bytes) lands in the
    /// `amplification_factor{vendor=…}` histogram.
    pub fn request(&self, req: &Request) -> Response {
        match self.edge.telemetry().cloned() {
            Some(tel) => self.traced_request(&tel, req, None),
            None => {
                self.client_segment.send_request(req);
                let resp = self.edge.handle(req);
                self.client_segment.send_response(&resp);
                resp
            }
        }
    }

    /// Sends one client request and immediately aborts the front-end
    /// connection after `received` response bytes (the Triukose et al.
    /// dropped-connection attack the paper evaluates in §VIII). The edge
    /// node decides — per vendor — whether the back-end transfer survives.
    pub fn request_aborted(&self, req: &Request, received: u64) -> Response {
        match self.edge.telemetry().cloned() {
            Some(tel) => self.traced_request(&tel, req, Some(received)),
            None => {
                self.client_segment.send_request(req);
                let resp = self.edge.handle_with_client_abort(req, received);
                self.client_segment.send_response_truncated(&resp, received);
                resp
            }
        }
    }

    /// The traced twin of `request`/`request_aborted`: identical metering
    /// calls in identical order, plus a root span and per-request metrics
    /// derived from the same segment counters the reports use.
    fn traced_request(&self, tel: &Telemetry, req: &Request, abort: Option<u64>) -> Response {
        let clock = self.edge.resilience().clock().clone();
        let vendor = self.edge.profile().vendor.to_string();
        let origin_before = self.edge.origin_segment().stats();
        let start_ms = clock.now_millis();

        self.client_segment.send_request(req);
        let mut span = tel
            .tracer()
            .start_trace("client-request", SpanKind::Request, start_ms);
        span.attr("vendor", vendor.clone());
        span.attr("uri", req.uri().to_string());
        if let Some(range) = req.headers().get("range") {
            span.attr("range", range);
        }
        span.add_bytes_in(req.wire_len());

        let resp = match abort {
            None => self.edge.handle(req),
            Some(received) => self.edge.handle_with_client_abort(req, received),
        };

        let delivered = match abort {
            None => resp.wire_len(),
            Some(received) => {
                span.attr("aborted_after", received.to_string());
                resp.wire_len().min(received)
            }
        };
        span.add_bytes_out(delivered);
        span.attr("status", resp.status().as_u16().to_string());
        span.finish(clock.now_millis());
        match abort {
            None => self.client_segment.send_response(&resp),
            Some(received) => self.client_segment.send_response_truncated(&resp, received),
        }

        let victim_bytes =
            self.edge.origin_segment().stats().response_bytes - origin_before.response_bytes;
        let metrics = tel.metrics();
        let labels = [("vendor", vendor.as_str())];
        metrics.counter_add("client_requests_total", &labels, 1);
        metrics.counter_add("client_request_bytes_total", &labels, req.wire_len());
        metrics.counter_add("client_response_bytes_total", &labels, delivered);
        metrics.observe_with(
            "amplification_factor",
            &labels,
            &FACTOR_BUCKETS,
            victim_bytes / delivered.max(1),
        );
        metrics.observe_with(
            "request_virtual_latency_ms",
            &labels,
            &LATENCY_BUCKETS_MS,
            clock.now_millis() - start_ms,
        );
        resp
    }

    /// The attacker-facing segment (`client-cdn`).
    pub fn client_segment(&self) -> &Segment {
        &self.client_segment
    }

    /// The victim segment (`cdn-origin`).
    pub fn origin_segment(&self) -> &Segment {
        self.edge.origin_segment()
    }

    /// The edge node.
    pub fn edge(&self) -> &EdgeNode {
        &self.edge
    }

    /// The origin server.
    pub fn origin(&self) -> &Arc<OriginServer> {
        &self.origin
    }

    /// Zeroes traffic counters on both segments (between iterations).
    pub fn reset_traffic(&self) {
        self.client_segment.reset();
        self.edge.origin_segment().reset();
    }
}

/// Builder for [`Testbed`].
#[derive(Debug)]
pub struct TestbedBuilder {
    profile: VendorProfile,
    resources: Vec<(String, u64, &'static str)>,
    origin_config: OriginConfig,
    fault_plan: Option<Arc<FaultPlan>>,
    breaker: Option<BreakerConfig>,
    cache_ttl_ms: Option<u64>,
    telemetry: Option<Telemetry>,
    defense: Option<Arc<dyn DefenseHook>>,
}

impl Default for TestbedBuilder {
    fn default() -> TestbedBuilder {
        TestbedBuilder {
            profile: Vendor::Akamai.profile(),
            resources: vec![(
                TARGET_PATH.to_string(),
                1024 * 1024,
                "application/octet-stream",
            )],
            origin_config: OriginConfig::apache_default(),
            fault_plan: None,
            breaker: None,
            cache_ttl_ms: None,
            telemetry: None,
            defense: None,
        }
    }
}

impl TestbedBuilder {
    /// Uses the given vendor's default (vulnerable) profile.
    pub fn vendor(mut self, vendor: Vendor) -> TestbedBuilder {
        self.profile = vendor.profile();
        self
    }

    /// Uses an explicit profile (e.g. a mitigated one).
    pub fn profile(mut self, profile: VendorProfile) -> TestbedBuilder {
        self.profile = profile;
        self
    }

    /// Replaces the resource set with a single synthetic resource.
    pub fn resource(mut self, path: &str, size: u64) -> TestbedBuilder {
        self.resources = vec![(path.to_string(), size, "application/octet-stream")];
        self
    }

    /// Adds a synthetic resource.
    pub fn add_resource(mut self, path: &str, size: u64) -> TestbedBuilder {
        self.resources
            .push((path.to_string(), size, "application/octet-stream"));
        self
    }

    /// Overrides the origin configuration (e.g. ranges disabled).
    pub fn origin_config(mut self, config: OriginConfig) -> TestbedBuilder {
        self.origin_config = config;
        self
    }

    /// Injects faults on the CDN → origin path according to `plan`
    /// (chaos experiments). The edge is wired onto a shared virtual
    /// clock so retries, breaker windows and origin load-shedding line
    /// up deterministically.
    pub fn fault_plan(mut self, plan: FaultPlan) -> TestbedBuilder {
        self.fault_plan = Some(Arc::new(plan));
        self
    }

    /// Overrides the edge's circuit-breaker configuration.
    pub fn breaker(mut self, config: BreakerConfig) -> TestbedBuilder {
        self.breaker = Some(config);
        self
    }

    /// Gives the edge cache a freshness TTL (virtual ms), enabling
    /// serve-stale: expired entries are served with `Warning: 110` when
    /// the upstream fails.
    pub fn cache_ttl_ms(mut self, ttl_ms: u64) -> TestbedBuilder {
        self.cache_ttl_ms = Some(ttl_ms);
        self
    }

    /// Attaches a telemetry bundle: the origin and edge record spans and
    /// metrics for every request, the segments stamp captures with the
    /// shared virtual clock, and [`Testbed::request`] roots one trace per
    /// client request.
    pub fn telemetry(mut self, telemetry: Telemetry) -> TestbedBuilder {
        self.telemetry = Some(telemetry);
        self
    }

    /// Attaches an online defense hook to the edge: it is consulted for
    /// an enforcement action before every admitted request and observes
    /// the per-request origin/client byte outcome (DESIGN.md §12).
    pub fn defense(mut self, hook: Arc<dyn DefenseHook>) -> TestbedBuilder {
        self.defense = Some(hook);
        self
    }

    /// Wires everything together.
    pub fn build(self) -> Testbed {
        let mut store = ResourceStore::new();
        for (path, size, ct) in &self.resources {
            store.add_synthetic(path, *size, ct);
        }
        let mut origin_server = OriginServer::with_config(store, self.origin_config);
        if let Some(tel) = &self.telemetry {
            origin_server = origin_server.with_telemetry(tel.clone());
        }
        let origin = Arc::new(origin_server);
        let origin_segment = Segment::new(SegmentName::CdnOrigin);
        let chaos_wired =
            self.fault_plan.is_some() || self.breaker.is_some() || self.cache_ttl_ms.is_some();
        let mut edge = if chaos_wired {
            let clock = SharedClock::new();
            let clocked: Arc<dyn UpstreamService> =
                Arc::new(ClockedOrigin::new(origin.clone(), clock.clone()));
            let upstream: Arc<dyn UpstreamService> = match &self.fault_plan {
                Some(plan) => Arc::new(FaultyUpstream::new(clocked, plan.clone())),
                None => clocked,
            };
            let resilience =
                Resilience::new(self.profile.retry, self.breaker.unwrap_or_default(), clock);
            let mut edge =
                EdgeNode::new(self.profile, upstream, origin_segment).with_resilience(resilience);
            if let Some(ttl) = self.cache_ttl_ms {
                edge = edge.with_cache(Cache::new().with_ttl(ttl));
            }
            edge
        } else {
            EdgeNode::new(self.profile, origin.clone(), origin_segment)
        };
        if let Some(tel) = self.telemetry {
            edge = edge.with_telemetry(tel);
        }
        if let Some(hook) = self.defense {
            edge = edge.with_defense(hook);
        }
        // Both segments stamp captures off the edge's clock, so client-
        // and origin-side captures interleave into one timeline.
        let clock = edge.resilience().clock().clone();
        let client_segment = Segment::new(SegmentName::ClientCdn);
        client_segment.attach_clock(clock.clone());
        edge.origin_segment().attach_clock(clock);
        Testbed {
            client_segment,
            edge,
            origin,
        }
    }
}

/// A cascaded two-CDN deployment (paper Fig 3b):
/// client → FCDN → BCDN → origin.
///
/// The attacker controls the wiring: the FCDN's origin is set to a BCDN
/// ingress node, and the origin (the attacker's own) has range support
/// disabled so the BCDN always receives a complete 200 (§IV-C).
#[derive(Debug)]
pub struct CascadeTestbed {
    client_segment: Segment,
    fcdn: EdgeNode,
    bcdn: Arc<EdgeNode>,
    origin: Arc<OriginServer>,
}

impl CascadeTestbed {
    /// Wires `fcdn` in front of `bcdn` over a 1 KB target resource, the
    /// Table V configuration.
    pub fn new(fcdn: Vendor, bcdn: Vendor) -> CascadeTestbed {
        CascadeTestbed::with_profiles(fcdn.fcdn_profile(), bcdn.profile(), 1024)
    }

    /// Full control over both profiles and the resource size
    /// (mitigation ablations).
    pub fn with_profiles(
        fcdn_profile: VendorProfile,
        bcdn_profile: VendorProfile,
        size: u64,
    ) -> CascadeTestbed {
        let origin = Arc::new(CascadeTestbed::cascade_origin(size, None));
        let bcdn_segment = Segment::new(SegmentName::BcdnOrigin);
        let bcdn_node = Arc::new(EdgeNode::new(bcdn_profile, origin.clone(), bcdn_segment));
        let fcdn_segment = Segment::new(SegmentName::FcdnBcdn);
        let fcdn = EdgeNode::new(fcdn_profile, bcdn_node.clone(), fcdn_segment);
        CascadeTestbed::assemble(fcdn, bcdn_node, origin)
    }

    /// Cascade with an online defense hook on the FCDN — the edge whose
    /// origin-facing segment (`fcdn-bcdn`) is the OBR victim link. Both
    /// edges share one virtual clock so the defense's sliding windows
    /// advance consistently across the cascade; the client id header is
    /// forwarded upstream wholesale, so the BCDN could attach its own
    /// hook the same way.
    pub fn with_profiles_defense(
        fcdn_profile: VendorProfile,
        bcdn_profile: VendorProfile,
        size: u64,
        defense: Arc<dyn DefenseHook>,
    ) -> CascadeTestbed {
        let origin = Arc::new(CascadeTestbed::cascade_origin(size, None));
        let clock = SharedClock::new();
        let bcdn_segment = Segment::new(SegmentName::BcdnOrigin);
        let bcdn_resilience =
            Resilience::new(bcdn_profile.retry, BreakerConfig::default(), clock.clone());
        let bcdn = EdgeNode::new(bcdn_profile, origin.clone(), bcdn_segment)
            .with_resilience(bcdn_resilience);
        let bcdn_node = Arc::new(bcdn);
        let fcdn_segment = Segment::new(SegmentName::FcdnBcdn);
        let fcdn_resilience = Resilience::new(fcdn_profile.retry, BreakerConfig::default(), clock);
        let fcdn = EdgeNode::new(fcdn_profile, bcdn_node.clone(), fcdn_segment)
            .with_resilience(fcdn_resilience)
            .with_defense(defense);
        CascadeTestbed::assemble(fcdn, bcdn_node, origin)
    }

    /// Cascade with fault injection on the `bcdn-origin` path. Both
    /// edges run their vendor retry policies and circuit breakers on one
    /// shared virtual clock, so an FCDN retrying into a broken BCDN is
    /// observable end to end (retry amplification across the cascade).
    ///
    /// A telemetry bundle, when given, is shared by both edges and the
    /// origin. The BCDN sits behind an `Arc`, so telemetry must be
    /// injected at construction time — it cannot be attached to a built
    /// cascade.
    pub fn with_chaos(
        fcdn_profile: VendorProfile,
        bcdn_profile: VendorProfile,
        size: u64,
        plan: FaultPlan,
        breaker: BreakerConfig,
        telemetry: Option<Telemetry>,
    ) -> CascadeTestbed {
        let origin = Arc::new(CascadeTestbed::cascade_origin(size, telemetry.as_ref()));
        let clock = SharedClock::new();
        let clocked: Arc<dyn UpstreamService> =
            Arc::new(ClockedOrigin::new(origin.clone(), clock.clone()));
        let faulty: Arc<dyn UpstreamService> =
            Arc::new(FaultyUpstream::new(clocked, Arc::new(plan)));
        let bcdn_segment = Segment::new(SegmentName::BcdnOrigin);
        let bcdn_resilience = Resilience::new(bcdn_profile.retry, breaker, clock.clone());
        let mut bcdn =
            EdgeNode::new(bcdn_profile, faulty, bcdn_segment).with_resilience(bcdn_resilience);
        if let Some(tel) = &telemetry {
            bcdn = bcdn.with_telemetry(tel.clone());
        }
        let bcdn_node = Arc::new(bcdn);
        let fcdn_segment = Segment::new(SegmentName::FcdnBcdn);
        let fcdn_resilience = Resilience::new(fcdn_profile.retry, breaker, clock);
        let mut fcdn = EdgeNode::new(fcdn_profile, bcdn_node.clone(), fcdn_segment)
            .with_resilience(fcdn_resilience);
        if let Some(tel) = &telemetry {
            fcdn = fcdn.with_telemetry(tel.clone());
        }
        CascadeTestbed::assemble(fcdn, bcdn_node, origin)
    }

    fn cascade_origin(size: u64, telemetry: Option<&Telemetry>) -> OriginServer {
        let mut store = ResourceStore::new();
        store.add_synthetic(TARGET_PATH, size, "application/octet-stream");
        let mut origin = OriginServer::with_config(store, OriginConfig::ranges_disabled());
        if let Some(tel) = telemetry {
            origin = origin.with_telemetry(tel.clone());
        }
        origin
    }

    /// Final wiring shared by all constructors: create the client
    /// segment and stamp every segment's captures off the FCDN's clock
    /// (in chaos cascades all edges share one clock already).
    fn assemble(fcdn: EdgeNode, bcdn: Arc<EdgeNode>, origin: Arc<OriginServer>) -> CascadeTestbed {
        let clock = fcdn.resilience().clock().clone();
        let client_segment = Segment::new(SegmentName::ClientFcdn);
        client_segment.attach_clock(clock.clone());
        fcdn.origin_segment().attach_clock(clock.clone());
        bcdn.origin_segment().attach_clock(clock);
        CascadeTestbed {
            client_segment,
            fcdn,
            bcdn,
            origin,
        }
    }

    /// Sends one client request through the cascade. With telemetry
    /// attached, the request roots a new trace whose spans cover
    /// client→FCDN, FCDN→BCDN and BCDN→origin, and the OBR amplification
    /// factor (victim `fcdn-bcdn` bytes ÷ attacker bytes) is recorded.
    pub fn request(&self, req: &Request) -> Response {
        let Some(tel) = self.fcdn.telemetry().cloned() else {
            self.client_segment.send_request(req);
            let resp = self.fcdn.handle(req);
            self.client_segment.send_response(&resp);
            return resp;
        };
        let clock = self.fcdn.resilience().clock().clone();
        let start_ms = clock.now_millis();
        let middle_before = self.fcdn.origin_segment().stats();

        self.client_segment.send_request(req);
        let mut span = tel
            .tracer()
            .start_trace("client-request", SpanKind::Request, start_ms);
        let fcdn_vendor = self.fcdn.profile().vendor.to_string();
        span.attr("fcdn", fcdn_vendor.clone());
        span.attr("bcdn", self.bcdn.profile().vendor.to_string());
        span.attr("uri", req.uri().to_string());
        if let Some(range) = req.headers().get("range") {
            span.attr("range", range);
        }
        span.add_bytes_in(req.wire_len());
        let resp = self.fcdn.handle(req);
        span.add_bytes_out(resp.wire_len());
        span.attr("status", resp.status().as_u16().to_string());
        span.finish(clock.now_millis());
        self.client_segment.send_response(&resp);

        let victim_bytes =
            self.fcdn.origin_segment().stats().response_bytes - middle_before.response_bytes;
        let labels = [("fcdn", fcdn_vendor.as_str())];
        tel.metrics()
            .counter_add("client_requests_total", &labels, 1);
        tel.metrics().observe_with(
            "amplification_factor",
            &labels,
            &FACTOR_BUCKETS,
            victim_bytes / resp.wire_len().max(1),
        );
        resp
    }

    /// Like [`CascadeTestbed::request`], but the attacker only receives
    /// `receive_window` bytes of the response before aborting (§IV-C's
    /// small-TCP-window / early-abort trick).
    pub fn request_with_small_window(&self, req: &Request, receive_window: u64) -> Response {
        self.client_segment.send_request(req);
        let resp = self.fcdn.handle(req);
        self.client_segment
            .send_response_truncated(&resp, receive_window);
        resp
    }

    /// The attacker-facing segment (`client-fcdn`).
    pub fn client_segment(&self) -> &Segment {
        &self.client_segment
    }

    /// The victim segment of the OBR attack (`fcdn-bcdn`).
    pub fn fcdn_bcdn_segment(&self) -> &Segment {
        self.fcdn.origin_segment()
    }

    /// The `bcdn-origin` segment.
    pub fn bcdn_origin_segment(&self) -> &Segment {
        self.bcdn.origin_segment()
    }

    /// The FCDN node.
    pub fn fcdn(&self) -> &EdgeNode {
        &self.fcdn
    }

    /// The BCDN node.
    pub fn bcdn(&self) -> &Arc<EdgeNode> {
        &self.bcdn
    }

    /// The origin server (the attacker's, range support off).
    pub fn origin(&self) -> &Arc<OriginServer> {
        &self.origin
    }

    /// Zeroes all traffic counters.
    pub fn reset_traffic(&self) {
        self.client_segment.reset();
        self.fcdn.origin_segment().reset();
        self.bcdn.origin_segment().reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rangeamp_http::StatusCode;

    #[test]
    fn testbed_meters_both_segments() {
        let bed = Testbed::builder()
            .vendor(Vendor::Akamai)
            .resource("/f.bin", 100_000)
            .build();
        let req = Request::get("/f.bin?r=1")
            .header("Host", TARGET_HOST)
            .header("Range", "bytes=0-0")
            .build();
        let resp = bed.request(&req);
        assert_eq!(resp.status(), StatusCode::PARTIAL_CONTENT);
        assert_eq!(bed.client_segment().stats().requests, 1);
        assert_eq!(bed.origin_segment().stats().requests, 1);
        assert!(bed.origin_segment().stats().response_bytes > 100_000);
        assert!(bed.client_segment().stats().response_bytes < 2000);
    }

    #[test]
    fn reset_traffic_zeroes_counters() {
        let bed = Testbed::builder().build();
        let req = Request::get(TARGET_PATH)
            .header("Host", TARGET_HOST)
            .build();
        bed.request(&req);
        bed.reset_traffic();
        assert_eq!(bed.client_segment().stats().requests, 0);
        assert_eq!(bed.origin_segment().stats().requests, 0);
    }

    #[test]
    fn cascade_routes_through_both_cdns() {
        let bed = CascadeTestbed::new(Vendor::Cloudflare, Vendor::Akamai);
        let req = Request::get(TARGET_PATH)
            .header("Host", TARGET_HOST)
            .header("Range", "bytes=0-,0-,0-")
            .build();
        let resp = bed.request(&req);
        assert_eq!(resp.status(), StatusCode::PARTIAL_CONTENT);
        // Origin shipped 1 KB once; the fcdn-bcdn link carried ~3 KB.
        let origin_bytes = bed.bcdn_origin_segment().stats().response_bytes;
        let middle_bytes = bed.fcdn_bcdn_segment().stats().response_bytes;
        assert!(origin_bytes < 2_500, "origin sent {origin_bytes}");
        assert!(middle_bytes > 3_000, "middle carried {middle_bytes}");
    }

    #[test]
    fn small_receive_window_caps_attacker_cost() {
        let bed = CascadeTestbed::new(Vendor::StackPath, Vendor::Akamai);
        let req = Request::get(TARGET_PATH)
            .header("Host", TARGET_HOST)
            .header("Range", "bytes=0-,0-,0-,0-")
            .build();
        bed.request_with_small_window(&req, 512);
        assert_eq!(bed.client_segment().stats().response_bytes, 512);
        assert!(bed.client_segment().is_aborted());
    }
}
