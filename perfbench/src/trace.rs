//! The traced replay: the daemon's serving path rebuilt in-process from
//! the layers' public calls, so each layer's cost on the workload's exact
//! requests can be timed. One replay runs with no spans, one with a span
//! around each call; spans stay in memory until the run ends.

use hre_cluster::{shard_key, HashRing};
use hre_svc::{CacheKey, ElectRequest, ParseStep, RequestParser, Response, ShardedLru};
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Request,
    Parse,
    Decode,
    Hash,
    Canon,
    CacheGet,
    Engine,
    CacheInsert,
    Encode,
    Frame,
}

const LAYERS: usize = 10;
const NO_PARENT: u32 = u32::MAX;

/// Where a replay reports its spans.
pub trait Tracer {
    fn open(&mut self, layer: Layer) -> usize;
    fn close(&mut self, token: usize);
}

/// No spans: the bare replay.
pub struct Off;

impl Tracer for Off {
    #[inline(always)]
    fn open(&mut self, _: Layer) -> usize {
        0
    }
    #[inline(always)]
    fn close(&mut self, _: usize) {}
}

/// One span: name, start, end and parent; the spans of one request share
/// its id.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    pub request: u32,
    pub parent: u32,
    pub start: Instant,
    pub end: Instant,
}

/// Records every span in memory.
#[derive(Default)]
pub struct Spans {
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    requests: u32,
}

impl Tracer for Spans {
    fn open(&mut self, layer: Layer) -> usize {
        if layer == Layer::Request {
            self.requests += 1;
        }
        let at = self.spans.len();
        let now = Instant::now();
        self.spans.push(Span {
            layer,
            request: self.requests - 1,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            start: now,
            end: now,
        });
        self.stack.push(at as u32);
        at
    }

    fn close(&mut self, token: usize) {
        self.spans[token].end = Instant::now();
        self.stack.pop();
    }
}

/// Per request: self time and call count of each layer.
#[derive(Clone, Debug, Default)]
pub struct RequestCost {
    pub self_ns: [u64; LAYERS],
    pub calls: [u32; LAYERS],
}

impl RequestCost {
    /// Elections in the request (one canonicalisation each).
    pub fn entries(&self) -> u32 {
        self.calls[Layer::Canon as usize]
    }

    /// Summed self time of every layer below the request span.
    pub fn layers_ns(&self) -> u64 {
        self.self_ns.iter().skip(1).sum()
    }

    pub fn ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer as usize]
    }
}

/// Self time per span: its duration minus the time its children cover.
/// Also returns the per-request totals.
pub fn self_times(spans: &[Span]) -> (Vec<u64>, Vec<RequestCost>) {
    let dur = |s: &Span| s.end.saturating_duration_since(s.start).as_nanos() as u64;
    let mut own: Vec<u64> = spans.iter().map(dur).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(dur(s));
        }
    }
    let requests = spans.iter().map(|s| s.request as usize + 1).max().unwrap_or(0);
    let mut costs = vec![RequestCost::default(); requests];
    for (s, &ns) in spans.iter().zip(&own) {
        let c = &mut costs[s.request as usize];
        c.self_ns[s.layer as usize] += ns;
        c.calls[s.layer as usize] += 1;
    }
    (own, costs)
}

/// The daemon's serving path, in-process: one result cache of the
/// daemon's default size per backend, and for routed workloads the
/// router's consistent-hash placement over the fixed backend addresses.
pub struct Model {
    parser: RequestParser,
    scratch: hre_words::RotationScratch<u64>,
    caches: Vec<ShardedLru>,
    ring: Option<HashRing>,
}

impl Model {
    pub fn new(backends: Option<&[String]>) -> Model {
        let cfg = hre_svc::SvcConfig::default();
        let n = backends.map_or(1, <[String]>::len);
        Model {
            parser: RequestParser::new(cfg.max_body),
            scratch: hre_words::RotationScratch::new(),
            caches: (0..n).map(|_| ShardedLru::new(cfg.cache_cap, cfg.cache_shards)).collect(),
            ring: backends.map(|b| HashRing::new(b, hre_cluster::hash::DEFAULT_VNODES)),
        }
    }

    /// Serves one request's bytes; returns the response bytes.
    pub fn serve<T: Tracer>(&mut self, wire: &[u8], t: &mut T) -> Vec<u8> {
        let root = t.open(Layer::Request);
        let s = t.open(Layer::Parse);
        self.parser.push(wire);
        let req = match self.parser.step() {
            ParseStep::Request(req) => req,
            other => panic!("replayed request does not parse: {other:?}"),
        };
        t.close(s);
        let body = if req.path == "/elect/batch" {
            let s = t.open(Layer::Decode);
            let entries = hre_svc::batch_from_json(&req.body).expect("generated batches are valid");
            t.close(s);
            let mut docs = Vec::with_capacity(entries.len());
            for entry in entries {
                let request = entry.expect("generated entries are valid");
                let cache = match &self.ring {
                    Some(ring) => {
                        let s = t.open(Layer::Hash);
                        let owner = ring.preference_order(shard_key(&request.labels))[0];
                        t.close(s);
                        owner
                    }
                    None => 0,
                };
                docs.push(self.answer(&request, cache, t));
            }
            hre_svc::batch_response_body(&docs)
        } else {
            let s = t.open(Layer::Decode);
            let request = ElectRequest::from_json(&req.body).expect("generated requests are valid");
            t.close(s);
            self.answer(&request, 0, t)
        };
        let s = t.open(Layer::Frame);
        let bytes = Response::json(200, body).to_bytes(false);
        t.close(s);
        t.close(root);
        bytes
    }

    fn answer<T: Tracer>(&mut self, request: &ElectRequest, cache: usize, t: &mut T) -> String {
        let s = t.open(Layer::Canon);
        let (canon, rot) = request.canonicalized_with(&mut self.scratch);
        t.close(s);
        let key = CacheKey { canon: canon.labels.clone(), algo: canon.algo, k: canon.k };
        let s = t.open(Layer::CacheGet);
        let hit = self.caches[cache].get(&key);
        t.close(s);
        let result = match hit {
            Some(result) => result,
            None => {
                let s = t.open(Layer::Engine);
                let result = hre_svc::run_election(&canon);
                t.close(s);
                let s = t.open(Layer::CacheInsert);
                self.caches[cache].insert(key, result.clone());
                t.close(s);
                result
            }
        };
        let s = t.open(Layer::Encode);
        let doc = match result {
            Ok(out) => hre_svc::response_json(request, &out.into_coords(rot, request.labels.len())),
            Err(why) => hre_svc::error_json(&why),
        };
        t.close(s);
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let span =
            |layer, parent, s, e| Span { layer, request: 0, parent, start: at(s), end: at(e) };
        let spans = [
            span(Layer::Request, NO_PARENT, 0, 100),
            span(Layer::Parse, 0, 10, 30),
            span(Layer::Engine, 0, 40, 90),
        ];
        let (own, costs) = self_times(&spans);
        assert_eq!(own, vec![30_000, 20_000, 50_000]);
        assert_eq!(costs[0].layers_ns(), 70_000);
        assert_eq!(costs[0].ns(Layer::Request), 30_000);
    }

    #[test]
    fn replay_answers_like_the_checker_expects() {
        let backends: Vec<String> =
            crate::daemons::BACKENDS.iter().map(|s| s.to_string()).collect();
        for w in Workload::ALL {
            let stream = w.stream(31, 6);
            let mut model = Model::new(w.spec().routed.then_some(backends.as_slice()));
            let mut spans = Spans::default();
            for i in 0..stream.len() {
                let ex = stream.get(i).unwrap();
                let bytes = model.serve(&ex.wire, &mut spans);
                let head = bytes.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
                let reply = crate::wire::Reply {
                    status: 200,
                    body: bytes[head..].to_vec(),
                    wire_len: bytes.len(),
                };
                assert_eq!(crate::check::check(ex, &reply), crate::check::Verdict::Correct);
            }
            let (_, costs) = self_times(&spans.spans);
            assert_eq!(costs.len(), stream.len());
            assert!(costs.iter().all(|c| c.entries() as usize == w.spec().per_exchange));
        }
    }
}
