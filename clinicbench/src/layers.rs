//! Per-layer figures for the traced run, measured from outside the
//! program: the gateway's span ring and counters (its existing
//! exposition), and an offline replay of the workload's own inputs
//! through each layer's public functions where a layer has no span.

use crate::inputs::{self, Inputs, ONEWAY_DROP, USER_BEAD};
use crate::stack::{Acknowledged, Stack, SHARDS};
use crate::stats::{median, ms, percentile};
use crate::Workload;
use medsen::audit::AuditRng;
use medsen::cloud::auth::BeadSignature;
use medsen::cloud::service::Request;
use medsen::cloud::{trace_digest, AnalysisServer, ShardedAuth};
use medsen::dsp::{detrend_segmented, match_amplitudes, robust_sigma};
use medsen::fountain::{decode_symbol_frame, Decoder, Encoder};
use medsen::phone::{compress, decompress, stream_seed_for, SymbolBudget, DEFAULT_SYMBOL_BYTES};
use medsen::telemetry::Stage;
use std::collections::BTreeMap;
use std::time::Instant;

/// The program's own counters at one instant.
#[derive(Debug, Clone, Default)]
pub struct Exposition {
    pub accepted: u64,
    pub rejected: u64,
    pub rate_limited: u64,
    pub wal_appends: u64,
    pub wal_fsyncs: u64,
    pub wal_bytes: u64,
    pub wal_snapshots: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub write_acquisitions: u64,
    pub contended_writes: u64,
    pub fountain_symbols: u64,
    pub fountain_evicted: u64,
    pub fountain_overhead_permille: u64,
    pub ship_failures: u64,
    pub spans_recorded: u64,
}

impl Exposition {
    pub fn read(stack: &Stack) -> Self {
        let snap = stack.gateway.registry_snapshot();
        let scalar = |name: &str| snap.scalar(name).unwrap_or(0);
        let metrics = stack.gateway.metrics();
        let wal = stack.pair.primary().storage_stats().unwrap_or_default();
        let shards = stack.gateway.service().shard_stats();
        Self {
            accepted: metrics.accepted,
            rejected: metrics.rejected,
            rate_limited: metrics.rate_limited,
            wal_appends: wal.appends,
            wal_fsyncs: wal.fsyncs,
            wal_bytes: wal.bytes_written,
            wal_snapshots: wal.snapshots_written,
            cache_hits: metrics.cache_hits,
            cache_misses: metrics.cache_misses,
            write_acquisitions: shards.iter().map(|s| s.write_acquisitions).sum(),
            contended_writes: shards.iter().map(|s| s.contended_writes).sum(),
            fountain_symbols: scalar("fountain.symbols_received"),
            fountain_evicted: scalar("fountain.sessions_evicted"),
            fountain_overhead_permille: scalar("fountain.overhead_permille"),
            ship_failures: scalar("replica.ship_failures"),
            spans_recorded: scalar("telemetry.spans_recorded"),
        }
    }

    /// Counter growth from `before` to `self` (gauges keep `self`'s value).
    pub fn since(&self, before: &Self) -> Self {
        Self {
            accepted: self.accepted - before.accepted,
            rejected: self.rejected - before.rejected,
            rate_limited: self.rate_limited - before.rate_limited,
            wal_appends: self.wal_appends - before.wal_appends,
            wal_fsyncs: self.wal_fsyncs - before.wal_fsyncs,
            wal_bytes: self.wal_bytes - before.wal_bytes,
            wal_snapshots: self.wal_snapshots - before.wal_snapshots,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            write_acquisitions: self.write_acquisitions - before.write_acquisitions,
            contended_writes: self.contended_writes - before.contended_writes,
            fountain_symbols: self.fountain_symbols - before.fountain_symbols,
            fountain_evicted: self.fountain_evicted - before.fountain_evicted,
            fountain_overhead_permille: self.fountain_overhead_permille,
            ship_failures: self.ship_failures - before.ship_failures,
            spans_recorded: self.spans_recorded - before.spans_recorded,
        }
    }
}

/// Span durations per stage recorded since a mark, in ms.
pub struct Spans {
    pub by_stage: BTreeMap<Stage, Vec<f64>>,
    pub traces: usize,
    pub spans: usize,
    /// The ring recorded more spans in the window than it retains.
    pub wrapped: bool,
}

/// Where the traced phase starts in the span ring.
pub struct Mark {
    at: Instant,
    recorded: u64,
}

impl Mark {
    pub fn now(stack: &Stack) -> Self {
        let recorded = stack.gateway.span_recorder().map_or(0, |r| r.recorded());
        Self {
            at: Instant::now(),
            recorded,
        }
    }

    pub fn spans(&self, stack: &Stack) -> Spans {
        let Some(recorder) = stack.gateway.span_recorder() else {
            return Spans {
                by_stage: BTreeMap::new(),
                traces: 0,
                spans: 0,
                wrapped: false,
            };
        };
        let from = recorder.nanos_at(self.at);
        let window: Vec<_> = recorder
            .snapshot()
            .into_iter()
            .filter(|s| s.start_ns >= from)
            .collect();
        let mut by_stage: BTreeMap<Stage, Vec<f64>> = BTreeMap::new();
        let mut traces = std::collections::BTreeSet::new();
        for span in &window {
            by_stage
                .entry(span.stage)
                .or_default()
                .push(span.duration_ns() as f64 / 1e6);
            traces.insert(span.trace.get());
        }
        Spans {
            by_stage,
            traces: traces.len(),
            spans: window.len(),
            wrapped: recorder.recorded() - self.recorded > recorder.capacity() as u64,
        }
    }
}

impl Spans {
    pub fn p50(&self, stage: Stage) -> Option<f64> {
        self.by_stage.get(&stage).map(|v| median(v))
    }

    pub fn pct(&self, stage: Stage, p: f64) -> Option<f64> {
        self.by_stage.get(&stage).map(|v| percentile(v, p))
    }
}

/// Medians of the offline replay, one value per layer function.
#[derive(Debug, Default)]
pub struct Replay {
    pub compress_ms: f64,
    pub compress_ratio: f64,
    pub decompress_ms: f64,
    pub wire_decode_ms: f64,
    pub fountain_encode_ms: f64,
    pub fountain_decode_ms: f64,
    pub fountain_symbols: f64,
    pub fountain_overhead: f64,
    pub detrend_ms: f64,
    pub detect_ms: f64,
    pub features_ms: f64,
    pub peaks: f64,
    pub authenticate_ms: f64,
    pub cache_digest_ms: f64,
}

/// Replays a sample of the workload's requests through every layer
/// function that has no span of its own.
pub fn replay(workload: Workload, inputs: &Inputs, acked: &Acknowledged) -> Replay {
    let requests: Vec<Request> = match workload {
        Workload::RecordsDurable => inputs
            .users
            .iter()
            .flat_map(|u| u.traces.iter().take(4))
            .map(|t| Request::Analyze {
                trace: t.clone(),
                authenticate: true,
            })
            .collect(),
        _ => inputs
            .diagnoses
            .iter()
            .take(16)
            .map(|d| d.request.clone())
            .collect(),
    };
    // LZW and the fountain code are slow on 60 s uploads: replay fewer.
    let heavy = match workload {
        Workload::ClinicDiagnose => 3,
        _ => requests.len(),
    };
    let mut r = Replay::default();
    let mut timings: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut time =
        |name, started: Instant| timings.entry(name).or_default().push(ms(started.elapsed()));
    let mut ratios = Vec::new();
    let mut symbols = Vec::new();
    let mut overheads = Vec::new();
    let mut peaks = Vec::new();
    let mut rng = AuditRng::new(inputs.seed ^ 0x0F0F);
    for (i, request) in requests.iter().enumerate() {
        let upload = inputs::framed_upload(i as u64 + 1, request);
        let started = Instant::now();
        let (_, format, body, _) =
            medsen::gateway::wire::decode_upload_traced(&upload).expect("own upload decodes");
        let decoded = medsen::cloud::wire::decode_request_traced(format, &body);
        time("wire", started);
        assert!(decoded.is_ok(), "own request decodes");

        if let Request::Analyze { trace, .. } = request {
            // The response cache hashes every uploaded trace, hit or miss.
            let started = Instant::now();
            std::hint::black_box(trace_digest(trace));
            time("digest", started);
            let server = AnalysisServer::paper_default();
            let started = Instant::now();
            let depths: Vec<Vec<f64>> = trace
                .channels()
                .iter()
                .map(|c| detrend_segmented(&c.samples, &server.detrend))
                .collect();
            time("detrend", started);
            let started = Instant::now();
            let reference = (0..trace.channels().len())
                .min_by(|&a, &b| {
                    let carrier = |i: usize| trace.channels()[i].carrier.value();
                    carrier(a).total_cmp(&carrier(b))
                })
                .expect("traces have channels");
            let mut detector = server.detector;
            detector.threshold = detector
                .threshold
                .max(server.adaptive_sigma_factor * robust_sigma(&depths[reference]));
            let found = detector.detect(&depths[reference], trace.sample_rate.value());
            time("detect", started);
            let started = Instant::now();
            let features = match_amplitudes(&depths, &found, server.feature_half_window);
            time("features", started);
            assert_eq!(features.len(), found.len());
            peaks.push(found.len() as f64);
        }

        if i >= heavy {
            continue;
        }
        let started = Instant::now();
        let packed = compress(&upload);
        time("compress", started);
        ratios.push(packed.len() as f64 / upload.len() as f64);
        let started = Instant::now();
        let restored = decompress(&packed).expect("own stream decompresses");
        time("decompress", started);
        assert_eq!(restored, upload);

        let session = i as u64 + 1;
        let started = Instant::now();
        let mut encoder = Encoder::new(
            session,
            stream_seed_for(session, 0),
            &packed,
            DEFAULT_SYMBOL_BYTES,
        )
        .expect("upload fits one block");
        let k = encoder.source_symbols();
        let total = SymbolBudget::for_drop_rate(ONEWAY_DROP).symbols_for(k);
        let frames: Vec<Vec<u8>> = (0..total).map(|id| encoder.symbol_bytes(id)).collect();
        time("fountain_encode", started);
        let started = Instant::now();
        let mut decoder: Option<Decoder> = None;
        let mut pushed = 0u64;
        for wire in &frames {
            if rng.next_f64() < ONEWAY_DROP {
                continue;
            }
            let (frame, _) = decode_symbol_frame(wire).expect("own frame decodes");
            let d = decoder.get_or_insert_with(|| Decoder::for_frame(&frame).expect("bootstrap"));
            pushed += 1;
            if d.push_frame(&frame).expect("one stream") {
                break;
            }
        }
        time("fountain_decode", started);
        let block = decoder.and_then(|d| d.block());
        assert_eq!(
            block.as_deref(),
            Some(packed.as_slice()),
            "fountain replay round-trips"
        );
        symbols.push(pushed as f64);
        overheads.push(pushed as f64 / k as f64);
    }
    let med = |name: &str| timings.get(name).map_or(0.0, |v| median(v));
    r.wire_decode_ms = med("wire");
    r.detrend_ms = med("detrend");
    r.detect_ms = med("detect");
    r.features_ms = med("features");
    r.compress_ms = med("compress");
    r.decompress_ms = med("decompress");
    r.fountain_encode_ms = med("fountain_encode");
    r.fountain_decode_ms = med("fountain_decode");
    r.compress_ratio = median(&ratios);
    r.fountain_symbols = median(&symbols);
    r.fountain_overhead = median(&overheads);
    r.peaks = median(&peaks);
    r.cache_digest_ms = med("digest");
    r.authenticate_ms = authenticate(inputs, acked);
    r
}

/// `ShardedAuth::authenticate` over the population the service held at
/// the end of the run, for each user's signature (a fixed probe signature
/// on workloads without users).
fn authenticate(inputs: &Inputs, acked: &Acknowledged) -> f64 {
    let auth = ShardedAuth::new(SHARDS);
    let users = inputs.users.iter().map(|u| (u.id.clone(), u.signature()));
    for (id, signature) in inputs
        .population
        .iter()
        .cloned()
        .chain(users)
        .chain(acked.enrolled.iter().cloned())
    {
        auth.enroll(id, signature);
    }
    let probes: Vec<BeadSignature> = if inputs.users.is_empty() {
        vec![BeadSignature::from_counts(&[(USER_BEAD, 5)])]
    } else {
        inputs.users.iter().map(|u| u.signature()).collect()
    };
    let times: Vec<f64> = (0..64)
        .map(|i| {
            let started = Instant::now();
            std::hint::black_box(auth.authenticate(&probes[i % probes.len()]));
            ms(started.elapsed())
        })
        .collect();
    median(&times)
}
