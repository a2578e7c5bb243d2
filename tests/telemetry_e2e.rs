//! End-to-end telemetry acceptance test (ISSUE: medsen-telemetry).
//!
//! 64 concurrent dongle sessions enroll through the *async* gateway with
//! durable storage enabled. Every completed request must leave a complete
//! span chain in the recorder ring — phone encode → uplink → admission →
//! queue → service → shard lock → WAL append → WAL fsync → reply decode —
//! with per-stage start timestamps that never run backwards, and the text
//! exposition must surface every legacy counter under its stable dotted
//! name while round-tripping through the grammar parser. A second battery
//! pins the cross-tier propagation contract: one trace id spans phone
//! encode through replica ship for both uplink modes and both wire
//! formats.

use medsen::cloud::auth::BeadSignature;
use medsen::cloud::service::{CloudService, Response};
use medsen::cloud::FlushPolicy;
use medsen::gateway::{
    Gateway, GatewayConfig, RuntimeKind, SessionConfig, ShedPolicy, TelemetryConfig, UplinkMode,
};
use medsen::microfluidics::ParticleKind;
use medsen::telemetry::{parse_text_exposition, SamplerMode, SpanRecord, Stage};
use medsen::wire::WireFormat;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Barrier;

const SESSIONS: usize = 64;
const SHARDS: usize = 4;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("medsen-telemetry-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sig(n: u64) -> BeadSignature {
    BeadSignature::from_counts(&[(ParticleKind::Bead358, n)])
}

/// Spans grouped per trace, keyed by the raw trace id.
fn by_trace(spans: &[SpanRecord]) -> BTreeMap<u64, Vec<SpanRecord>> {
    let mut groups: BTreeMap<u64, Vec<SpanRecord>> = BTreeMap::new();
    for span in spans {
        groups.entry(span.trace.get()).or_default().push(*span);
    }
    groups
}

#[test]
fn every_completed_request_yields_a_full_span_chain() {
    let dir = temp_dir("e2e");
    let service = CloudService::with_storage(&dir, SHARDS, FlushPolicy::EveryWrite)
        .expect("open durable service");
    let gateway = Gateway::with_telemetry(
        service,
        GatewayConfig {
            queue_capacity: 32,
            workers: 4,
            shed_policy: ShedPolicy::Block,
        },
        TelemetryConfig {
            spans: true,
            // Oversized relative to SESSIONS * stage-count so the seqlock
            // ring cannot lap a slow reader mid-test.
            ring_capacity: 8192,
            exemplars: 4,
            sampling: SamplerMode::Always,
        },
    );

    // --- Drive the fleet: one unique enrollment per session, all writes
    // so each request crosses the shard lock *and* the WAL. ---
    let barrier = Barrier::new(SESSIONS);
    std::thread::scope(|scope| {
        for i in 0..SESSIONS {
            let gateway = &gateway;
            let barrier = &barrier;
            scope.spawn(move || {
                let mut session = gateway.connect(SessionConfig::reliable());
                barrier.wait(); // maximize shard-lock and queue contention
                let response = session
                    .enroll(&format!("patient-{i:02}"), sig((i % 5) as u64 + 1))
                    .expect("enrollment submits and completes");
                assert_eq!(response, Response::Enrolled);
                session.close().expect("session closes");
            });
        }
    });

    // --- Span chains: every completed request left all six stages. ---
    let recorder = gateway.span_recorder().expect("telemetry is on").clone();
    let spans = recorder.snapshot();
    let groups = by_trace(&spans);
    assert_eq!(
        groups.len(),
        SESSIONS,
        "one trace per completed enrollment (got {} traces over {} spans)",
        groups.len(),
        spans.len()
    );

    const CHAIN: [Stage; 9] = [
        Stage::PhoneEncode,
        Stage::Uplink,
        Stage::Admission,
        Stage::Queue,
        Stage::Service,
        Stage::ShardLock,
        Stage::WalAppend,
        Stage::WalFsync, // FlushPolicy::EveryWrite syncs every append
        Stage::ReplyDecode,
    ];
    for (trace, group) in &groups {
        let mut chain = group.clone();
        chain.sort_by_key(|s| s.stage as usize);
        let stages: Vec<Stage> = chain.iter().map(|s| s.stage).collect();
        assert_eq!(
            stages, CHAIN,
            "trace {trace:#010x} must span every stage exactly once"
        );
        // Stage order implies time order: a later stage never starts
        // before an earlier one, and no span ends before it starts.
        for pair in chain.windows(2) {
            assert!(
                pair[0].start_ns <= pair[1].start_ns,
                "trace {trace:#010x}: {} started at {} ns, after {} at {} ns",
                pair[0].stage.name(),
                pair[0].start_ns,
                pair[1].stage.name(),
                pair[1].start_ns
            );
        }
        for span in &chain {
            assert!(
                span.end_ns >= span.start_ns,
                "trace {trace:#010x}: {} ends before it starts",
                span.stage.name()
            );
        }
    }

    // --- Exemplars: the K-worst list is populated and worst-first. ---
    let slow = gateway.slow_traces();
    assert!(!slow.is_empty(), "64 requests must yield slow exemplars");
    assert!(slow.len() <= 4, "exemplar capacity bounds the list");
    for pair in slow.windows(2) {
        assert!(pair[0].total_ns >= pair[1].total_ns, "worst-first order");
    }
    for exemplar in &slow {
        assert!(
            exemplar.stages.iter().any(|s| s.stage == Stage::WalAppend),
            "slow enrollments break down to the WAL stage"
        );
    }

    // --- Exposition: parses, and every legacy counter name is present. ---
    let text = gateway.telemetry_text();
    let parsed = parse_text_exposition(&text).expect("exposition obeys its own grammar");
    let names: Vec<&str> = parsed.iter().map(|(name, _)| name.as_str()).collect();
    let legacy = [
        "gateway.accepted",
        "gateway.rejected",
        "gateway.retried",
        "gateway.completed",
        "gateway.failed",
        "gateway.queue_high_water",
        "gateway.lane.0.routed",
        "gateway.lane.0.depth_high_water",
        "gateway.queue_wait.count",
        "gateway.service_time.count",
        "gateway.uplink_time.count",
        "gateway.drained",
        "cloud.shard.0.contention",
        "cloud.shard.3.contention",
        "wal.appends",
        "wal.fsyncs",
        "wal.bytes_written",
        "wal.recovered_entries",
        "wal.recovered_truncated_bytes",
        "cache.hits",
        "cache.misses",
        "cache.entries",
        "telemetry.spans_recorded",
    ];
    for name in legacy {
        assert!(
            names.contains(&name),
            "exposition must carry `{name}`; got:\n{text}"
        );
    }
    let scalar = |name: &str| -> f64 {
        parsed
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("`{name}` missing from exposition"))
    };
    assert_eq!(scalar("gateway.accepted"), SESSIONS as f64);
    assert_eq!(scalar("gateway.completed"), SESSIONS as f64);
    assert_eq!(scalar("gateway.failed"), 0.0);
    assert!(scalar("wal.appends") >= SESSIONS as f64);
    assert!(scalar("telemetry.spans_recorded") >= (SESSIONS * CHAIN.len()) as f64);

    // --- The final metrics snapshot agrees with the registry view. ---
    let metrics = gateway.shutdown();
    assert_eq!(metrics.accepted, SESSIONS as u64);
    assert_eq!(metrics.completed, SESSIONS as u64);
    assert_eq!(metrics.lost(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The cross-tier propagation contract: the trace id the *phone* mints at
/// encode time is the one every downstream tier records against — across
/// both uplink modes (two-way retry and one-way fountain) and both wire
/// formats (binary and JSON), all the way to the replica ship. Exactly
/// one trace exists per request; the fountain route in particular must
/// *join* the originating stream's trace, not mint a second one for the
/// reassembled upload (the pre-fix behavior split every one-way request
/// into two disconnected traces).
#[test]
fn one_trace_id_spans_phone_encode_through_replica_ship() {
    use medsen::cloud::StorageConfig;
    use medsen::phone::SymbolBudget;
    use std::sync::Arc;

    let combos = [
        (UplinkMode::Retry, WireFormat::Binary, "retry-bin"),
        (UplinkMode::Retry, WireFormat::Json, "retry-json"),
        (
            UplinkMode::Fountain {
                budget: SymbolBudget::paper_default(),
            },
            WireFormat::Binary,
            "fountain-bin",
        ),
        (
            UplinkMode::Fountain {
                budget: SymbolBudget::paper_default(),
            },
            WireFormat::Json,
            "fountain-json",
        ),
    ];
    for (uplink, wire, tag) in combos {
        let dirs = [
            temp_dir(&format!("chain-{tag}-p")),
            temp_dir(&format!("chain-{tag}-s")),
        ];
        let [primary, standby] = dirs.each_ref().map(|dir| {
            CloudService::with_storage_config(
                StorageConfig::new(dir).flush(FlushPolicy::EveryWrite),
                SHARDS,
            )
            .expect("storage opens")
        });
        let pair = primary.with_replication(standby).expect("pair wires up");
        let gateway = Gateway::with_replicas(
            Arc::clone(&pair),
            GatewayConfig {
                queue_capacity: 32,
                workers: 2,
                shed_policy: ShedPolicy::Block,
            },
            RuntimeKind::Async,
            TelemetryConfig::default(),
        );

        let mut session = gateway.connect(SessionConfig {
            uplink,
            ..SessionConfig::reliable().with_wire(wire)
        });
        let response = session
            .enroll(&format!("chain-{tag}"), sig(3))
            .expect("enrollment completes");
        assert_eq!(response, Response::Enrolled, "{tag}");
        session.close().expect("session closes");

        let recorder = gateway.span_recorder().expect("telemetry on").clone();
        let groups = by_trace(&recorder.snapshot());
        assert_eq!(
            groups.len(),
            1,
            "{tag}: one request must leave exactly one trace, got {:?}",
            groups.keys().collect::<Vec<_>>()
        );
        let (trace, spans) = groups.into_iter().next().expect("one trace");
        let mut stages: Vec<Stage> = spans.iter().map(|s| s.stage).collect();
        stages.sort_by_key(|s| *s as usize);
        // The ship is synchronous in the primary's write path, so the
        // standby's own WAL append + fsync run on the worker thread and
        // join the same trace — the WAL stages appear once per node.
        let mut expected = vec![
            Stage::PhoneEncode,
            Stage::Uplink,
            Stage::Admission,
            Stage::Queue,
            Stage::Service,
            Stage::ShardLock,
            Stage::WalAppend,
            Stage::WalAppend,
            Stage::WalFsync,
            Stage::WalFsync,
            Stage::Replication,
            Stage::ReplyDecode,
        ];
        if matches!(uplink, UplinkMode::Fountain { .. }) {
            expected.insert(2, Stage::FountainDecode);
        }
        assert_eq!(
            stages, expected,
            "{tag}: trace {trace:#010x} must cover phone encode → replica ship"
        );

        gateway.shutdown();
        drop(pair);
        for dir in dirs {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
