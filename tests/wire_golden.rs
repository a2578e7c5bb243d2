//! Golden-frame pin for the binary wire protocol.
//!
//! `tests/golden/` holds one committed binary frame and one JSON sidecar
//! per message variant, generated from the deterministic fixture corpus
//! (`medsen-cli wire-golden tests/golden --write`). This test re-derives
//! each fixture from the corpus and requires:
//!
//! * the committed binary bytes decode to exactly the corpus value,
//! * re-encoding the corpus value reproduces the committed bytes
//!   byte-for-byte (any codec change that shifts a byte fails here
//!   before it can strand deployed dongles), and
//! * the JSON sidecar decodes to the same value, pinning the two
//!   formats observationally equivalent on real persisted artifacts,
//!   not just in-memory round-trips.

use medsen::cloud::wire::{
    decode_request, decode_request_traced, decode_response, decode_response_traced, encode_request,
    encode_request_traced, encode_response, encode_response_traced, golden,
};
use medsen::wire::WireFormat;
use std::path::{Path, PathBuf};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

fn read(name: &str, ext: &str) -> Vec<u8> {
    let path = golden_dir().join(format!("{name}.{ext}"));
    std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with `medsen-cli wire-golden tests/golden --write`",
            path.display()
        )
    })
}

#[test]
fn request_golden_frames_are_byte_exact_and_equivalent() {
    for (name, expected) in golden::requests() {
        let committed = read(name, "bin");
        let decoded = decode_request(WireFormat::Binary, &committed)
            .unwrap_or_else(|e| panic!("{name}.bin no longer decodes: {e}"));
        assert_eq!(decoded, expected, "{name}.bin decoded to a drifted value");
        let rebuilt = encode_request(WireFormat::Binary, &expected).expect("encodes");
        assert_eq!(rebuilt, committed, "{name}.bin: binary wire format drifted");

        let sidecar = read(name, "json");
        let from_json = decode_request(WireFormat::Json, &sidecar)
            .unwrap_or_else(|e| panic!("{name}.json no longer decodes: {e}"));
        assert_eq!(from_json, expected, "{name}: JSON/binary equivalence broke");
    }
}

#[test]
fn response_golden_frames_are_byte_exact_and_equivalent() {
    for (name, expected) in golden::responses() {
        let committed = read(name, "bin");
        let decoded = decode_response(WireFormat::Binary, &committed)
            .unwrap_or_else(|e| panic!("{name}.bin no longer decodes: {e}"));
        assert_eq!(decoded, expected, "{name}.bin decoded to a drifted value");
        let rebuilt = encode_response(WireFormat::Binary, &expected).expect("encodes");
        assert_eq!(rebuilt, committed, "{name}.bin: binary wire format drifted");

        let sidecar = read(name, "json");
        let from_json = decode_response(WireFormat::Json, &sidecar)
            .unwrap_or_else(|e| panic!("{name}.json no longer decodes: {e}"));
        assert_eq!(from_json, expected, "{name}: JSON/binary equivalence broke");
    }
}

/// Trace-context fixtures pin the traced twin frame layout: the 0x80
/// twin kinds (binary) and the `{"trace":…,"body":…}` wrapper (JSON)
/// must stay byte-exact, and the pinned trace id must survive the round
/// trip through the *built* decoder.
#[test]
fn traced_golden_frames_pin_the_trace_context_layout() {
    for (name, expected) in golden::traced_requests() {
        let committed = read(name, "bin");
        let (decoded, trace) = decode_request_traced(WireFormat::Binary, &committed)
            .unwrap_or_else(|e| panic!("{name}.bin no longer decodes: {e}"));
        assert_eq!(decoded, expected, "{name}.bin decoded to a drifted value");
        assert_eq!(
            trace,
            Some(golden::TRACE_ID),
            "{name}.bin: trace id drifted"
        );
        let rebuilt = encode_request_traced(WireFormat::Binary, &expected, golden::TRACE_ID)
            .expect("encodes");
        assert_eq!(rebuilt, committed, "{name}.bin: traced wire format drifted");

        let sidecar = read(name, "json");
        let (from_json, json_trace) = decode_request_traced(WireFormat::Json, &sidecar)
            .unwrap_or_else(|e| panic!("{name}.json no longer decodes: {e}"));
        assert_eq!(from_json, expected, "{name}: JSON/binary equivalence broke");
        assert_eq!(
            json_trace,
            Some(golden::TRACE_ID),
            "{name}.json trace drifted"
        );
    }
    for (name, expected) in golden::traced_responses() {
        let committed = read(name, "bin");
        let (decoded, trace) = decode_response_traced(WireFormat::Binary, &committed)
            .unwrap_or_else(|e| panic!("{name}.bin no longer decodes: {e}"));
        assert_eq!(decoded, expected, "{name}.bin decoded to a drifted value");
        assert_eq!(
            trace,
            Some(golden::TRACE_ID),
            "{name}.bin: trace id drifted"
        );
        let rebuilt = encode_response_traced(WireFormat::Binary, &expected, golden::TRACE_ID)
            .expect("encodes");
        assert_eq!(rebuilt, committed, "{name}.bin: traced wire format drifted");

        let sidecar = read(name, "json");
        let (from_json, json_trace) = decode_response_traced(WireFormat::Json, &sidecar)
            .unwrap_or_else(|e| panic!("{name}.json no longer decodes: {e}"));
        assert_eq!(from_json, expected, "{name}: JSON/binary equivalence broke");
        assert_eq!(
            json_trace,
            Some(golden::TRACE_ID),
            "{name}.json trace drifted"
        );
    }
}

/// A pre-trace-context frame — plain kind byte, no trace field — must
/// keep decoding through the *traced* entry points, reporting "no trace"
/// rather than an error: deployed dongles that never learned the traced
/// twins stay first-class citizens.
#[test]
fn pre_trace_context_frames_decode_through_the_traced_entry_points() {
    for (name, expected) in golden::requests() {
        for format in [WireFormat::Binary, WireFormat::Json] {
            let ext = if format == WireFormat::Binary {
                "bin"
            } else {
                "json"
            };
            let committed = read(name, ext);
            let (decoded, trace) = decode_request_traced(format, &committed)
                .unwrap_or_else(|e| panic!("{name}.{ext}: traced decoder rejects legacy: {e}"));
            assert_eq!(decoded, expected, "{name}.{ext} drifted via traced decode");
            assert_eq!(trace, None, "{name}.{ext}: legacy frame grew a trace id");
        }
    }
    for (name, expected) in golden::responses() {
        for format in [WireFormat::Binary, WireFormat::Json] {
            let ext = if format == WireFormat::Binary {
                "bin"
            } else {
                "json"
            };
            let committed = read(name, ext);
            let (decoded, trace) = decode_response_traced(format, &committed)
                .unwrap_or_else(|e| panic!("{name}.{ext}: traced decoder rejects legacy: {e}"));
            assert_eq!(decoded, expected, "{name}.{ext} drifted via traced decode");
            assert_eq!(trace, None, "{name}.{ext}: legacy frame grew a trace id");
        }
    }
}

/// Framed-upload fixtures pin the `StartTest` + `DataChunk` framing
/// around a request body byte-for-byte in both directions: the committed
/// bytes decode to the corpus value, and re-framing the corpus value
/// reproduces the committed bytes.
#[test]
fn upload_golden_frames_are_byte_exact_in_both_directions() {
    use medsen::gateway::wire::{decode_upload_traced, golden as uploads, CHUNK_SIZE};

    let corpus = uploads::uploads();
    assert_eq!(corpus.len(), 2, "upload corpus changed size");
    for (name, fixture) in corpus {
        let committed = read(name, "bin");
        let (session, format, body, trace) = decode_upload_traced(&committed)
            .unwrap_or_else(|e| panic!("{name}.bin no longer decodes: {e}"));
        assert_eq!(session, uploads::SESSION_ID, "{name}.bin: session drifted");
        assert_eq!(format, fixture.format, "{name}.bin: format drifted");
        assert_eq!(trace, fixture.trace, "{name}.bin: header trace drifted");
        let (request, body_trace) = decode_request_traced(format, &body)
            .unwrap_or_else(|e| panic!("{name}.bin: body no longer decodes: {e}"));
        assert_eq!(
            request, fixture.request,
            "{name}.bin decoded to a drifted value"
        );
        assert_eq!(body_trace, (fixture.trace != 0).then_some(fixture.trace));
        assert_eq!(
            fixture.encode(),
            committed,
            "{name}.bin: upload framing drifted"
        );

        // `[type u8][len u32 BE]` opens the StartTest header frame.
        let header_len = u32::from_be_bytes(committed[1..5].try_into().unwrap());
        if fixture.trace == 0 {
            assert_eq!(header_len, 13, "{name}.bin: legacy header size");
        } else {
            assert_eq!(header_len, 21, "{name}.bin: traced header size");
        }
    }

    let (_, analyze) = &uploads::uploads()[0];
    let body_len =
        medsen::cloud::wire::encode_request_traced(analyze.format, &analyze.request, analyze.trace)
            .expect("encodes")
            .len();
    assert!(
        body_len > 3 * CHUNK_SIZE && !body_len.is_multiple_of(CHUNK_SIZE),
        "the analyze fixture must span three full chunks plus a remainder ({body_len} bytes)"
    );
}

/// The corpus covers every variant of both enums — a new variant must
/// grow the corpus (and the committed fixtures) or fail here.
#[test]
fn golden_corpus_covers_every_variant() {
    let request_variants: std::collections::BTreeSet<&str> = golden::requests()
        .iter()
        .map(|(_, r)| match r {
            medsen::cloud::Request::Analyze { .. } => "Analyze",
            medsen::cloud::Request::Enroll { .. } => "Enroll",
            medsen::cloud::Request::Fetch { .. } => "Fetch",
            medsen::cloud::Request::VerifyIntegrity { .. } => "VerifyIntegrity",
            medsen::cloud::Request::Ping => "Ping",
        })
        .collect();
    assert_eq!(request_variants.len(), 5, "corpus misses a request variant");

    let response_variants: std::collections::BTreeSet<&str> = golden::responses()
        .iter()
        .map(|(_, r)| match r {
            medsen::cloud::Response::Analyzed { .. } => "Analyzed",
            medsen::cloud::Response::Enrolled => "Enrolled",
            medsen::cloud::Response::Record(_) => "Record",
            medsen::cloud::Response::Integrity { .. } => "Integrity",
            medsen::cloud::Response::Pong => "Pong",
            medsen::cloud::Response::Error { .. } => "Error",
        })
        .collect();
    assert_eq!(
        response_variants.len(),
        6,
        "corpus misses a response variant"
    );
}
