//! The wire codec alone: encode/decode cost per message, binary vs
//! JSON, over the deterministic golden corpus (the same fixtures the
//! byte-exact golden-frame tests pin).
//!
//! This isolates what `gateway_throughput`'s json/binary delta buys:
//! the end-to-end sweep includes queueing and analysis, while these
//! numbers are the codec in a tight loop. Throughput is bytes of
//! encoded output, so the binary series also shows the size win, not
//! just the cycles win. A final group prices the frame primitives
//! (CRC-32, Fletcher-16 and framing) that both formats share, and the
//! upload framing a diagnosis pays on the phone and at the gateway.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use medsen_cloud::wire::{
    decode_request, decode_response, encode_request, encode_response, golden,
};
use medsen_gateway::wire::{decode_upload_traced, encode_upload_traced};
use medsen_wire::WireFormat;
use std::hint::black_box;

const FORMATS: [WireFormat; 2] = [WireFormat::Json, WireFormat::Binary];

/// Encode every corpus request, per format.
fn encode_requests(c: &mut Criterion) {
    let corpus = golden::requests();
    let mut group = c.benchmark_group("wire_codec_encode_requests");
    for format in FORMATS {
        let bytes: usize = corpus
            .iter()
            .map(|(_, r)| encode_request(format, r).expect("encodes").len())
            .sum();
        group.throughput(Throughput::Bytes(bytes as u64));
        group.bench_function(BenchmarkId::from_parameter(format), |b| {
            b.iter(|| {
                for (_, request) in &corpus {
                    black_box(encode_request(format, black_box(request)).expect("encodes"));
                }
            });
        });
    }
    group.finish();
}

/// Decode every corpus request from its pre-encoded frame, per format.
fn decode_requests(c: &mut Criterion) {
    let corpus = golden::requests();
    let mut group = c.benchmark_group("wire_codec_decode_requests");
    for format in FORMATS {
        let frames: Vec<Vec<u8>> = corpus
            .iter()
            .map(|(_, r)| encode_request(format, r).expect("encodes"))
            .collect();
        let bytes: usize = frames.iter().map(Vec::len).sum();
        group.throughput(Throughput::Bytes(bytes as u64));
        group.bench_function(BenchmarkId::from_parameter(format), |b| {
            b.iter(|| {
                for frame in &frames {
                    black_box(decode_request(format, black_box(frame)).expect("decodes"));
                }
            });
        });
    }
    group.finish();
}

/// Encode every corpus response, per format.
fn encode_responses(c: &mut Criterion) {
    let corpus = golden::responses();
    let mut group = c.benchmark_group("wire_codec_encode_responses");
    for format in FORMATS {
        let bytes: usize = corpus
            .iter()
            .map(|(_, r)| encode_response(format, r).expect("encodes").len())
            .sum();
        group.throughput(Throughput::Bytes(bytes as u64));
        group.bench_function(BenchmarkId::from_parameter(format), |b| {
            b.iter(|| {
                for (_, response) in &corpus {
                    black_box(encode_response(format, black_box(response)).expect("encodes"));
                }
            });
        });
    }
    group.finish();
}

/// Decode every corpus response from its pre-encoded frame, per format.
fn decode_responses(c: &mut Criterion) {
    let corpus = golden::responses();
    let mut group = c.benchmark_group("wire_codec_decode_responses");
    for format in FORMATS {
        let frames: Vec<Vec<u8>> = corpus
            .iter()
            .map(|(_, r)| encode_response(format, r).expect("encodes"))
            .collect();
        let bytes: usize = frames.iter().map(Vec::len).sum();
        group.throughput(Throughput::Bytes(bytes as u64));
        group.bench_function(BenchmarkId::from_parameter(format), |b| {
            b.iter(|| {
                for frame in &frames {
                    black_box(decode_response(format, black_box(frame)).expect("decodes"));
                }
            });
        });
    }
    group.finish();
}

/// The shared frame primitives underneath both formats: CRC-32 and the
/// accessory link's Fletcher-16 over a chunk-sized buffer, full frame
/// round-trips, and framing / reassembling a 1.69 MiB diagnosis upload.
fn frame_primitives(c: &mut Criterion) {
    let payload: Vec<u8> = (0..4096u32)
        .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8)
        .collect();

    let mut group = c.benchmark_group("wire_frame_primitives");
    group.throughput(Throughput::Bytes(payload.len() as u64));
    group.bench_function("crc32_4k", |b| {
        b.iter(|| black_box(medsen_wire::crc32(black_box(&payload))));
    });
    group.bench_function("fletcher16", |b| {
        b.iter(|| black_box(medsen_phone::frame::fletcher16(0x11, black_box(&payload))));
    });
    group.bench_function("frame_roundtrip_4k", |b| {
        b.iter(|| {
            let framed = medsen_wire::frame_to_vec(0x21, black_box(&payload));
            let (kind, payload) = medsen_wire::decode_frame(&framed).expect("decodes");
            black_box((kind, payload.len()));
        });
    });

    // The body size of a 60 s, 8-carrier diagnosis upload.
    let body: Vec<u8> = (0..1_772_093u32)
        .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8)
        .collect();
    let upload = encode_upload_traced(7, WireFormat::Binary, &body, 0xFEED_F00D);
    group.throughput(Throughput::Bytes(body.len() as u64));
    group.bench_function("upload_encode", |b| {
        b.iter(|| {
            black_box(encode_upload_traced(
                7,
                WireFormat::Binary,
                black_box(&body),
                0xFEED_F00D,
            ))
        });
    });
    group.bench_function("upload_decode", |b| {
        b.iter(|| black_box(decode_upload_traced(black_box(&upload)).expect("decodes")));
    });
    group.finish();
}

criterion_group!(
    benches,
    encode_requests,
    decode_requests,
    encode_responses,
    decode_responses,
    frame_primitives
);
criterion_main!(benches);
