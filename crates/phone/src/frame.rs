//! Android Open Accessory-style message framing.
//!
//! "The Raspberry Pi runs a daemon listening for events on the USB port.
//! When the phone is connected, the daemon exchanges information with the
//! device using the Android Open Accessory Protocol" (Sec. VI-D). Frames are
//! length-prefixed with a Fletcher-16 checksum so the relay notices USB
//! corruption; the message-type byte carries the AOAP handshake plus the
//! MedSen data channel.

use bytes::Bytes;
use serde::{Deserialize, Serialize};

/// Message types on the accessory link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[repr(u8)]
pub enum MessageType {
    /// AOAP: protocol-version query.
    GetProtocol = 0x01,
    /// AOAP: identification string (manufacturer/model/version/URI).
    SendString = 0x02,
    /// AOAP: switch the device into accessory mode.
    StartAccessory = 0x03,
    /// MedSen: user pressed "start blood test".
    StartTest = 0x10,
    /// MedSen: a chunk of (compressed, encrypted) measurement data.
    DataChunk = 0x11,
    /// MedSen: test progression update for the UI.
    Progress = 0x12,
    /// MedSen: analysis outcome returning to the sensor for decryption.
    AnalysisResult = 0x13,
}

impl MessageType {
    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0x01 => Some(Self::GetProtocol),
            0x02 => Some(Self::SendString),
            0x03 => Some(Self::StartAccessory),
            0x10 => Some(Self::StartTest),
            0x11 => Some(Self::DataChunk),
            0x12 => Some(Self::Progress),
            0x13 => Some(Self::AnalysisResult),
            _ => None,
        }
    }
}

/// Framing/deframing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than a minimal frame.
    Truncated,
    /// The length prefix disagrees with the available bytes.
    LengthMismatch {
        /// Declared payload length.
        declared: usize,
        /// Actually available payload bytes.
        available: usize,
    },
    /// Unknown message-type byte.
    UnknownType(u8),
    /// Checksum verification failed (corrupted frame).
    ChecksumMismatch,
}

impl core::fmt::Display for FrameError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame shorter than header"),
            FrameError::LengthMismatch {
                declared,
                available,
            } => write!(
                f,
                "declared {declared} payload bytes, {available} available"
            ),
            FrameError::UnknownType(t) => write!(f, "unknown message type 0x{t:02x}"),
            FrameError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
        }
    }
}

impl std::error::Error for FrameError {}

/// One framed message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message type.
    pub msg_type: MessageType,
    /// Opaque payload.
    pub payload: Bytes,
}

/// Bytes a frame adds around its payload: type, length and checksum.
pub const FRAME_OVERHEAD: usize = 1 + 4 + 2;

/// Most bytes the Fletcher-16 sums can take in between reductions. Both
/// sums enter a block below 255; after `n` bytes of `0xFF` the second
/// sum is at most `254·(n + 1) + 255·n·(n + 1)/2`, which fits a `u32` up
/// to `n = 5 802` and overflows at `n = 5 803`.
const FLETCHER_BLOCK: usize = 5_802;

/// Fletcher-16 checksum over type + payload: the modulo-255 running sums
/// `a` of the bytes and `b` of the `a`s, returned as `(b << 8) | a`.
///
/// The sums run unreduced in `u32` over blocks of [`FLETCHER_BLOCK`]
/// bytes and are reduced once per block; as addition commutes with
/// reduction modulo 255, the result equals reducing after every byte.
pub fn fletcher16(msg_type: u8, payload: &[u8]) -> u16 {
    let mut a = u32::from(msg_type) % 255;
    let mut b = a;
    for block in payload.chunks(FLETCHER_BLOCK) {
        for &byte in block {
            a += u32::from(byte);
            b += a;
        }
        a %= 255;
        b %= 255;
    }
    ((b as u16) << 8) | a as u16
}

/// Appends one frame carrying `payload` to `out`, in the layout
/// `[type: u8][len: u32 BE][payload][checksum: u16 BE]`.
///
/// # Panics
///
/// Panics if `payload` is longer than `u32::MAX` bytes, which the length
/// prefix cannot express.
pub fn encode_frame_into(msg_type: MessageType, payload: &[u8], out: &mut Vec<u8>) {
    let len = u32::try_from(payload.len()).expect("frame payload exceeds u32::MAX bytes");
    out.reserve(FRAME_OVERHEAD + payload.len());
    out.push(msg_type as u8);
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fletcher16(msg_type as u8, payload).to_be_bytes());
}

/// Parses one frame from the front of `bytes` without copying, returning
/// its type, its payload borrowed from `bytes`, and the number of bytes
/// consumed.
///
/// # Errors
///
/// Returns a [`FrameError`] on truncation, bad type, or checksum failure.
pub fn parse_frame(bytes: &[u8]) -> Result<(MessageType, &[u8], usize), FrameError> {
    let [type_byte, l0, l1, l2, l3, rest @ ..] = bytes else {
        return Err(FrameError::Truncated);
    };
    if rest.len() < 2 {
        return Err(FrameError::Truncated);
    }
    let msg_type = MessageType::from_u8(*type_byte).ok_or(FrameError::UnknownType(*type_byte))?;
    let declared = u32::from_be_bytes([*l0, *l1, *l2, *l3]) as usize;
    let available = rest.len() - 2;
    if available < declared {
        return Err(FrameError::LengthMismatch {
            declared,
            available,
        });
    }
    let (payload, tail) = rest.split_at(declared);
    if u16::from_be_bytes([tail[0], tail[1]]) != fletcher16(*type_byte, payload) {
        return Err(FrameError::ChecksumMismatch);
    }
    Ok((msg_type, payload, FRAME_OVERHEAD + declared))
}

impl Frame {
    /// Creates a frame.
    pub fn new(msg_type: MessageType, payload: impl Into<Bytes>) -> Self {
        Self {
            msg_type,
            payload: payload.into(),
        }
    }

    /// Wire layout: `[type: u8][len: u32 BE][payload][checksum: u16 BE]`
    /// (see [`encode_frame_into`]).
    pub fn encode(&self) -> Bytes {
        let mut buf = Vec::with_capacity(FRAME_OVERHEAD + self.payload.len());
        encode_frame_into(self.msg_type, &self.payload, &mut buf);
        Bytes::from(buf)
    }

    /// Decodes a frame from the front of `bytes`, returning it plus the
    /// number of bytes consumed. An owning wrapper over [`parse_frame`].
    ///
    /// # Errors
    ///
    /// Returns a [`FrameError`] on truncation, bad type, or checksum failure.
    pub fn decode(bytes: &[u8]) -> Result<(Self, usize), FrameError> {
        let (msg_type, payload, used) = parse_frame(bytes)?;
        Ok((Self::new(msg_type, Bytes::copy_from_slice(payload)), used))
    }
}

/// Splits a data buffer into `DataChunk` frames of at most `chunk_size`
/// payload bytes (USB bulk transfers are size-limited).
///
/// # Panics
///
/// Panics if `chunk_size` is zero.
pub fn chunk_data(data: &[u8], chunk_size: usize) -> Vec<Frame> {
    assert!(chunk_size > 0, "chunk size must be positive");
    data.chunks(chunk_size)
        .map(|c| Frame::new(MessageType::DataChunk, Bytes::copy_from_slice(c)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let frame = Frame::new(MessageType::StartTest, Bytes::from_static(b"go"));
        let wire = frame.encode();
        let (decoded, used) = Frame::decode(&wire).unwrap();
        assert_eq!(decoded, frame);
        assert_eq!(used, wire.len());
    }

    #[test]
    fn empty_payload_round_trip() {
        let frame = Frame::new(MessageType::GetProtocol, Bytes::new());
        let (decoded, _) = Frame::decode(&frame.encode()).unwrap();
        assert_eq!(decoded.payload.len(), 0);
    }

    #[test]
    fn corruption_is_detected() {
        let frame = Frame::new(MessageType::DataChunk, Bytes::from_static(b"abcdef"));
        let mut wire = frame.encode().to_vec();
        wire[7] ^= 0x40; // flip a payload bit
        assert_eq!(
            Frame::decode(&wire).unwrap_err(),
            FrameError::ChecksumMismatch
        );
    }

    #[test]
    fn truncated_frames_are_rejected() {
        assert_eq!(
            Frame::decode(&[0x10, 0, 0]).unwrap_err(),
            FrameError::Truncated
        );
        let frame = Frame::new(MessageType::DataChunk, Bytes::from_static(b"abcdef"));
        let wire = frame.encode();
        let err = Frame::decode(&wire[..wire.len() - 4]).unwrap_err();
        assert!(matches!(err, FrameError::LengthMismatch { .. }));
    }

    #[test]
    fn unknown_type_is_rejected() {
        let mut wire = Frame::new(MessageType::Progress, Bytes::new())
            .encode()
            .to_vec();
        wire[0] = 0x7f;
        assert_eq!(
            Frame::decode(&wire).unwrap_err(),
            FrameError::UnknownType(0x7f)
        );
    }

    #[test]
    fn chunking_partitions_data_exactly() {
        let data: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        let frames = chunk_data(&data, 256);
        assert_eq!(frames.len(), 4);
        let reassembled: Vec<u8> = frames.iter().flat_map(|f| f.payload.to_vec()).collect();
        assert_eq!(reassembled, data);
        assert_eq!(frames[3].payload.len(), 1000 - 3 * 256);
    }

    #[test]
    fn frames_decode_from_a_stream_sequentially() {
        let a = Frame::new(MessageType::Progress, Bytes::from_static(b"50%")).encode();
        let b = Frame::new(MessageType::Progress, Bytes::from_static(b"99%")).encode();
        let stream: Vec<u8> = a.iter().chain(b.iter()).copied().collect();
        let (first, used) = Frame::decode(&stream).unwrap();
        let (second, _) = Frame::decode(&stream[used..]).unwrap();
        assert_eq!(first.payload.as_ref(), b"50%");
        assert_eq!(second.payload.as_ref(), b"99%");
    }

    /// The per-byte `% 255` loop the block-reduced kernel replaced, kept
    /// as its reference.
    fn fletcher16_bytewise(msg_type: u8, payload: &[u8]) -> u16 {
        let mut a: u16 = 0;
        let mut b: u16 = 0;
        let mut step = |byte: u8| {
            a = (a + u16::from(byte)) % 255;
            b = (b + a) % 255;
        };
        step(msg_type);
        for &byte in payload {
            step(byte);
        }
        (b << 8) | a
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            #[test]
            fn fletcher16_equals_the_per_byte_oracle_for_every_type_byte(
                payload in proptest::collection::vec(any::<u8>(), 0..12_000),
            ) {
                for type_byte in 0..=u8::MAX {
                    prop_assert_eq!(
                        fletcher16(type_byte, &payload),
                        fletcher16_bytewise(type_byte, &payload)
                    );
                }
            }
        }
    }

    /// All-`0xFF` payloads drive both sums to their largest values, so
    /// lengths at and around multiples of the block bound are where a
    /// wrong bound would overflow (a panic in debug builds) or reduce at
    /// the wrong point.
    #[test]
    fn fletcher16_equals_the_oracle_on_saturated_payloads_at_block_bounds() {
        let ones = vec![0xFF_u8; 3 * FLETCHER_BLOCK + 1];
        for k in 1..=3 {
            for len in [
                k * FLETCHER_BLOCK - 1,
                k * FLETCHER_BLOCK,
                k * FLETCHER_BLOCK + 1,
            ] {
                for type_byte in 0..=u8::MAX {
                    assert_eq!(
                        fletcher16(type_byte, &ones[..len]),
                        fletcher16_bytewise(type_byte, &ones[..len]),
                        "type {type_byte:#04x}, {len} bytes"
                    );
                }
            }
        }
        let mebibyte = vec![0xFF_u8; (1 << 20) + 3];
        for type_byte in [0x00, 0x11, 0xFE, 0xFF] {
            assert_eq!(
                fletcher16(type_byte, &mebibyte),
                fletcher16_bytewise(type_byte, &mebibyte)
            );
        }
    }

    #[test]
    fn checksum_differs_across_types() {
        // Same payload, different type byte → different checksum.
        let a = fletcher16(MessageType::DataChunk as u8, b"xyz");
        let b = fletcher16(MessageType::Progress as u8, b"xyz");
        assert_ne!(a, b);
    }
}
