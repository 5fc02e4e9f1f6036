//! Wire serialization for protocol messages.
//!
//! The simulator passes messages as Rust values; a real deployment ships
//! bytes. This module gives every protocol payload a compact, versionless
//! little-endian encoding (sketch payloads delegate to
//! [`dynagg_sketch::codec`]: register planes for age matrices, packed
//! registers for PCSA). Every encoding is canonical — an accepted input
//! re-encodes to the same bytes — which the fuzz suite in
//! `tests/properties.rs` demands of each type. The sans-io node runtime
//! (`dynagg-node`) is built on these.
//!
//! Encodings are *self-describing per protocol*, not self-describing per
//! stream: both ends must agree on which protocol a channel carries, as
//! they already must agree on sketch geometry and hash seeds.

use crate::epoch::{EpochMsg, EPOCH_MSG_WIRE_BYTES};
use crate::invert_average::InvertMsg;
use crate::mass::Mass;
use crate::tree::TreeMsg;
use bytes::{Buf, BufMut};
use dynagg_sketch::age::AgeMatrix;
use dynagg_sketch::codec::{self, CodecError};
use dynagg_sketch::pcsa::Pcsa;
use std::sync::Arc;

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the structure was complete.
    Truncated,
    /// Structurally invalid payload.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "wire message truncated"),
            Self::Malformed(what) => write!(f, "malformed wire message: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated => WireError::Truncated,
            CodecError::Malformed(w) => WireError::Malformed(w),
        }
    }
}

/// A protocol payload with a byte encoding.
pub trait WireMessage: Sized {
    /// Append the encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decode from exactly `bytes` (trailing garbage is an error).
    fn decode(bytes: &[u8]) -> Result<Self, WireError>;

    /// Convenience: encode into a fresh buffer.
    fn encoded(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Length of [`Self::encoded`] without materializing the buffer.
    ///
    /// The default pays for a throwaway encode; sketch payloads override
    /// this with the codec's version-stamped length memo so measured wire
    /// accounting stays O(1) per fan-out partner.
    fn encoded_len(&self) -> usize {
        self.encoded().len()
    }
}

fn need(bytes: &[u8], n: usize) -> Result<(), WireError> {
    if bytes.len() < n {
        Err(WireError::Truncated)
    } else {
        Ok(())
    }
}

fn exact(bytes: &[u8], n: usize) -> Result<(), WireError> {
    match bytes.len().cmp(&n) {
        std::cmp::Ordering::Less => Err(WireError::Truncated),
        std::cmp::Ordering::Greater => Err(WireError::Malformed("trailing bytes")),
        std::cmp::Ordering::Equal => Ok(()),
    }
}

impl WireMessage for Mass {
    fn encode(&self, out: &mut Vec<u8>) {
        out.put_f64_le(self.weight);
        out.put_f64_le(self.value);
    }

    fn decode(mut bytes: &[u8]) -> Result<Self, WireError> {
        exact(bytes, 16)?;
        let weight = bytes.get_f64_le();
        let value = bytes.get_f64_le();
        Ok(Mass { weight, value })
    }
}

impl WireMessage for EpochMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        out.put_u64_le(self.epoch);
        out.put_u32_le(self.phase);
        self.mass.encode(out);
    }

    fn decode(mut bytes: &[u8]) -> Result<Self, WireError> {
        exact(bytes, EPOCH_MSG_WIRE_BYTES)?;
        let epoch = bytes.get_u64_le();
        let phase = bytes.get_u32_le();
        let mass = Mass::decode(bytes)?;
        Ok(EpochMsg { epoch, phase, mass })
    }
}

impl WireMessage for Arc<AgeMatrix> {
    fn encode(&self, out: &mut Vec<u8>) {
        codec::encode_ages_into(self, out);
    }

    fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        Ok(Arc::new(codec::decode_ages(bytes)?))
    }

    fn encoded_len(&self) -> usize {
        codec::encoded_len_ages(self)
    }
}

impl WireMessage for Arc<Pcsa> {
    fn encode(&self, out: &mut Vec<u8>) {
        codec::encode_pcsa_into(self, out);
    }

    fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        Ok(Arc::new(codec::decode_pcsa(bytes)?))
    }

    fn encoded_len(&self) -> usize {
        // PCSA's encoding is geometry-determined: 5-byte header plus the
        // byte-padded registers — no need to touch the payload.
        5 + self.wire_bytes()
    }
}

impl WireMessage for InvertMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        out.put_u8(u8::from(self.count.is_some()));
        self.avg.encode(out);
        if let Some(m) = &self.count {
            m.encode(out);
        }
    }

    fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        need(bytes, 17)?;
        let has_count = match bytes[0] {
            0 => false,
            1 => true,
            _ => return Err(WireError::Malformed("invalid InvertMsg flag")),
        };
        let avg = Mass::decode(&bytes[1..17])?;
        let count = if has_count {
            Some(<Arc<AgeMatrix>>::decode(&bytes[17..])?)
        } else {
            exact(&bytes[17..], 0)?;
            None
        };
        Ok(InvertMsg { avg, count })
    }
}

impl WireMessage for TreeMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            TreeMsg::Request { level } => {
                out.put_u8(0);
                out.put_u32_le(level);
            }
            TreeMsg::Partial { sum, count } => {
                out.put_u8(1);
                out.put_f64_le(sum);
                out.put_u64_le(count);
            }
            TreeMsg::Aggregate { value, seq } => {
                out.put_u8(2);
                out.put_f64_le(value);
                out.put_u64_le(seq);
            }
        }
    }

    fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        need(bytes, 1)?;
        let (tag, mut rest) = (bytes[0], &bytes[1..]);
        match tag {
            0 => {
                exact(rest, 4)?;
                Ok(TreeMsg::Request { level: rest.get_u32_le() })
            }
            1 => {
                exact(rest, 16)?;
                Ok(TreeMsg::Partial { sum: rest.get_f64_le(), count: rest.get_u64_le() })
            }
            2 => {
                exact(rest, 16)?;
                Ok(TreeMsg::Aggregate { value: rest.get_f64_le(), seq: rest.get_u64_le() })
            }
            _ => Err(WireError::Malformed("unknown TreeMsg tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<M: WireMessage + PartialEq + std::fmt::Debug>(msg: M) {
        let bytes = msg.encoded();
        let decoded = M::decode(&bytes).expect("decode");
        assert_eq!(decoded, msg);
    }

    #[test]
    fn mass_roundtrip() {
        roundtrip(Mass::new(0.5, -42.75));
        roundtrip(Mass::ZERO);
    }

    #[test]
    fn epoch_roundtrip() {
        let msg = EpochMsg { epoch: u64::MAX, phase: 19, mass: Mass::new(1.0, 7.0) };
        assert_eq!(msg.encoded().len(), EPOCH_MSG_WIRE_BYTES);
        roundtrip(msg);
        // A legacy 24-byte frame (no phase) no longer decodes.
        assert_eq!(EpochMsg::decode(&[0u8; 24]), Err(WireError::Truncated));
    }

    #[test]
    fn tree_roundtrip_all_variants() {
        roundtrip(TreeMsg::Request { level: 3 });
        roundtrip(TreeMsg::Partial { sum: 99.5, count: 17 });
        roundtrip(TreeMsg::Aggregate { value: -1.25, seq: 8 });
    }

    #[test]
    fn age_matrix_arc_roundtrip() {
        use dynagg_sketch::hash::SplitMix64;
        let h = SplitMix64::new(1);
        let mut m = AgeMatrix::new(16, 16);
        for id in 0..200u64 {
            m.claim_id(&h, id);
        }
        m.release_all();
        m.tick();
        let arc = Arc::new(m);
        let bytes = arc.encoded();
        let decoded = <Arc<AgeMatrix>>::decode(&bytes).unwrap();
        for bin in 0..16 {
            for k in 0..=16 {
                assert_eq!(decoded.age(bin, k), arc.age(bin, k));
            }
        }
    }

    #[test]
    fn invert_roundtrip_with_and_without_matrix() {
        let with =
            InvertMsg { avg: Mass::new(0.5, 10.0), count: Some(Arc::new(AgeMatrix::new(8, 8))) };
        let bytes = with.encoded();
        let decoded = InvertMsg::decode(&bytes).unwrap();
        assert_eq!(decoded.avg, with.avg);
        assert!(decoded.count.is_some());

        let without = InvertMsg { avg: Mass::new(0.5, 10.0), count: None };
        let decoded = InvertMsg::decode(&without.encoded()).unwrap();
        assert!(decoded.count.is_none());
    }

    #[test]
    fn decode_rejects_bad_input() {
        assert_eq!(Mass::decode(&[0; 15]), Err(WireError::Truncated));
        assert_eq!(Mass::decode(&[0; 17]), Err(WireError::Malformed("trailing bytes")));
        assert_eq!(
            TreeMsg::decode(&[9, 0, 0, 0, 0]),
            Err(WireError::Malformed("unknown TreeMsg tag"))
        );
        assert!(matches!(InvertMsg::decode(&[0; 4]), Err(WireError::Truncated)));
        assert!(matches!(
            InvertMsg::decode(&[2; 40]),
            Err(WireError::Malformed("invalid InvertMsg flag"))
        ));
    }
}
