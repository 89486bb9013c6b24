//! The live TCP transport framing, shared by every party on the socket.
//!
//! The live reactor ([`LiveServer`](super::LiveServer)), whether it accepts
//! or dials (the members of a [`LiveNet`](super::LiveNet) dial each other),
//! the thin clients of the load harness and the regression tests all speak
//! the same byte stream:
//!
//! 1. Every frame is `[u32 big-endian length][payload]`.
//! 2. The **first** frame of a connection is the initiator's [`Handshake`].
//! 3. The responder answers with a one-frame verdict: [`VERDICT_ACCEPT`]
//!    (a single `1` byte) or [`VERDICT_REJECT`] (`0` followed by a UTF-8
//!    reason).
//! 4. After an accepted verdict, frames carry opaque application payloads
//!    (for the community service: `Request`/`Response` wire messages).
//! 5. A side about to drop the connection *may* send one final
//!    **farewell** control frame — [`FAREWELL_TAG`] followed by a stable
//!    [`ErrorKind`] wire code — so the peer learns *why* it was dropped
//!    ([`ErrorKind::Overloaded`] for backpressure shedding,
//!    [`ErrorKind::Timeout`] for idle-connection expiry). The tag byte
//!    `0xFF` can never open a legitimate application frame: community
//!    frames start with the protocol version (currently `1`) and verdict
//!    frames with `0`/`1`. A reactor that receives a farewell reports
//!    the link lost.

use codec::{DecodeError, Wire};

use crate::error::ErrorKind;
use crate::types::{DeviceId, ResumeToken};

/// First byte of an accepting verdict frame.
pub const VERDICT_ACCEPT: u8 = 1;
/// First byte of a rejecting verdict frame (rest is a UTF-8 reason).
pub const VERDICT_REJECT: u8 = 0;
/// First byte of a farewell control frame (second byte: [`ErrorKind`] code).
pub const FAREWELL_TAG: u8 = 0xFF;

/// Handshake sent as the first frame of every live data connection.
#[derive(Clone, Debug, PartialEq)]
pub struct Handshake {
    /// The initiating device.
    pub from: DeviceId,
    /// The target service name.
    pub service: String,
    /// Resume token when re-establishing a logical connection.
    pub resume: Option<ResumeToken>,
}

impl Wire for Handshake {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.from.encode_to(out);
        self.resume.encode_to(out);
        self.service.encode_to(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Handshake {
            from: DeviceId::decode(input)?,
            resume: Option::<ResumeToken>::decode(input)?,
            service: String::decode(input)?,
        })
    }
}

/// Length-prefixes one payload into a wire-ready byte vector.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut msg = Vec::with_capacity(4 + payload.len());
    msg.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    msg.extend_from_slice(payload);
    msg
}

/// Builds the two-byte farewell payload for `kind` (not yet length-prefixed).
pub fn farewell(kind: ErrorKind) -> Vec<u8> {
    vec![FAREWELL_TAG, kind.code()]
}

/// Recognizes a farewell control frame, returning its [`ErrorKind`].
pub fn parse_farewell(payload: &[u8]) -> Option<ErrorKind> {
    match payload {
        [FAREWELL_TAG, code] => ErrorKind::from_code(*code),
        _ => None,
    }
}

/// Largest payload a frame header may claim (1 MiB). Community requests
/// and responses are orders of magnitude smaller; anything bigger is a
/// hostile or corrupt header, and honoring it would let a 4-byte header
/// commit the receiver to a multi-gigabyte buffer.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// A hostile or corrupt length header: the connection must be dropped.
///
/// This is a *hard* protocol violation, distinct from the "not enough
/// bytes yet" case ([`FrameBuf::pop`] returning `Ok(None)`): waiting for
/// more bytes cannot fix a claim that exceeds [`MAX_FRAME_LEN`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameError {
    /// The payload length the 4-byte header claimed.
    pub claimed: usize,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "frame header claims {} bytes (max {MAX_FRAME_LEN})",
            self.claimed
        )
    }
}

impl std::error::Error for FrameError {}

/// An incremental length-prefixed frame parser over a growing byte buffer.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
}

impl FrameBuf {
    /// An empty parser.
    pub fn new() -> Self {
        FrameBuf::default()
    }

    /// Appends freshly received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops one complete frame payload. `Ok(None)` means "not enough
    /// bytes yet" — feed more and retry.
    ///
    /// # Errors
    ///
    /// [`FrameError`] when the header claims more than [`MAX_FRAME_LEN`]
    /// bytes. The claim is rejected *before* any buffering or allocation
    /// is sized by it; the caller must drop the connection (the stream
    /// offset is unrecoverable after a bad header).
    pub fn pop(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if len > MAX_FRAME_LEN {
            return Err(FrameError { claimed: len });
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let frame = self.buf[4..4 + len].to_vec();
        self.buf.drain(..4 + len);
        Ok(Some(frame))
    }

    /// Bytes currently buffered (incomplete frame tail included).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no bytes are buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ConnId;

    #[test]
    fn handshake_encoding_round_trips() {
        for resume in [
            None,
            Some(ResumeToken {
                initiator: DeviceId::new(3),
                conn: ConnId::new(9),
            }),
        ] {
            let hs = Handshake {
                from: DeviceId::new(7),
                service: "PeerHoodCommunity".into(),
                resume,
            };
            assert_eq!(Handshake::decode_exact(&hs.encode()), Ok(hs));
        }
    }

    #[test]
    fn handshake_decode_rejects_garbage() {
        assert!(Handshake::decode_exact(&[1, 2, 3]).is_err());
    }

    #[test]
    fn frame_buf_reassembles_split_frames() {
        let mut fb = FrameBuf::new();
        let a = frame(b"hello");
        let b = frame(b"");
        let mut stream = a.clone();
        stream.extend_from_slice(&b);
        // Feed one byte at a time: frames pop exactly when complete.
        let mut got = Vec::new();
        for byte in stream {
            fb.extend(&[byte]);
            while let Some(f) = fb.pop().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, vec![b"hello".to_vec(), Vec::new()]);
        assert!(fb.is_empty());
    }

    #[test]
    fn hostile_length_header_is_rejected_not_buffered() {
        // A 4-byte header claiming ~4 GiB: the old parser would sit
        // waiting (and let the peer feed it 4 GiB one segment at a time);
        // the claim must be rejected the moment the header is readable.
        let mut fb = FrameBuf::new();
        fb.extend(&u32::MAX.to_be_bytes());
        assert_eq!(
            fb.pop(),
            Err(FrameError {
                claimed: u32::MAX as usize
            })
        );
        // The error is sticky until the caller drops the connection —
        // the stream offset is unrecoverable.
        fb.extend(b"more bytes");
        assert!(fb.pop().is_err());

        // One byte over the cap: rejected; at the cap: accepted.
        let mut fb = FrameBuf::new();
        fb.extend(&((MAX_FRAME_LEN as u32) + 1).to_be_bytes());
        assert_eq!(
            fb.pop(),
            Err(FrameError {
                claimed: MAX_FRAME_LEN + 1
            })
        );
        let mut fb = FrameBuf::new();
        let payload = vec![0xAB; MAX_FRAME_LEN];
        fb.extend(&frame(&payload));
        assert_eq!(fb.pop(), Ok(Some(payload)));
    }

    #[test]
    fn frame_error_display_names_the_claim_and_the_cap() {
        let e = FrameError { claimed: 1 << 30 };
        let msg = e.to_string();
        assert!(msg.contains(&(1usize << 30).to_string()), "{msg}");
        assert!(msg.contains(&MAX_FRAME_LEN.to_string()), "{msg}");
    }

    #[test]
    fn farewell_round_trips_every_kind() {
        for kind in ErrorKind::ALL {
            assert_eq!(parse_farewell(&farewell(kind)), Some(kind));
        }
        assert_eq!(parse_farewell(&[FAREWELL_TAG]), None);
        assert_eq!(parse_farewell(&[FAREWELL_TAG, 0]), None, "0 is no code");
        assert_eq!(parse_farewell(&[1, 2]), None, "version byte, not farewell");
        assert_eq!(parse_farewell(b""), None);
    }
}
