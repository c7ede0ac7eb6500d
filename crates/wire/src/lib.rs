//! # prever-wire
//!
//! The length-framed, versioned request/response protocol between
//! PReVer clients and the serving front end (DESIGN.md §14).
//!
//! Every message travels as one [`Frame`]:
//!
//! ```text
//! magic   u16   0x5057 ("PW")
//! version u8    PROTOCOL_VERSION
//! kind    u8    message discriminant
//! len     u32   body length (≤ MAX_BODY)
//! crc     u32   CRC-32 over magic‖version‖kind‖len‖body
//! body    [u8; len]
//! ```
//!
//! Requests carry a **tenant id** (the admission-control unit), a
//! **priority class**, and an absolute virtual-time **deadline** so the
//! server can shed work that expired while queued instead of spending a
//! consensus slot on it.
//!
//! ## Sessions and failover (DESIGN.md §15)
//!
//! A client opens its connection with [`Request::Hello`] carrying a
//! client-chosen session token. After a gateway failure it re-attaches
//! to a *different* gateway with [`Request::Resume`], naming the same
//! token plus the highest command id it has seen acked — the new
//! gateway answers with [`Response::SessionAck`] stamped with its own
//! applied ledger position, and in-flight retries then flow through
//! the ordinary idempotency gate (retries reuse command ids).
//!
//! ## Read-your-writes replica reads
//!
//! [`Request::ReadFresh`] asks any replica for the commit status of a
//! command id *together with a freshness proof*: the reply
//! ([`Response::ReadFreshResult`]) is stamped with the replica's
//! applied ledger position and its hash-chain digest at that position.
//! The client checks the position against its own high-water mark (the
//! highest slot it has been acked) and rejects stale replicas; two
//! replies claiming the same position with different digests are
//! fork evidence.
//!
//! ## Hostile-input discipline
//!
//! Decoding mirrors `ChangeRecord::decode`: every read is
//! bounds-checked, the length prefix is validated against [`MAX_BODY`]
//! *before* any allocation, the CRC is verified before the body is
//! parsed, and every failure is a loud [`WireError`] — never a panic,
//! never a partial value, never an attacker-controlled allocation.
//! [`WireError::Incomplete`] is the only "wait for more bytes" signal,
//! so a stream reassembler can distinguish short reads from corruption.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bytes::Bytes;
use prever_storage::{crc32, crc32_update};

/// Frame magic: "PW" little-endian.
pub const MAGIC: u16 = 0x5057;
/// Current protocol version. Decoders reject any other value loudly
/// ([`WireError::VersionSkew`]) — version negotiation is a re-dial, not
/// a silent downgrade.
pub const PROTOCOL_VERSION: u8 = 1;
/// Fixed frame header size: magic(2) + version(1) + kind(1) + len(4) +
/// crc(4).
pub const HEADER_LEN: usize = 12;
/// Upper bound on a frame body. Checked before any allocation, so a
/// hostile length prefix cannot make the decoder reserve gigabytes.
pub const MAX_BODY: usize = 1 << 20;
/// Upper bound on commands in one [`Request::SubmitBatch`].
pub const MAX_BATCH: usize = 4_096;
/// Upper bound on a single command payload.
pub const MAX_PAYLOAD: usize = 64 << 10;

/// Decode failures. Everything except [`WireError::Incomplete`] is a
/// protocol violation: the connection should be dropped, not retried.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Not enough bytes yet — read more and retry.
    Incomplete,
    /// The first two bytes are not [`MAGIC`].
    BadMagic,
    /// The frame's version byte is not [`PROTOCOL_VERSION`].
    VersionSkew,
    /// The length prefix exceeds [`MAX_BODY`] (or an inner length
    /// exceeds its bound) — rejected before allocating.
    Oversize,
    /// CRC mismatch: the frame was damaged in flight.
    BadCrc,
    /// The kind byte or body structure is invalid.
    Malformed,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Incomplete => write!(f, "incomplete frame"),
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::VersionSkew => write!(f, "protocol version skew"),
            WireError::Oversize => write!(f, "length prefix exceeds bound"),
            WireError::BadCrc => write!(f, "frame crc mismatch"),
            WireError::Malformed => write!(f, "malformed frame body"),
        }
    }
}

/// Request priority class, highest first. The degradation ladder sheds
/// [`Class::Low`] tenants first; [`Class::High`] submissions ride the
/// consensus urgent path (partial-batch cut, no fill delay).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    /// Latency-critical (regulator queries, cross-platform settlement).
    High,
    /// Default traffic.
    Normal,
    /// Bulk / best-effort (analytics backfill).
    Low,
}

impl Class {
    fn to_u8(self) -> u8 {
        match self {
            Class::High => 0,
            Class::Normal => 1,
            Class::Low => 2,
        }
    }

    fn from_u8(b: u8) -> Result<Class, WireError> {
        match b {
            0 => Ok(Class::High),
            1 => Ok(Class::Normal),
            2 => Ok(Class::Low),
            _ => Err(WireError::Malformed),
        }
    }

    /// Short display name ("high" / "normal" / "low").
    pub fn name(&self) -> &'static str {
        match self {
            Class::High => "high",
            Class::Normal => "normal",
            Class::Low => "low",
        }
    }
}

/// One update submission: a globally unique command id plus its payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Submission {
    /// Command id (retries reuse the id, so the ordered log dedups).
    pub id: u64,
    /// Opaque command payload.
    pub payload: Bytes,
}

/// A client request. All variants carry the tenant id; submissions also
/// carry a class and an absolute virtual-µs deadline (0 = none).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Submit one command for ordered execution.
    Submit {
        /// Admission-control tenant.
        tenant: u32,
        /// Priority class.
        class: Class,
        /// Absolute deadline in virtual µs (0 = no deadline).
        deadline: u64,
        /// The command.
        submission: Submission,
    },
    /// Submit several commands in one frame (amortized framing).
    SubmitBatch {
        /// Admission-control tenant.
        tenant: u32,
        /// Priority class (applies to every command in the batch).
        class: Class,
        /// Absolute deadline in virtual µs (0 = no deadline).
        deadline: u64,
        /// The commands, at most [`MAX_BATCH`].
        submissions: Vec<Submission>,
    },
    /// Read back the commit status of a previously submitted id.
    Query {
        /// Admission-control tenant.
        tenant: u32,
        /// The command id to look up.
        id: u64,
    },
    /// Fetch the server's chained execution digest (audit anchor).
    AuditDigest {
        /// Admission-control tenant.
        tenant: u32,
    },
    /// Open a session: the first frame on a fresh connection.
    Hello {
        /// Admission-control tenant.
        tenant: u32,
        /// Client-chosen session token (unique per client).
        session: u64,
    },
    /// Re-attach an existing session after a gateway failure.
    Resume {
        /// Admission-control tenant.
        tenant: u32,
        /// The session token from the original `Hello`.
        session: u64,
        /// Highest command id this client has seen acked `Committed`
        /// (0 = none). In-flight retries above this id follow,
        /// reusing their original command ids.
        high_acked: u64,
    },
    /// Read-your-writes query: commit status of `id`, answerable by
    /// any replica, with a freshness stamp the client can check
    /// against `min_slot` (its own high-water mark).
    ReadFresh {
        /// Admission-control tenant.
        tenant: u32,
        /// The command id to look up.
        id: u64,
        /// The client's read-your-writes floor: the reply is only
        /// fresh if the replica has applied at least this many slots.
        min_slot: u64,
    },
}

impl Request {
    /// The request's tenant id.
    pub fn tenant(&self) -> u32 {
        match self {
            Request::Submit { tenant, .. }
            | Request::SubmitBatch { tenant, .. }
            | Request::Query { tenant, .. }
            | Request::AuditDigest { tenant }
            | Request::Hello { tenant, .. }
            | Request::Resume { tenant, .. }
            | Request::ReadFresh { tenant, .. } => *tenant,
        }
    }
}

/// A server response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// The submission was ordered and executed durably.
    Committed {
        /// The command id.
        id: u64,
        /// The consensus slot it executed at.
        slot: u64,
    },
    /// Commit status of a queried id.
    QueryResult {
        /// The queried id.
        id: u64,
        /// Executed slot, if the id has committed.
        slot: Option<u64>,
    },
    /// The chained execution digest (32 bytes).
    AuditDigest {
        /// Digest bytes.
        digest: [u8; 32],
    },
    /// Explicit shed: the server refused the work and names the backoff.
    /// Never a silent queue — an overloaded server always answers.
    Overloaded {
        /// Suggested client backoff in µs before retrying.
        retry_after_us: u64,
        /// The shed command id (0 for non-submissions).
        id: u64,
    },
    /// The request's deadline expired (at arrival or while queued).
    DeadlineExceeded {
        /// The expired command id.
        id: u64,
    },
    /// Malformed or impermissible request (terminal; do not retry).
    Rejected {
        /// Coarse machine-readable reason.
        reason: RejectReason,
    },
    /// Answers `Hello` and `Resume`: the session is attached at this
    /// gateway.
    SessionAck {
        /// The session token being acknowledged.
        session: u64,
        /// True iff this was a `Resume` of a session the gateway had
        /// not seen before (i.e. a failover onto a new gateway).
        resumed: bool,
        /// The gateway's applied ledger position (executed slots) at
        /// ack time — lets the client judge this gateway's freshness
        /// immediately.
        applied_slot: u64,
    },
    /// Answers `ReadFresh`: commit status plus a freshness stamp.
    ReadFreshResult {
        /// The queried id.
        id: u64,
        /// Executed slot, if the id has committed *and* this replica
        /// has applied it.
        slot: Option<u64>,
        /// The replica's applied ledger position (executed slots) at
        /// answer time. `applied_slot < min_slot` means this replica
        /// is stale for the asking client — retry elsewhere.
        applied_slot: u64,
        /// The replica's hash-chain digest over its executed history
        /// at `applied_slot`. Two replies naming the same
        /// `applied_slot` with different digests are fork evidence.
        digest: [u8; 32],
        /// The replica's committed-map eviction floor: per-id commit
        /// records below this slot were evicted once a consensus
        /// checkpoint made them stable. `slot == None` with
        /// `min_slot < floor` therefore does NOT mean the write is
        /// missing — it means the write sits inside the
        /// quorum-certified stable prefix this replica no longer
        /// indexes by id.
        floor: u64,
    },
}

/// Why a request was terminally rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The frame failed to decode.
    BadFrame,
    /// Read service is shed at the current degradation level.
    ReadsDegraded,
    /// The submission duplicates an id that is still in flight.
    DuplicateInFlight,
}

impl RejectReason {
    fn to_u8(self) -> u8 {
        match self {
            RejectReason::BadFrame => 0,
            RejectReason::ReadsDegraded => 1,
            RejectReason::DuplicateInFlight => 2,
        }
    }

    fn from_u8(b: u8) -> Result<RejectReason, WireError> {
        match b {
            0 => Ok(RejectReason::BadFrame),
            1 => Ok(RejectReason::ReadsDegraded),
            2 => Ok(RejectReason::DuplicateInFlight),
            _ => Err(WireError::Malformed),
        }
    }
}

/// A decoded frame: either direction of the protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Client → server.
    Request(Request),
    /// Server → client.
    Response(Response),
}

// Kind bytes. Requests are 0x01.., responses 0x81.. so a corrupted
// direction bit cannot alias a valid peer message.
const K_SUBMIT: u8 = 0x01;
const K_SUBMIT_BATCH: u8 = 0x02;
const K_QUERY: u8 = 0x03;
const K_AUDIT: u8 = 0x04;
const K_HELLO: u8 = 0x05;
const K_RESUME: u8 = 0x06;
const K_READ_FRESH: u8 = 0x07;
const K_COMMITTED: u8 = 0x81;
const K_QUERY_RESULT: u8 = 0x82;
const K_AUDIT_DIGEST: u8 = 0x83;
const K_OVERLOADED: u8 = 0x84;
const K_DEADLINE: u8 = 0x85;
const K_REJECTED: u8 = 0x86;
const K_SESSION_ACK: u8 = 0x87;
const K_READ_FRESH_RESULT: u8 = 0x88;

// ---------------------------------------------------------------------
// Body writer/reader helpers.
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked sequential reader over a frame body.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Malformed)?;
        if end > self.buf.len() {
            return Err(WireError::Malformed);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// The body must be fully consumed — trailing garbage is malformed.
    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed)
        }
    }
}

fn put_submission(out: &mut Vec<u8>, s: &Submission) {
    put_u64(out, s.id);
    put_u32(out, s.payload.len() as u32);
    out.extend_from_slice(&s.payload);
}

fn read_submission(r: &mut Reader<'_>) -> Result<Submission, WireError> {
    let id = r.u64()?;
    let len = r.u32()? as usize;
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversize);
    }
    let payload = Bytes::copy_from_slice(r.take(len)?);
    Ok(Submission { id, payload })
}

impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::Request(Request::Submit { .. }) => K_SUBMIT,
            Frame::Request(Request::SubmitBatch { .. }) => K_SUBMIT_BATCH,
            Frame::Request(Request::Query { .. }) => K_QUERY,
            Frame::Request(Request::AuditDigest { .. }) => K_AUDIT,
            Frame::Request(Request::Hello { .. }) => K_HELLO,
            Frame::Request(Request::Resume { .. }) => K_RESUME,
            Frame::Request(Request::ReadFresh { .. }) => K_READ_FRESH,
            Frame::Response(Response::Committed { .. }) => K_COMMITTED,
            Frame::Response(Response::QueryResult { .. }) => K_QUERY_RESULT,
            Frame::Response(Response::AuditDigest { .. }) => K_AUDIT_DIGEST,
            Frame::Response(Response::Overloaded { .. }) => K_OVERLOADED,
            Frame::Response(Response::DeadlineExceeded { .. }) => K_DEADLINE,
            Frame::Response(Response::Rejected { .. }) => K_REJECTED,
            Frame::Response(Response::SessionAck { .. }) => K_SESSION_ACK,
            Frame::Response(Response::ReadFreshResult { .. }) => K_READ_FRESH_RESULT,
        }
    }

    fn body(&self) -> Vec<u8> {
        let mut b = Vec::new();
        match self {
            Frame::Request(Request::Submit { tenant, class, deadline, submission }) => {
                put_u32(&mut b, *tenant);
                b.push(class.to_u8());
                put_u64(&mut b, *deadline);
                put_submission(&mut b, submission);
            }
            Frame::Request(Request::SubmitBatch { tenant, class, deadline, submissions }) => {
                put_u32(&mut b, *tenant);
                b.push(class.to_u8());
                put_u64(&mut b, *deadline);
                put_u32(&mut b, submissions.len() as u32);
                for s in submissions {
                    put_submission(&mut b, s);
                }
            }
            Frame::Request(Request::Query { tenant, id }) => {
                put_u32(&mut b, *tenant);
                put_u64(&mut b, *id);
            }
            Frame::Request(Request::AuditDigest { tenant }) => {
                put_u32(&mut b, *tenant);
            }
            Frame::Request(Request::Hello { tenant, session }) => {
                put_u32(&mut b, *tenant);
                put_u64(&mut b, *session);
            }
            Frame::Request(Request::Resume { tenant, session, high_acked }) => {
                put_u32(&mut b, *tenant);
                put_u64(&mut b, *session);
                put_u64(&mut b, *high_acked);
            }
            Frame::Request(Request::ReadFresh { tenant, id, min_slot }) => {
                put_u32(&mut b, *tenant);
                put_u64(&mut b, *id);
                put_u64(&mut b, *min_slot);
            }
            Frame::Response(Response::Committed { id, slot }) => {
                put_u64(&mut b, *id);
                put_u64(&mut b, *slot);
            }
            Frame::Response(Response::QueryResult { id, slot }) => {
                put_u64(&mut b, *id);
                match slot {
                    Some(s) => {
                        b.push(1);
                        put_u64(&mut b, *s);
                    }
                    None => b.push(0),
                }
            }
            Frame::Response(Response::AuditDigest { digest }) => {
                b.extend_from_slice(digest);
            }
            Frame::Response(Response::Overloaded { retry_after_us, id }) => {
                put_u64(&mut b, *retry_after_us);
                put_u64(&mut b, *id);
            }
            Frame::Response(Response::DeadlineExceeded { id }) => {
                put_u64(&mut b, *id);
            }
            Frame::Response(Response::Rejected { reason }) => {
                b.push(reason.to_u8());
            }
            Frame::Response(Response::SessionAck { session, resumed, applied_slot }) => {
                put_u64(&mut b, *session);
                b.push(u8::from(*resumed));
                put_u64(&mut b, *applied_slot);
            }
            Frame::Response(Response::ReadFreshResult { id, slot, applied_slot, digest, floor }) => {
                put_u64(&mut b, *id);
                match slot {
                    Some(s) => {
                        b.push(1);
                        put_u64(&mut b, *s);
                    }
                    None => b.push(0),
                }
                put_u64(&mut b, *applied_slot);
                b.extend_from_slice(digest);
                put_u64(&mut b, *floor);
            }
        }
        b
    }

    /// Encodes the frame: header (with CRC over header-sans-crc ‖ body)
    /// followed by the body.
    pub fn encode(&self) -> Vec<u8> {
        let body = self.body();
        debug_assert!(body.len() <= MAX_BODY, "encoder produced an oversize body");
        let mut out = Vec::with_capacity(HEADER_LEN + body.len());
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.push(PROTOCOL_VERSION);
        out.push(self.kind());
        put_u32(&mut out, body.len() as u32);
        let crc = crc32_update(crc32(&out), &body);
        put_u32(&mut out, crc);
        out.extend_from_slice(&body);
        out
    }

    /// Decodes one frame from the front of `buf`, returning it and the
    /// number of bytes consumed. [`WireError::Incomplete`] means "read
    /// more and retry"; every other error is terminal for the stream.
    pub fn decode(buf: &[u8]) -> Result<(Frame, usize), WireError> {
        if buf.len() < HEADER_LEN {
            // Reject recognizably-bad prefixes before asking for more
            // bytes: a stream that opens with the wrong magic will never
            // become a valid frame however much is read.
            if buf.len() >= 2 && buf[..2] != MAGIC.to_le_bytes() {
                return Err(WireError::BadMagic);
            }
            if buf.len() >= 3 && buf[2] != PROTOCOL_VERSION {
                return Err(WireError::VersionSkew);
            }
            return Err(WireError::Incomplete);
        }
        if buf[..2] != MAGIC.to_le_bytes() {
            return Err(WireError::BadMagic);
        }
        if buf[2] != PROTOCOL_VERSION {
            return Err(WireError::VersionSkew);
        }
        let kind = buf[3];
        let len = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes")) as usize;
        if len > MAX_BODY {
            return Err(WireError::Oversize);
        }
        let total = HEADER_LEN + len;
        if buf.len() < total {
            return Err(WireError::Incomplete);
        }
        let crc = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes"));
        if crc != crc32_update(crc32(&buf[..8]), &buf[HEADER_LEN..total]) {
            return Err(WireError::BadCrc);
        }
        let frame = Self::decode_body(kind, &buf[HEADER_LEN..total])?;
        Ok((frame, total))
    }

    fn decode_body(kind: u8, body: &[u8]) -> Result<Frame, WireError> {
        let mut r = Reader::new(body);
        let frame = match kind {
            K_SUBMIT => {
                let tenant = r.u32()?;
                let class = Class::from_u8(r.u8()?)?;
                let deadline = r.u64()?;
                let submission = read_submission(&mut r)?;
                Frame::Request(Request::Submit { tenant, class, deadline, submission })
            }
            K_SUBMIT_BATCH => {
                let tenant = r.u32()?;
                let class = Class::from_u8(r.u8()?)?;
                let deadline = r.u64()?;
                let count = r.u32()? as usize;
                if count > MAX_BATCH {
                    return Err(WireError::Oversize);
                }
                // Capacity is bounded by what the body can actually
                // hold, not by the attacker-controlled count.
                let mut submissions =
                    Vec::with_capacity(count.min(body.len() / 12 + 1));
                for _ in 0..count {
                    submissions.push(read_submission(&mut r)?);
                }
                Frame::Request(Request::SubmitBatch { tenant, class, deadline, submissions })
            }
            K_QUERY => {
                let tenant = r.u32()?;
                let id = r.u64()?;
                Frame::Request(Request::Query { tenant, id })
            }
            K_AUDIT => {
                let tenant = r.u32()?;
                Frame::Request(Request::AuditDigest { tenant })
            }
            K_HELLO => {
                let tenant = r.u32()?;
                let session = r.u64()?;
                Frame::Request(Request::Hello { tenant, session })
            }
            K_RESUME => {
                let tenant = r.u32()?;
                let session = r.u64()?;
                let high_acked = r.u64()?;
                Frame::Request(Request::Resume { tenant, session, high_acked })
            }
            K_READ_FRESH => {
                let tenant = r.u32()?;
                let id = r.u64()?;
                let min_slot = r.u64()?;
                Frame::Request(Request::ReadFresh { tenant, id, min_slot })
            }
            K_COMMITTED => {
                let id = r.u64()?;
                let slot = r.u64()?;
                Frame::Response(Response::Committed { id, slot })
            }
            K_QUERY_RESULT => {
                let id = r.u64()?;
                let slot = match r.u8()? {
                    0 => None,
                    1 => Some(r.u64()?),
                    _ => return Err(WireError::Malformed),
                };
                Frame::Response(Response::QueryResult { id, slot })
            }
            K_AUDIT_DIGEST => {
                let digest: [u8; 32] =
                    r.take(32)?.try_into().map_err(|_| WireError::Malformed)?;
                Frame::Response(Response::AuditDigest { digest })
            }
            K_OVERLOADED => {
                let retry_after_us = r.u64()?;
                let id = r.u64()?;
                Frame::Response(Response::Overloaded { retry_after_us, id })
            }
            K_DEADLINE => {
                let id = r.u64()?;
                Frame::Response(Response::DeadlineExceeded { id })
            }
            K_REJECTED => {
                let reason = RejectReason::from_u8(r.u8()?)?;
                Frame::Response(Response::Rejected { reason })
            }
            K_SESSION_ACK => {
                let session = r.u64()?;
                let resumed = match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::Malformed),
                };
                let applied_slot = r.u64()?;
                Frame::Response(Response::SessionAck { session, resumed, applied_slot })
            }
            K_READ_FRESH_RESULT => {
                let id = r.u64()?;
                let slot = match r.u8()? {
                    0 => None,
                    1 => Some(r.u64()?),
                    _ => return Err(WireError::Malformed),
                };
                let applied_slot = r.u64()?;
                let digest: [u8; 32] =
                    r.take(32)?.try_into().map_err(|_| WireError::Malformed)?;
                let floor = r.u64()?;
                Frame::Response(Response::ReadFreshResult { id, slot, applied_slot, digest, floor })
            }
            _ => return Err(WireError::Malformed),
        };
        r.finish()?;
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::strategy::{BoxedStrategy, Just};

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Request(Request::Submit {
                tenant: 7,
                class: Class::High,
                deadline: 1_000_000,
                submission: Submission { id: 42, payload: Bytes::from(vec![1, 2, 3]) },
            }),
            Frame::Request(Request::SubmitBatch {
                tenant: 2,
                class: Class::Low,
                deadline: 0,
                submissions: vec![
                    Submission { id: 1, payload: Bytes::new() },
                    Submission { id: 2, payload: Bytes::from(vec![0xff; 64]) },
                ],
            }),
            Frame::Request(Request::Query { tenant: 9, id: 77 }),
            Frame::Request(Request::AuditDigest { tenant: 3 }),
            Frame::Request(Request::Hello { tenant: 4, session: 0xdead_beef }),
            Frame::Request(Request::Resume {
                tenant: 4,
                session: 0xdead_beef,
                high_acked: 1_041,
            }),
            Frame::Request(Request::ReadFresh { tenant: 4, id: 1_042, min_slot: 37 }),
            Frame::Response(Response::Committed { id: 42, slot: 12 }),
            Frame::Response(Response::QueryResult { id: 42, slot: Some(12) }),
            Frame::Response(Response::QueryResult { id: 43, slot: None }),
            Frame::Response(Response::AuditDigest { digest: [0xab; 32] }),
            Frame::Response(Response::Overloaded { retry_after_us: 5_000, id: 42 }),
            Frame::Response(Response::DeadlineExceeded { id: 42 }),
            Frame::Response(Response::Rejected { reason: RejectReason::BadFrame }),
            Frame::Response(Response::SessionAck {
                session: 0xdead_beef,
                resumed: true,
                applied_slot: 55,
            }),
            Frame::Response(Response::ReadFreshResult {
                id: 1_042,
                slot: Some(37),
                applied_slot: 55,
                digest: [0xcd; 32],
                floor: 8,
            }),
            Frame::Response(Response::ReadFreshResult {
                id: 1_043,
                slot: None,
                applied_slot: 12,
                digest: [0x11; 32],
                floor: 0,
            }),
        ]
    }

    #[test]
    fn roundtrip_every_variant() {
        for frame in sample_frames() {
            let enc = frame.encode();
            let (dec, used) = Frame::decode(&enc).expect("decode");
            assert_eq!(dec, frame);
            assert_eq!(used, enc.len());
        }
    }

    #[test]
    fn decode_consumes_exactly_one_frame_from_a_stream() {
        let frames = sample_frames();
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&f.encode());
        }
        let mut at = 0;
        for f in &frames {
            let (dec, used) = Frame::decode(&stream[at..]).expect("decode");
            assert_eq!(&dec, f);
            at += used;
        }
        assert_eq!(at, stream.len());
        assert_eq!(Frame::decode(&stream[at..]), Err(WireError::Incomplete));
    }

    #[test]
    fn every_truncation_is_incomplete_never_panics() {
        for frame in sample_frames() {
            let enc = frame.encode();
            for cut in 0..enc.len() {
                assert_eq!(
                    Frame::decode(&enc[..cut]),
                    Err(WireError::Incomplete),
                    "prefix {cut} of {} bytes",
                    enc.len()
                );
            }
        }
    }

    #[test]
    fn bad_magic_rejects_even_on_short_reads() {
        let mut enc = sample_frames()[0].encode();
        enc[0] ^= 0xff;
        assert_eq!(Frame::decode(&enc), Err(WireError::BadMagic));
        assert_eq!(Frame::decode(&enc[..2]), Err(WireError::BadMagic));
    }

    #[test]
    fn version_skew_rejects_loudly() {
        let mut enc = sample_frames()[0].encode();
        enc[2] = PROTOCOL_VERSION + 1;
        assert_eq!(Frame::decode(&enc), Err(WireError::VersionSkew));
        assert_eq!(Frame::decode(&enc[..3]), Err(WireError::VersionSkew));
    }

    #[test]
    fn oversize_length_prefix_rejected_before_allocation() {
        let mut enc = sample_frames()[0].encode();
        enc[4..8].copy_from_slice(&(u32::MAX).to_le_bytes());
        // A hostile 4 GiB length must be rejected from the 12-byte
        // header alone, not answered with Incomplete (which would make
        // the reassembler buffer forever).
        assert_eq!(Frame::decode(&enc), Err(WireError::Oversize));
    }

    #[test]
    fn oversize_inner_batch_count_rejected() {
        let frame = Frame::Request(Request::SubmitBatch {
            tenant: 1,
            class: Class::Normal,
            deadline: 0,
            submissions: vec![Submission { id: 1, payload: Bytes::new() }],
        });
        let mut enc = frame.encode();
        // Body layout: tenant(4) class(1) deadline(8) count(4)...
        let count_at = HEADER_LEN + 4 + 1 + 8;
        enc[count_at..count_at + 4].copy_from_slice(&(MAX_BATCH as u32 + 1).to_le_bytes());
        // Re-CRC so only the count bound trips, not the checksum.
        let len = u32::from_le_bytes(enc[4..8].try_into().unwrap()) as usize;
        let mut crc_input = enc[..8].to_vec();
        crc_input.extend_from_slice(&enc[HEADER_LEN..HEADER_LEN + len]);
        let crc = crc32(&crc_input);
        enc[8..12].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(Frame::decode(&enc), Err(WireError::Oversize));
    }

    #[test]
    fn flipped_bits_fail_crc() {
        let enc = sample_frames()[0].encode();
        for bit in 0..enc.len() * 8 {
            let mut damaged = enc.clone();
            damaged[bit / 8] ^= 1 << (bit % 8);
            let r = Frame::decode(&damaged);
            // Any flip is caught by magic/version/kind/len validation or
            // the CRC; flips in the length field may also read as
            // Incomplete (the frame now claims more bytes than sent).
            assert_ne!(
                r,
                Ok((sample_frames()[0].clone(), enc.len())),
                "bit {bit} flip decoded as the original frame"
            );
            if let Ok((f, _)) = r {
                panic!("bit {bit} flip decoded silently as {f:?}");
            }
        }
    }

    #[test]
    fn trailing_garbage_in_body_is_malformed() {
        let frame = Frame::Request(Request::Query { tenant: 1, id: 2 });
        let body_garbage = {
            let mut b = Vec::new();
            super::put_u32(&mut b, 1);
            super::put_u64(&mut b, 2);
            b.push(0xee); // trailing byte the reader must not ignore
            b
        };
        let mut enc = Vec::new();
        enc.extend_from_slice(&MAGIC.to_le_bytes());
        enc.push(PROTOCOL_VERSION);
        enc.push(super::K_QUERY);
        super::put_u32(&mut enc, body_garbage.len() as u32);
        let mut crc_input = enc.clone();
        crc_input.extend_from_slice(&body_garbage);
        super::put_u32(&mut enc, crc32(&crc_input));
        enc.extend_from_slice(&body_garbage);
        let _ = frame;
        assert_eq!(Frame::decode(&enc), Err(WireError::Malformed));
    }

    /// Builds a frame with `kind` and a hand-rolled `body`, CRC'd so
    /// only body validation can trip.
    fn raw_frame(kind: u8, body: &[u8]) -> Vec<u8> {
        let mut enc = Vec::new();
        enc.extend_from_slice(&MAGIC.to_le_bytes());
        enc.push(PROTOCOL_VERSION);
        enc.push(kind);
        super::put_u32(&mut enc, body.len() as u32);
        let mut crc_input = enc.clone();
        crc_input.extend_from_slice(body);
        super::put_u32(&mut enc, crc32(&crc_input));
        enc.extend_from_slice(body);
        enc
    }

    #[test]
    fn session_ack_with_non_boolean_resumed_flag_is_malformed() {
        let mut body = Vec::new();
        super::put_u64(&mut body, 7); // session
        body.push(2); // hostile resumed flag
        super::put_u64(&mut body, 9); // applied_slot
        assert_eq!(
            Frame::decode(&raw_frame(super::K_SESSION_ACK, &body)),
            Err(WireError::Malformed)
        );
    }

    #[test]
    fn read_fresh_result_with_bad_slot_tag_or_short_digest_is_malformed() {
        // Hostile slot tag.
        let mut body = Vec::new();
        super::put_u64(&mut body, 7); // id
        body.push(7); // hostile slot tag
        super::put_u64(&mut body, 9);
        body.extend_from_slice(&[0u8; 32]);
        assert_eq!(
            Frame::decode(&raw_frame(super::K_READ_FRESH_RESULT, &body)),
            Err(WireError::Malformed)
        );
        // Digest truncated to 31 bytes inside an otherwise valid body.
        let mut body = Vec::new();
        super::put_u64(&mut body, 7);
        body.push(0);
        super::put_u64(&mut body, 9);
        body.extend_from_slice(&[0u8; 31]);
        assert_eq!(
            Frame::decode(&raw_frame(super::K_READ_FRESH_RESULT, &body)),
            Err(WireError::Malformed)
        );
    }

    #[test]
    fn resume_with_trailing_bytes_is_malformed() {
        let mut body = Vec::new();
        super::put_u32(&mut body, 1);
        super::put_u64(&mut body, 2);
        super::put_u64(&mut body, 3);
        body.push(0xee);
        assert_eq!(
            Frame::decode(&raw_frame(super::K_RESUME, &body)),
            Err(WireError::Malformed)
        );
    }

    fn arb_class() -> BoxedStrategy<Class> {
        prop_oneof![Just(Class::High), Just(Class::Normal), Just(Class::Low)].boxed()
    }

    fn arb_submission() -> BoxedStrategy<Submission> {
        (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..48))
            .prop_map(|(id, p)| Submission { id, payload: Bytes::from(p) })
            .boxed()
    }

    fn arb_frame() -> BoxedStrategy<Frame> {
        prop_oneof![
            (any::<u32>(), arb_class(), any::<u64>(), arb_submission()).prop_map(
                |(tenant, class, deadline, submission)| Frame::Request(Request::Submit {
                    tenant,
                    class,
                    deadline,
                    submission
                })
            ),
            (
                any::<u32>(),
                arb_class(),
                any::<u64>(),
                proptest::collection::vec(arb_submission(), 0..5)
            )
                .prop_map(|(tenant, class, deadline, submissions)| Frame::Request(
                    Request::SubmitBatch { tenant, class, deadline, submissions }
                )),
            (any::<u32>(), any::<u64>())
                .prop_map(|(tenant, id)| Frame::Request(Request::Query { tenant, id })),
            any::<u32>().prop_map(|tenant| Frame::Request(Request::AuditDigest { tenant })),
            (any::<u64>(), any::<u64>())
                .prop_map(|(id, slot)| Frame::Response(Response::Committed { id, slot })),
            (any::<u64>(), any::<u64>()).prop_map(|(retry_after_us, id)| Frame::Response(
                Response::Overloaded { retry_after_us, id }
            )),
            (any::<u32>(), any::<u64>())
                .prop_map(|(tenant, session)| Frame::Request(Request::Hello { tenant, session })),
            (any::<u32>(), any::<u64>(), any::<u64>()).prop_map(
                |(tenant, session, high_acked)| Frame::Request(Request::Resume {
                    tenant,
                    session,
                    high_acked
                })
            ),
            (any::<u32>(), any::<u64>(), any::<u64>()).prop_map(|(tenant, id, min_slot)| {
                Frame::Request(Request::ReadFresh { tenant, id, min_slot })
            }),
            (any::<u64>(), any::<bool>(), any::<u64>()).prop_map(
                |(session, resumed, applied_slot)| Frame::Response(Response::SessionAck {
                    session,
                    resumed,
                    applied_slot
                })
            ),
            (any::<u64>(), any::<bool>(), any::<u64>(), any::<u64>(), any::<u8>(), any::<u64>())
                .prop_map(|(id, has_slot, slot, applied_slot, fill, floor)| Frame::Response(
                    Response::ReadFreshResult {
                        id,
                        slot: has_slot.then_some(slot),
                        applied_slot,
                        digest: [fill; 32],
                        floor,
                    }
                )),
        ]
        .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn prop_decode_inverts_encode(frame in arb_frame()) {
            let enc = frame.encode();
            let (dec, used) = Frame::decode(&enc).unwrap();
            prop_assert_eq!(dec, frame);
            prop_assert_eq!(used, enc.len());
        }

        #[test]
        fn prop_random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            // Arbitrary garbage must produce an error or a frame — never
            // a panic, never an over-allocation.
            let _ = Frame::decode(&bytes);
        }

        #[test]
        fn prop_truncations_are_incomplete(frame in arb_frame(), frac in 0.0..1.0f64) {
            let enc = frame.encode();
            let cut = (enc.len() as f64 * frac) as usize;
            prop_assert!(cut < enc.len());
            prop_assert_eq!(Frame::decode(&enc[..cut]), Err(WireError::Incomplete));
        }
    }
}
