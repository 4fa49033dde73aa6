//! Stop-and-wait RPC with retransmission and duplicate suppression.
//!
//! The [`Transport`] contract allows drops, duplicates and reordering; this
//! layer restores *exactly-once request execution*:
//!
//! * The client numbers requests with a monotone sequence counter, sends,
//!   and waits for the response carrying that sequence number; on a receive
//!   timeout it retransmits the same request.
//! * The server remembers the last executed sequence number and its encoded
//!   response: a request with the same number is answered from the cache
//!   *without re-executing*, an older number is ignored entirely.
//!
//! With one request in flight at a time (stop-and-wait), this is the
//! classic alternating-protocol argument: every request body is executed
//! exactly once, in order, no matter how the link mangles frames — which is
//! what lets a host shard's state machine stay deterministic over a flaky
//! link. Responses the client has stopped waiting for (stale duplicates)
//! are discarded by sequence number.
//!
//! The envelope inside each `FNET` frame payload is, normatively:
//!
//! ```text
//! offset  size  field
//! 0       1     kind: 1 = request, 2 = response
//! 1       8     sequence number, u64 LE
//! 9       ..    message body (see `fuse_net::message`)
//! ```

use std::time::{Duration, Instant};

use crate::error::NetError;
use crate::transport::Transport;
use crate::Result;

/// Envelope kind byte of a request.
pub const KIND_REQUEST: u8 = 1;
/// Envelope kind byte of a response.
pub const KIND_RESPONSE: u8 = 2;

/// Default per-attempt receive timeout before a retransmission.
pub const DEFAULT_RPC_TIMEOUT: Duration = Duration::from_millis(50);

/// Default retransmission budget per call.
pub const DEFAULT_RPC_ATTEMPTS: u32 = 200;

/// Bytes of the envelope in front of every message body.
const ENVELOPE_LEN: usize = 9;

fn encode_envelope(kind: u8, seq: u64, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ENVELOPE_LEN + body.len());
    out.push(kind);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Reads the envelope's kind and sequence number; the body is
/// `payload[ENVELOPE_LEN..]`.
fn decode_envelope(payload: &[u8]) -> Result<(u8, u64)> {
    if payload.len() < ENVELOPE_LEN {
        return Err(NetError::Truncated { what: "rpc envelope" });
    }
    let kind = payload[0];
    if kind != KIND_REQUEST && kind != KIND_RESPONSE {
        return Err(NetError::Decode(format!("unknown rpc envelope kind {kind}")));
    }
    let seq = u64::from_le_bytes(payload[1..ENVELOPE_LEN].try_into().expect("sliced to 8 bytes"));
    Ok((kind, seq))
}

/// Strips the envelope off a received payload in place, leaving the body.
fn into_body(mut payload: Vec<u8>) -> Vec<u8> {
    payload.drain(..ENVELOPE_LEN);
    payload
}

/// The calling side: one outstanding request at a time, retransmitted until
/// its response arrives.
#[derive(Debug)]
pub struct RpcClient<T: Transport> {
    transport: T,
    seq: u64,
    timeout: Duration,
    max_attempts: u32,
}

impl<T: Transport> RpcClient<T> {
    /// Wraps a transport with the default retransmission timer.
    pub fn new(transport: T) -> Self {
        RpcClient {
            transport,
            seq: 0,
            timeout: DEFAULT_RPC_TIMEOUT,
            max_attempts: DEFAULT_RPC_ATTEMPTS,
        }
    }

    /// Overrides the per-attempt receive timeout (clamped to ≥ 1 ms).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout.max(Duration::from_millis(1));
        self
    }

    /// Overrides the retransmission budget (clamped to ≥ 1 attempt).
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Executes one request: sends `body`, waits for the matching response,
    /// retransmitting on timeout; returns the response body.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Timeout`] when every attempt expired,
    /// [`NetError::Disconnected`] when the peer is gone, and propagates
    /// frame/envelope corruption errors.
    pub fn call(&mut self, body: &[u8]) -> Result<Vec<u8>> {
        self.seq += 1;
        let request = encode_envelope(KIND_REQUEST, self.seq, body);
        for _attempt in 0..self.max_attempts {
            self.transport.send(&request)?;
            let deadline = Instant::now() + self.timeout;
            loop {
                let now = Instant::now();
                if now >= deadline {
                    break; // retransmit
                }
                match self.transport.recv_timeout(deadline - now)? {
                    None => break, // retransmit
                    Some(payload) => {
                        let (kind, seq) = decode_envelope(&payload)?;
                        if kind == KIND_RESPONSE && seq == self.seq {
                            return Ok(into_body(payload));
                        }
                        // A stale duplicate response (or our own kind echoed
                        // by a buggy peer): ignore and keep waiting.
                    }
                }
            }
        }
        Err(NetError::Timeout)
    }
}

/// The serving side: executes each distinct request exactly once and
/// answers duplicates from a response cache.
#[derive(Debug)]
pub struct RpcServer<T: Transport> {
    transport: T,
    /// Sequence number of the last request whose response was sent, with
    /// the encoded response envelope for duplicate suppression.
    completed: Option<(u64, Vec<u8>)>,
    /// Sequence number surfaced by `next_request` and not yet answered.
    pending_seq: Option<u64>,
}

impl<T: Transport> RpcServer<T> {
    /// Wraps a transport.
    pub fn new(transport: T) -> Self {
        RpcServer { transport, completed: None, pending_seq: None }
    }

    /// Waits up to `timeout` for the next *new* request and returns its
    /// body, or `None` when the deadline passes. Duplicates of the last
    /// answered request are re-answered from the cache internally; stale
    /// (older) requests are ignored. After a body is returned, the caller
    /// must call [`RpcServer::respond`] before asking for the next request.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Disconnected`] when the peer is gone and
    /// propagates frame/envelope corruption errors.
    pub fn next_request(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>> {
        debug_assert!(self.pending_seq.is_none(), "previous request was never answered");
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            let Some(payload) = self.transport.recv_timeout(deadline - now)? else {
                return Ok(None);
            };
            let (kind, seq) = decode_envelope(&payload)?;
            if kind != KIND_REQUEST {
                continue;
            }
            match &self.completed {
                Some((last, cached)) if seq == *last => {
                    // A retransmission of the request we already executed:
                    // resend the cached response, do NOT re-execute.
                    let cached = cached.clone();
                    self.transport.send(&cached)?;
                }
                Some((last, _)) if seq < *last => {
                    // Older than anything relevant (a long-delayed
                    // duplicate): ignore.
                }
                _ => {
                    self.pending_seq = Some(seq);
                    return Ok(Some(into_body(payload)));
                }
            }
        }
    }

    /// Sends the response for the request last returned by
    /// [`RpcServer::next_request`] and caches it for duplicate suppression.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Disconnected`] / [`NetError::Io`] on transport
    /// failure. Panics (debug) if no request is pending.
    pub fn respond(&mut self, body: &[u8]) -> Result<()> {
        let seq = self.pending_seq.take().expect("respond() without a pending request");
        let response = encode_envelope(KIND_RESPONSE, seq, body);
        self.transport.send(&response)?;
        self.completed = Some((seq, response));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{sim_pair, FaultConfig};
    use std::thread;

    /// An echo server that counts executions, so tests can assert
    /// exactly-once semantics under faults.
    fn spawn_counting_echo(
        server_transport: crate::sim::SimTransport,
        requests_to_serve: usize,
    ) -> thread::JoinHandle<Vec<Vec<u8>>> {
        thread::spawn(move || {
            let mut server = RpcServer::new(server_transport);
            let mut executed = Vec::new();
            while executed.len() < requests_to_serve {
                if let Some(body) = server.next_request(Duration::from_secs(10)).unwrap() {
                    executed.push(body.clone());
                    let mut reply = b"echo:".to_vec();
                    reply.extend_from_slice(&body);
                    server.respond(&reply).unwrap();
                }
            }
            executed
        })
    }

    #[test]
    fn calls_round_trip_over_a_clean_link() {
        let (client_t, server_t) = sim_pair(FaultConfig::default(), FaultConfig::default());
        let server = spawn_counting_echo(server_t, 3);
        let mut client = RpcClient::new(client_t);
        for i in 0..3u8 {
            assert_eq!(client.call(&[i]).unwrap(), [b"echo:".as_slice(), &[i]].concat());
        }
        assert_eq!(server.join().unwrap(), vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn every_request_executes_exactly_once_over_a_flaky_link() {
        // Both directions drop, duplicate and reorder; the protocol must
        // deliver every call's response and execute each body exactly once.
        let (client_t, server_t) = sim_pair(FaultConfig::flaky(11), FaultConfig::flaky(23));
        let client_faults = client_t.fault_handle();
        let server_faults = server_t.fault_handle();
        const CALLS: usize = 40;
        let server = spawn_counting_echo(server_t, CALLS);
        let mut client = RpcClient::new(client_t).with_timeout(Duration::from_millis(10));
        for i in 0..CALLS as u8 {
            assert_eq!(client.call(&[i]).unwrap(), [b"echo:".as_slice(), &[i]].concat());
        }
        let executed = server.join().unwrap();
        assert_eq!(
            executed,
            (0..CALLS as u8).map(|i| vec![i]).collect::<Vec<_>>(),
            "each body must execute exactly once, in order"
        );
        let cf = client_faults.snapshot();
        let sf = server_faults.snapshot();
        assert!(cf.dropped > 0 && cf.duplicated > 0 && cf.reordered > 0, "request faults: {cf:?}");
        assert!(sf.dropped > 0 && sf.duplicated > 0 && sf.reordered > 0, "response faults: {sf:?}");
    }

    #[test]
    fn a_dead_peer_is_a_timeout_not_a_hang() {
        let (client_t, server_t) = sim_pair(
            // Drop every request so the server never answers.
            FaultConfig { drop_1_in: 1, ..FaultConfig::default() },
            FaultConfig::default(),
        );
        let mut client =
            RpcClient::new(client_t).with_timeout(Duration::from_millis(2)).with_max_attempts(5);
        let err = client.call(b"anyone there?").unwrap_err();
        assert_eq!(err, NetError::Timeout);
        drop(server_t);
    }

    #[test]
    fn a_disconnected_peer_is_reported_as_such() {
        let (client_t, server_t) = sim_pair(FaultConfig::default(), FaultConfig::default());
        drop(server_t);
        let mut client = RpcClient::new(client_t);
        assert_eq!(client.call(b"x").unwrap_err(), NetError::Disconnected);
    }
}
