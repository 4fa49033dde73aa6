//! Pluggable frame transports.
//!
//! A [`Transport`] moves opaque payloads between two endpoints, one `FNET`
//! frame per payload. The contract is deliberately weak — exactly what a
//! flaky datagram link gives you: a sent payload may arrive zero, one, or
//! more times, and payloads may arrive out of order. The [`crate::rpc`]
//! layer builds exactly-once request/response semantics on top, so shard
//! state machines never see the weakness.
//!
//! Two implementations ship:
//!
//! * [`TcpTransport`] — a real TCP/loopback stream with `FNET` framing (TCP
//!   itself neither drops nor reorders, but the RPC layer does not rely on
//!   that).
//! * [`crate::sim::SimTransport`] — an in-memory pair with injectable
//!   delay, drop, duplication and reordering, used by tests to prove the
//!   serving contract holds on a link that exercises every recovery path.

use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::error::NetError;
use crate::frame::{decode_frame, frame_len, frame_parts, FRAME_HEADER_LEN};
use crate::Result;

/// Bytes asked of one socket read while a frame header is incomplete; a
/// small frame usually arrives whole in that read.
const HEADER_READ: usize = 4096;

/// Largest single socket read of a frame body.
const MAX_READ: usize = 1 << 20;

/// A bidirectional, frame-oriented, possibly-unreliable link endpoint.
pub trait Transport: Send {
    /// Sends one payload as one `FNET` frame. Delivery is not guaranteed
    /// (an implementation may drop, duplicate, reorder or delay it).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Disconnected`] when the peer is gone for good
    /// and [`NetError::Io`] for transport-level failures.
    fn send(&mut self, payload: &[u8]) -> Result<()>;

    /// Receives the next frame's payload, waiting at most `timeout`.
    /// Returns `Ok(None)` when the deadline passes with nothing received —
    /// the signal the RPC layer's retransmission timer runs on.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Disconnected`] when the peer is gone for good,
    /// frame-validation errors for corrupt data, and [`NetError::Io`] for
    /// transport-level failures.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>>;
}

impl Transport for Box<dyn Transport> {
    fn send(&mut self, payload: &[u8]) -> Result<()> {
        (**self).send(payload)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>> {
        (**self).recv_timeout(timeout)
    }
}

/// `FNET` framing over a TCP stream (loopback or real network).
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
    /// Bytes read off the stream but not yet consumed as a complete frame;
    /// a read timeout mid-frame keeps the partial frame here.
    rx_buf: Vec<u8>,
}

impl TcpTransport {
    /// Connects to a listening host shard.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when the connection fails.
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Ok(Self::from_stream(stream))
    }

    /// Wraps an already-established stream (e.g. from `TcpListener::accept`).
    pub fn from_stream(stream: TcpStream) -> Self {
        // Frames are small and latency-bound; never batch them.
        let _ = stream.set_nodelay(true);
        TcpTransport { stream, rx_buf: Vec::new() }
    }

    /// Verifies the complete `total`-byte frame at the head of `rx_buf` in
    /// place and pops its payload. When the buffer holds just this frame (the
    /// usual case), the buffer itself becomes the payload.
    fn pop_frame(&mut self, total: usize) -> Result<Vec<u8>> {
        let payload_len = decode_frame(&self.rx_buf[..total])?.len();
        let payload_end = FRAME_HEADER_LEN + payload_len;
        if self.rx_buf.len() == total {
            let mut payload = std::mem::take(&mut self.rx_buf);
            payload.truncate(payload_end);
            payload.drain(..FRAME_HEADER_LEN);
            return Ok(payload);
        }
        let payload = self.rx_buf[FRAME_HEADER_LEN..payload_end].to_vec();
        self.rx_buf.drain(..total);
        Ok(payload)
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, payload: &[u8]) -> Result<()> {
        // Header, payload and trailer go out as one gathered write, so the
        // payload is never copied into a frame.
        let (head, tail) = frame_parts(payload);
        let mut parts = [IoSlice::new(&head), IoSlice::new(payload), IoSlice::new(&tail)];
        let mut unsent = &mut parts[..];
        while !unsent.is_empty() {
            match self.stream.write_vectored(unsent) {
                Ok(0) => return Err(map_io(ErrorKind::WriteZero.into())),
                Ok(n) => IoSlice::advance_slices(&mut unsent, n),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(map_io(e)),
            }
        }
        Ok(())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>> {
        let deadline = Instant::now() + timeout;
        loop {
            // Read at most to the end of the frame being assembled, and grow
            // the buffer only by what one read can fill: a header that lies
            // about its length gets no allocation for it.
            let want = if self.rx_buf.len() < FRAME_HEADER_LEN {
                HEADER_READ
            } else {
                let total = frame_len(&self.rx_buf)?;
                if self.rx_buf.len() >= total {
                    return self.pop_frame(total).map(Some);
                }
                (total - self.rx_buf.len()).min(MAX_READ)
            };
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            // `set_read_timeout(Some(0))` is an error by contract; the
            // deadline check above keeps this strictly positive anyway, but
            // clamp defensively.
            let remaining = (deadline - now).max(Duration::from_millis(1));
            self.stream.set_read_timeout(Some(remaining)).map_err(map_io)?;
            let start = self.rx_buf.len();
            self.rx_buf.resize(start + want, 0);
            let read = self.stream.read(&mut self.rx_buf[start..]);
            self.rx_buf.truncate(start + read.as_ref().map_or(0, |&n| n));
            match read {
                Ok(0) => return Err(NetError::Disconnected),
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Ok(None);
                }
                Err(e) => return Err(map_io(e)),
            }
        }
    }
}

fn map_io(e: std::io::Error) -> NetError {
    match e.kind() {
        ErrorKind::ConnectionReset
        | ErrorKind::ConnectionAborted
        | ErrorKind::BrokenPipe
        | ErrorKind::UnexpectedEof => NetError::Disconnected,
        _ => NetError::Io(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    #[test]
    fn tcp_round_trips_frames_over_loopback() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::from_stream(stream);
            // Echo two messages back, then a large one.
            for _ in 0..3 {
                let msg = t.recv_timeout(Duration::from_secs(10)).unwrap().unwrap();
                t.send(&msg).unwrap();
            }
        });

        let mut client = TcpTransport::connect(addr).unwrap();
        assert_eq!(
            client.recv_timeout(Duration::from_millis(10)).unwrap(),
            None,
            "nothing sent yet: the deadline must pass quietly"
        );
        for msg in [&b"ping"[..], b"", &vec![0xabu8; 100_000]] {
            client.send(msg).unwrap();
            let echoed = client.recv_timeout(Duration::from_secs(10)).unwrap().unwrap();
            assert_eq!(echoed, msg);
        }
        server.join().unwrap();
    }

    #[test]
    fn send_writes_exactly_the_encoded_frames() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reader = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut wire = Vec::new();
            stream.read_to_end(&mut wire).unwrap();
            wire
        });
        let big: Vec<u8> = (0..3_000_000u32).map(|i| (i % 251) as u8).collect();
        let mut client = TcpTransport::connect(addr).unwrap();
        client.send(&big).unwrap();
        client.send(b"").unwrap();
        drop(client);
        let expected = [crate::frame::encode_frame(&big), crate::frame::encode_frame(b"")].concat();
        assert!(reader.join().unwrap() == expected, "wire bytes differ from encode_frame");
    }

    #[test]
    fn frames_sharing_a_read_and_a_lying_length_are_handled_in_place() {
        use crate::frame::{encode_frame, MAX_FRAME_PAYLOAD};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let writer = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut wire = [encode_frame(b"first"), encode_frame(b"second")].concat();
            // A header declaring a 1 GiB payload, followed by three bytes.
            let mut liar = encode_frame(b"")[..FRAME_HEADER_LEN].to_vec();
            liar[8..16].copy_from_slice(&MAX_FRAME_PAYLOAD.to_le_bytes());
            wire.extend_from_slice(&liar);
            wire.extend_from_slice(b"abc");
            stream.write_all(&wire).unwrap();
            done_rx.recv().unwrap();
        });
        let mut client = TcpTransport::connect(addr).unwrap();
        let wait = Duration::from_secs(10);
        assert_eq!(client.recv_timeout(wait).unwrap().unwrap(), b"first");
        assert_eq!(client.recv_timeout(wait).unwrap().unwrap(), b"second");
        assert_eq!(client.recv_timeout(Duration::from_millis(50)).unwrap(), None);
        assert!(
            client.rx_buf.capacity() <= 2 * MAX_READ,
            "a lying length must not be allocated up front ({} bytes)",
            client.rx_buf.capacity()
        );
        done_tx.send(()).unwrap();
        writer.join().unwrap();
    }

    #[test]
    fn tcp_reports_a_closed_peer_as_disconnected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            drop(stream);
        });
        let mut client = TcpTransport::connect(addr).unwrap();
        server.join().unwrap();
        assert_eq!(
            client.recv_timeout(Duration::from_secs(5)).unwrap_err(),
            NetError::Disconnected
        );
    }
}
