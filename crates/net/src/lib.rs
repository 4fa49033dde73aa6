//! fuse-net — the cluster wire layer: framed, checksummed, loss-tolerant
//! transport plus the shard-serving message vocabulary.
//!
//! The stack, bottom to top:
//!
//! 1. [`frame`] — the `FNET` container every byte on a link travels in:
//!    ASCII magic, version, explicit payload length, CRC-32C trailer (the
//!    shared `fuse_tensor::codec` container the `FCKP` checkpoint and
//!    `FPLN` plan artifact also use). Corruption surfaces as typed errors,
//!    never as silently wrong bytes.
//! 2. [`wire`] — primitive little-endian encoders/decoders. Floats travel
//!    as IEEE-754 bit patterns, so every value decodes to exactly the bits
//!    that were encoded: the workspace's bit-reproducibility contract
//!    extends across hosts.
//! 3. [`transport`] — the pluggable link: [`transport::TcpTransport`] for
//!    real/loopback TCP, [`sim::SimTransport`] for deterministic in-memory
//!    links with injectable delay, drop, duplication and reordering.
//! 4. [`rpc`] — stop-and-wait request/response with retransmission and
//!    duplicate suppression: exactly-once request execution over a link
//!    that may drop, duplicate or reorder frames.
//! 5. [`message`] — [`message::WireRequest`] / [`message::WireResponse`],
//!    the operations a host shard serves. They mirror the local shard
//!    worker's command set, so a cluster router drives remote and
//!    in-process shards through the same contract.
//!
//! The crate deliberately knows nothing about shard *execution* — host and
//! remote shard loops live in `fuse-cluster`, which composes these layers.

#![warn(missing_docs)]

pub mod error;
pub mod frame;
pub mod message;
pub mod rpc;
pub mod sim;
pub mod transport;
pub mod wire;

pub use error::NetError;
pub use frame::{decode_frame, encode_frame, FRAME_MAGIC, FRAME_VERSION};
pub use message::{
    WireCheckpointMeta, WireCloseReport, WireError, WireFlushReport, WireGauge, WireRequest,
    WireResponse,
};
pub use rpc::{RpcClient, RpcServer};
pub use sim::{sim_pair, FaultConfig, FaultHandle, FaultStats, SimTransport};
pub use transport::{TcpTransport, Transport};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NetError>;
