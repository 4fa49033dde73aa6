//! Multi-host serving: a cluster whose shards live in *other processes*,
//! reached over TCP with the `fuse-net` wire protocol.
//!
//! Spawns two [`HostShard`]s on loopback listeners (standing in for two
//! machines), connects a [`ClusterRouter`] to them with
//! [`ShardSpec::Remote`], and streams several sessions through the wire:
//! every submit, flush, checkpoint fan-out and metrics snapshot crosses a
//! length-prefixed, checksummed `FNET` frame. Mid-stream, one session is
//! migrated from one host to the other — fusion history and private plan
//! weights travel as wire payloads — and the stream keeps serving from its new home
//! with byte-identical outputs (the contract pinned by the
//! `wire_cluster` integration tests).
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p fuse-examples --bin multi_host_serving
//! ```
//!
//! Knobs: `FUSE_EDGE_FRAMES` frames per session (default 12),
//! `FUSE_SESSIONS` concurrent subjects (default 4).

use std::error::Error;
use std::net::TcpListener;
use std::thread::{self, JoinHandle};

use fuse_cluster::prelude::*;
use fuse_cluster::{env_usize, HostShard, ShardSpec};
use fuse_examples::print_header;
use fuse_net::{TcpTransport, Transport};
use fuse_radar::{FastScatterModel, PointCloudFrame, RadarConfig, Scatterer, Scene};
use fuse_skeleton::{body_surface_points, Movement, MovementAnimator, Subject};

fn knob(name: &str, default: usize) -> usize {
    match env_usize(name) {
        Ok(n) => n.unwrap_or(default),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

fn model() -> fuse_nn::Sequential {
    build_mars_cnn(&ModelConfig::tiny(), 21).expect("model builds")
}

/// Binds a loopback listener and serves one [`HostShard`] on the first
/// accepted connection — one of these per "machine".
fn spawn_host(shard: usize, config: ClusterConfig) -> (std::net::SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind succeeds");
    let addr = listener.local_addr().expect("bound socket has an address");
    let handle = thread::Builder::new()
        .name(format!("host-shard-{shard}"))
        .spawn(move || {
            let (stream, peer) = listener.accept().expect("router connects");
            println!("host {shard}: serving router at {peer}");
            HostShard::new(model(), config)
                .expect("host shard builds")
                .serve(TcpTransport::from_stream(stream))
                .expect("host exits cleanly");
            println!("host {shard}: shut down");
        })
        .expect("host thread spawns");
    (addr, handle)
}

fn subject_streams(subjects: usize, frames: usize) -> Vec<Vec<PointCloudFrame>> {
    let scatter = FastScatterModel::new(RadarConfig::iwr1443_indoor());
    (0..subjects)
        .map(|s| {
            let animator = MovementAnimator::new(Subject::profile(s % 4), Movement::Squat, 10.0)
                .with_seed(s as u64);
            let samples = animator.sample_frames_with_velocities(0.0, frames);
            samples
                .iter()
                .enumerate()
                .map(|(i, (skeleton, velocities))| {
                    let scene: Scene = body_surface_points(skeleton, velocities, 4)
                        .iter()
                        .map(|p| Scatterer::new(p.position, p.velocity, p.reflectivity))
                        .collect();
                    scatter.sample(&scene, (s * frames + i) as u64)
                })
                .collect()
        })
        .collect()
}

fn main() -> Result<(), Box<dyn Error>> {
    let frames = knob("FUSE_EDGE_FRAMES", 12);
    let sessions = knob("FUSE_SESSIONS", 4);

    print_header("Starting two host shards on loopback TCP");
    let config = ClusterConfig { shards: 2, ..ClusterConfig::default() };
    let (addr0, host0) = spawn_host(0, config.clone());
    let (addr1, host1) = spawn_host(1, config.clone());
    println!("host 0 listening on {addr0}\nhost 1 listening on {addr1}");

    print_header("Connecting the router (every shard remote)");
    let specs: Vec<ShardSpec> = [addr0, addr1]
        .iter()
        .map(|addr| {
            let transport = TcpTransport::connect(addr).expect("router connects to host");
            ShardSpec::Remote(Box::new(transport) as Box<dyn Transport>)
        })
        .collect();
    let mut router = ClusterRouter::with_shards(model(), config, specs)?;
    for s in 0..sessions as u64 {
        router.open_session(SessionConfig::new(s))?;
        println!("session {s} -> host shard {}", router.shard_of(s));
    }

    print_header(&format!("Streaming {frames} frames per session over the wire"));
    let streams = subject_streams(sessions, frames);
    let migrate_at = frames / 2;
    let mut served = 0usize;
    for round in 0..frames {
        for (s, stream) in streams.iter().enumerate() {
            router.submit(s as u64, stream[round].clone())?;
        }
        if round == migrate_at {
            // Live migration between hosts: session 0's fusion history (and
            // private plan's weights, had it fine-tuned) crosses the wire; every
            // response after this is byte-identical to never having moved.
            let from = router.shard_of(0);
            router.migrate_session(0, 1 - from)?;
            println!(
                "round {round}: migrated session 0 host {from} -> host {}",
                router.shard_of(0)
            );
        }
        served += router.drain()?.responses.len();
    }
    println!("served {served} responses across {sessions} sessions, all over TCP");

    print_header("Cluster metrics (snapshots crossed the wire too)");
    println!("{}", router.metrics()?);

    router.shutdown();
    host0.join().expect("host 0 joins");
    host1.join().expect("host 1 joins");
    println!("both hosts exited cleanly after the shutdown frame");
    Ok(())
}
