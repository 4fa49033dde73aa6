//! `.fplan` artifact round-trip, corruption handling and format stability.
//!
//! The plan artifact is the deployment contract of the compiler: a compiled
//! [`fuse_graph::ExecPlan`] serialized with [`fuse_graph::ExecPlan::to_bytes`]
//! must reload through the thin [`fuse_edge::EdgeSession`] runtime — no
//! `fuse-nn`, no lowering — and produce **bit-identical** outputs on every
//! kernel backend × thread-count leg of the CI matrix. Corrupt, truncated,
//! wrong-version or tampered artifacts must surface as *typed*
//! [`fuse_graph::GraphError`] values, never panics. And the byte format
//! itself is pinned by a committed golden fixture: an artifact written by an
//! earlier build of the same format version keeps loading. The frozen
//! fixtures of older versions — `.fplan` v1 and v2, and the v1 `FCKP`
//! checkpoint — keep decoding bit-exactly under the current readers.

use fuse_backend::{with_backend, BackendChoice};
use fuse_core::{build_pooled_mars_cnn, ModelConfig};
use fuse_edge::EdgeSession;
use fuse_graph::{
    ExecPlan, Graph, GraphError, TensorMeta, FPLAN_FORMAT, FPLAN_MIN_VERSION, FPLAN_VERSION,
};
use fuse_nn::layers::{Conv2d, Flatten, Linear, Relu};
use fuse_nn::{Checkpoint, LoweringRequest, Sequential};
use fuse_parallel::{with_min_parallel_work, with_threads};
use fuse_serve::{ServeConfig, ServeEngine};
use fuse_tensor::{Conv2dSpec, Tensor};
use fuse_tests::golden::{goldens_dir, update_requested};

/// Runs `f` under every backend × thread-count leg of the CI matrix (scalar
/// and SIMD kernels, serial and forced-parallel dispatch) inside one process.
fn for_each_matrix_leg(f: impl Fn()) {
    for backend in [BackendChoice::Scalar, BackendChoice::Simd] {
        with_threads(1, || with_backend(backend, &f));
        with_threads(4, || with_min_parallel_work(0, || with_backend(backend, &f)));
    }
}

fn pooled_model(seed: u64) -> Sequential {
    build_pooled_mars_cnn(&ModelConfig::tiny(), 2, seed).unwrap()
}

fn pooled_plan(max_batch: usize) -> ExecPlan {
    LoweringRequest::new(&pooled_model(7), &[5, 8, 8]).lower().unwrap().compile(max_batch).unwrap()
}

#[test]
fn pooled_mars_cnn_compiles_to_a_plan_with_no_fallback() {
    // Max pooling lowers like any other op: the pooled MARS topology must
    // reach a compiled plan, or the engine would refuse to build.
    let engine = ServeEngine::new(pooled_model(7), ServeConfig::default())
        .expect("the pooled MARS CNN must compile to a plan");
    let plan = engine.plan().expect("an engine always holds its plan");
    // The pooling stage halves each spatial dim, so the flattened FC input
    // shrinks 4x while the output head stays at 57 joints-coordinates.
    assert_eq!(plan.output_meta().dims(), &[57]);
}

#[test]
fn fplan_round_trips_through_fuse_edge_bit_identically_on_every_matrix_leg() {
    let max_batch = 3usize;
    let bytes = pooled_plan(max_batch).to_bytes();
    let sample_len: usize = 5 * 8 * 8;
    for_each_matrix_leg(|| {
        let mut session = EdgeSession::from_bytes(&bytes).unwrap();
        let mut plan = pooled_plan(max_batch);
        let mut legacy = pooled_model(7);
        for batch in 1..=max_batch {
            let input = Tensor::randn(&[batch, 5, 8, 8], 1.0, 300 + batch as u64);
            let expected = legacy.forward(&input, false).unwrap();
            assert_eq!(
                plan.run(&input.as_slice()[..batch * sample_len], batch).unwrap(),
                expected.as_slice(),
                "in-memory plan diverged from the legacy walk at batch {batch}"
            );
            assert_eq!(
                session.infer(&input.as_slice()[..batch * sample_len], batch).unwrap(),
                expected.as_slice(),
                "reloaded artifact diverged from the legacy walk at batch {batch}"
            );
        }
    });
}

#[test]
fn exported_engine_artifact_round_trips_through_a_file() {
    let dir = std::env::temp_dir().join("fuse_plan_artifact_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pooled.fplan");
    let engine = ServeEngine::new(pooled_model(7), ServeConfig::default()).unwrap();
    engine.export_plan(&path).unwrap();
    let mut session = EdgeSession::load(&path).unwrap();
    let input = Tensor::randn(&[1, 5, 8, 8], 1.0, 400);
    let expected = pooled_model(7).forward(&input, false).unwrap();
    assert_eq!(session.infer(input.as_slice(), 1).unwrap(), expected.as_slice());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_artifacts_yield_typed_errors() {
    let bytes = pooled_plan(2).to_bytes();

    // Wrong magic: the file is simply not a plan artifact.
    let mut bad_magic = bytes.clone();
    bad_magic[..4].copy_from_slice(b"JSON");
    assert!(matches!(
        ExecPlan::from_bytes(&bad_magic),
        Err(GraphError::BadMagic { found }) if &found == b"JSON"
    ));

    // A future format version must be refused, not misparsed.
    let mut bumped = bytes.clone();
    bumped[4..8].copy_from_slice(&(FPLAN_VERSION + 1).to_le_bytes());
    assert!(matches!(
        ExecPlan::from_bytes(&bumped),
        Err(GraphError::UnsupportedVersion { found, supported })
            if found == FPLAN_VERSION + 1 && supported == FPLAN_VERSION
    ));

    // A flipped payload byte is caught by the checksum before decoding.
    let mut flipped = bytes.clone();
    let mid = bytes.len() / 2;
    flipped[mid] ^= 0xff;
    assert!(matches!(ExecPlan::from_bytes(&flipped), Err(GraphError::ChecksumMismatch { .. })));

    // A flipped checksum byte likewise.
    let mut bad_sum = bytes.clone();
    let last = bytes.len() - 1;
    bad_sum[last] ^= 0xff;
    assert!(matches!(ExecPlan::from_bytes(&bad_sum), Err(GraphError::ChecksumMismatch { .. })));

    // Truncation anywhere — inside the header, the payload or the checksum
    // trailer — is a typed error, never a panic.
    for cut in [0, 3, 8, 15, 16, bytes.len() / 2, bytes.len() - 9, bytes.len() - 1] {
        assert!(
            matches!(ExecPlan::from_bytes(&bytes[..cut]), Err(GraphError::Truncated { .. })),
            "cut at {cut} bytes must report truncation"
        );
    }

    // Trailing garbage after the checksum means the length field lies.
    let mut extended = bytes.clone();
    extended.extend_from_slice(b"tail");
    assert!(matches!(ExecPlan::from_bytes(&extended), Err(GraphError::Malformed(_))));

    // The reloadable original still loads after all that slicing.
    assert!(ExecPlan::from_bytes(&bytes).is_ok());
}

/// Rebuilds a complete artifact around `payload`, re-stamping the length
/// field and the checksum of `version` so payload-level corruptions reach
/// the decoder instead of tripping the checksum gate first.
fn reassemble(payload: &[u8], version: u32) -> Vec<u8> {
    FPLAN_FORMAT.seal(version, payload)
}

#[test]
fn corrupted_quantized_artifacts_yield_typed_errors() {
    let bytes = pooled_plan(2).quantize().unwrap().to_bytes();
    let (_, payload) = FPLAN_FORMAT.open(&bytes).unwrap();

    // Cutting into the trailing int8 weight/scale tables and re-stamping the
    // checksum must surface as typed truncation from the decoder itself.
    for cut in [1usize, 3, 8] {
        let short = reassemble(&payload[..payload.len() - cut], FPLAN_VERSION);
        assert!(
            matches!(ExecPlan::from_bytes(&short), Err(GraphError::Truncated { .. })),
            "cutting {cut} bytes of the quantized tables must report truncation"
        );
    }

    // A v2 payload carrying quantized step tags cannot be passed off as v1.
    let downgraded = reassemble(payload, 1);
    assert!(matches!(ExecPlan::from_bytes(&downgraded), Err(GraphError::Malformed(_))));

    // Version bytes outside the supported window are refused in both
    // directions: v0 predates the format, FPLAN_VERSION + 1 postdates it.
    for bad in [FPLAN_MIN_VERSION - 1, FPLAN_VERSION + 1] {
        let stamped = reassemble(payload, bad);
        assert!(matches!(
            ExecPlan::from_bytes(&stamped),
            Err(GraphError::UnsupportedVersion { found, supported })
                if found == bad && supported == FPLAN_VERSION
        ));
    }

    // The untouched artifact still loads and is quantized.
    assert!(ExecPlan::from_bytes(&bytes).unwrap().is_quantized());
}

/// The deterministic miniature plan behind the committed `tiny.fplan`
/// fixture: conv → ReLU → max-pool → flatten → linear, all seeds fixed.
fn fixture_plan() -> ExecPlan {
    let cw = Tensor::randn(&[3, 2, 3, 3], 0.5, 501);
    let cb = Tensor::randn(&[3], 0.1, 502);
    let w = Tensor::randn(&[5, 12], 0.2, 503);
    let b = Tensor::randn(&[5], 0.1, 504);
    let mut g = Graph::new(TensorMeta::f32(&[2, 4, 4]));
    g.push_conv2d("conv", Conv2dSpec::same(2, 3, 3), cw.as_slice(), cb.as_slice()).unwrap();
    g.push_relu("relu").unwrap();
    g.push_maxpool2d("pool", 2).unwrap();
    g.push_flatten("flatten").unwrap();
    g.push_linear("fc", 12, 5, w.as_slice(), b.as_slice()).unwrap();
    g.compile(2).unwrap()
}

#[test]
fn committed_fplan_fixture_stays_loadable_and_byte_stable() {
    // The golden fixture gates byte stability of the current format: an
    // artifact written by an earlier build of the same `FPLAN_VERSION` must
    // keep loading byte-for-byte. If the encoding changes, `FPLAN_VERSION`
    // must be bumped and the fixture regenerated with `UPDATE_GOLDENS=1`
    // (committing the previous fixture as `tiny_v<N>.fplan` to keep the
    // backward-compatibility gate below honest).
    let path = goldens_dir().join("tiny.fplan");
    let bytes = fixture_plan().to_bytes();
    if update_requested() {
        std::fs::write(&path, &bytes).unwrap();
        eprintln!("updated golden {}", path.display());
        return;
    }
    let committed = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing committed fixture {} ({e}); regenerate with UPDATE_GOLDENS=1",
            path.display()
        )
    });
    assert_eq!(
        committed, bytes,
        "the .fplan encoding drifted from the committed fixture; an intentional \
         format change requires a FPLAN_VERSION bump and UPDATE_GOLDENS=1"
    );

    // The committed bytes still load through the edge runtime and serve the
    // same outputs as a freshly compiled plan.
    let mut session = EdgeSession::load(&path).unwrap();
    assert_eq!(session.max_batch(), 2);
    assert_eq!(session.input_meta().dims(), &[2, 4, 4]);
    let mut fresh = fixture_plan();
    for batch in 1..=2usize {
        let input = Tensor::randn(&[batch, 2, 4, 4], 1.0, 510 + batch as u64);
        assert_eq!(
            session.infer(input.as_slice(), batch).unwrap(),
            fresh.run(input.as_slice(), batch).unwrap(),
            "committed artifact diverged from a fresh compile at batch {batch}"
        );
    }
}

#[test]
fn committed_v1_fixture_still_loads_under_the_v2_reader() {
    // Backward compatibility is normative: artifacts written by older builds
    // must keep decoding and serving bit-identically under every newer
    // reader. `tiny_v1.fplan` (before the quantized-weight sections) and
    // `tiny_v2.fplan` (before the CRC-32C trailer) are the byte-frozen
    // predecessors of `tiny.fplan` — never regenerate them.
    for (name, version) in [("tiny_v1.fplan", 1u32), ("tiny_v2.fplan", 2)] {
        let path = goldens_dir().join(name);
        let committed = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("missing frozen fixture {} ({e})", path.display()));
        let found = u32::from_le_bytes(committed[4..8].try_into().unwrap());
        assert_eq!(found, version, "{name} must be v{version}");

        let mut session = EdgeSession::from_bytes(&committed).unwrap();
        assert!(!session.is_quantized(), "the fixture is a float plan");
        let mut fresh = fixture_plan();
        for batch in 1..=2usize {
            let input = Tensor::randn(&[batch, 2, 4, 4], 1.0, 510 + batch as u64);
            assert_eq!(
                session.infer(input.as_slice(), batch).unwrap(),
                fresh.run(input.as_slice(), batch).unwrap(),
                "{name} diverged from a fresh compile at batch {batch}"
            );
        }
        // Same payload, newer container: the v2 fixture re-sealed at the
        // current version is exactly the current fixture's bytes.
        if version == 2 {
            let (_, payload) = FPLAN_FORMAT.open(&committed).unwrap();
            assert_eq!(reassemble(payload, FPLAN_VERSION), fixture_plan().to_bytes());
        }
    }
}

/// The fixed-seed model behind the frozen `tiny_v1.fckp` checkpoint.
fn checkpoint_fixture_model() -> Sequential {
    Sequential::new(vec![
        Box::new(Conv2d::new(Conv2dSpec::same(2, 3, 3), 601).unwrap()),
        Box::new(Relu::new()),
        Box::new(Flatten::new()),
        Box::new(Linear::new(3 * 4 * 4, 5, 602).unwrap()),
    ])
}

#[test]
fn committed_v1_checkpoint_still_decodes_and_applies_bit_exactly() {
    // `tiny_v1.fckp` is the byte-frozen output of the v1 `FCKP` writer (no
    // length word, FNV-1a-64 trailer) for the model above — never
    // regenerate it.
    let path = goldens_dir().join("tiny_v1.fckp");
    let committed = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("missing frozen fixture {} ({e})", path.display()));
    assert_eq!(&committed[..4], b"FCKP");
    assert_eq!(u32::from_le_bytes(committed[4..8].try_into().unwrap()), 1, "fixture must be v1");

    let reference = checkpoint_fixture_model();
    let ckpt = Checkpoint::from_bytes(&committed).unwrap();
    assert_eq!(ckpt.model_name, "tiny");
    let mut restored = Sequential::new(vec![
        Box::new(Conv2d::new(Conv2dSpec::same(2, 3, 3), 1).unwrap()),
        Box::new(Relu::new()),
        Box::new(Flatten::new()),
        Box::new(Linear::new(3 * 4 * 4, 5, 2).unwrap()),
    ]);
    ckpt.apply_to(&mut restored).unwrap();
    let bits = |m: &Sequential| m.flat_params().iter().map(|p| p.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&restored), bits(&reference), "parameters must survive bit-exactly");

    let input = Tensor::randn(&[2, 2, 4, 4], 1.0, 603);
    let mut reference = reference;
    assert_eq!(restored.forward(&input, false).unwrap(), reference.forward(&input, false).unwrap());
    // The current writer re-encodes the same checkpoint as v2, which
    // decodes to the same values.
    let v2 = Checkpoint::capture(&restored, "tiny").to_binary();
    assert_eq!(u32::from_le_bytes(v2[4..8].try_into().unwrap()), 2);
    assert_eq!(Checkpoint::from_binary(&v2).unwrap().params, ckpt.params);
}
