//! CI gate for the zero-allocation contract of `fuse_graph::ExecPlan::run`,
//! for the resident memory of an adapted serving session and for the
//! transient memory of online adaptation.
//!
//! A counting wrapper around the system allocator proves that once a plan is
//! compiled and warmed, steady-state serial execution performs **zero** heap
//! allocations: every intermediate buffer was pre-planned into the plan's
//! bump arena at compile time. The same wrapper tracks live bytes, which
//! proves that an adapted session keeps its compiled plan and nothing else,
//! and their peak, which bounds what `fuse_core::adapt` holds while it
//! trains.
//!
//! The gate pins `FUSE_THREADS=1` via [`fuse_parallel::with_threads`]: the
//! zero-alloc contract covers the serial path (parallel dispatch may box its
//! per-band tasks, which is documented in `REPRODUCIBILITY.md`). This test
//! lives in its own integration-test binary because a `#[global_allocator]`
//! is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator wrapper that counts every allocation call made by the
/// calling thread, and the bytes it holds live.
struct CountingAlloc;

thread_local! {
    // Per thread, not per process: the test harness runs the `#[test]`s
    // below on parallel threads, and a process-wide counter let one test's
    // model build land inside the other's measurement window. Thread scope
    // still sees every allocation of the measured call, because the plan
    // runs under `with_threads(1)`, so all of its work stays on the calling
    // thread. A `const` initialiser and a destructor-free `Cell` keep the
    // counter itself from allocating.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    // Bytes allocated minus bytes freed by this thread. Signed: a thread may
    // free what another thread allocated.
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
    // The highest `LIVE_BYTES` since the last `reset_peak`.
    static PEAK_LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

// `try_with` fails only while the thread is being torn down, after anything
// this gate measures.
fn count_allocation(grown: isize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    count_live(grown);
}

fn count_live(delta: isize) {
    let _ = LIVE_BYTES.try_with(|n| {
        n.set(n.get() + delta);
        let _ = PEAK_LIVE_BYTES.try_with(|peak| peak.set(peak.get().max(n.get())));
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_live(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocation_count() -> usize {
    ALLOCATIONS.with(Cell::get)
}

fn live_bytes() -> isize {
    LIVE_BYTES.with(Cell::get)
}

/// Runs `f` and returns the most heap it held live above what was live when
/// it started, on this thread.
fn transient_peak(f: impl FnOnce()) -> isize {
    let before = live_bytes();
    PEAK_LIVE_BYTES.with(|peak| peak.set(before));
    f();
    PEAK_LIVE_BYTES.with(Cell::get) - before
}

#[test]
fn steady_state_plan_run_makes_zero_heap_allocations() {
    use fuse_core::{build_mars_cnn, ModelConfig};
    use fuse_nn::LoweringRequest;
    use fuse_tensor::Tensor;

    let model = build_mars_cnn(&ModelConfig::tiny(), 7).unwrap();
    let mut plan = LoweringRequest::new(&model, &[5, 8, 8]).lower().unwrap().compile(4).unwrap();
    let input = Tensor::randn(&[4, 5, 8, 8], 1.0, 9);

    fuse_parallel::with_threads(1, || {
        // Warm-up: the first run may lazily initialise thread-locals or
        // backend state; the contract is about steady state.
        let warm = plan.run(input.as_slice(), 4).unwrap().to_vec();

        let before = allocation_count();
        let out = plan.run(input.as_slice(), 4).unwrap();
        assert_eq!(out.len(), 4 * 57);
        let after = allocation_count();
        assert_eq!(
            after - before,
            0,
            "steady-state ExecPlan::run must not touch the heap (got {} allocations)",
            after - before
        );

        // And it still computes the same thing it did while warming up.
        assert_eq!(plan.run(input.as_slice(), 4).unwrap(), warm.as_slice());
    });
}

#[test]
fn smaller_batches_reuse_the_same_arena_without_allocating() {
    use fuse_core::{build_mars_cnn, ModelConfig};
    use fuse_nn::LoweringRequest;
    use fuse_tensor::Tensor;

    let model = build_mars_cnn(&ModelConfig::tiny(), 11).unwrap();
    let mut plan = LoweringRequest::new(&model, &[5, 8, 8]).lower().unwrap().compile(8).unwrap();
    let input = Tensor::randn(&[8, 5, 8, 8], 1.0, 13);

    fuse_parallel::with_threads(1, || {
        plan.run(input.as_slice(), 8).unwrap();
        let before = allocation_count();
        for batch in [1usize, 3, 8, 2] {
            let out = plan.run(&input.as_slice()[..batch * 5 * 8 * 8], batch).unwrap();
            assert_eq!(out.len(), batch * 57);
        }
        assert_eq!(
            allocation_count() - before,
            0,
            "batch-size changes below max_batch must not reallocate"
        );
    });
}

#[test]
fn an_adapted_session_holds_its_plan_and_nothing_else() {
    use fuse_core::{build_mars_cnn, FineTuneConfig, ModelConfig};
    use fuse_dataset::{
        encode_dataset, FeatureMapBuilder, FrameFusion, MarsSynthesizer, SynthesisConfig,
    };
    use fuse_serve::{ServeConfig, ServeEngine, SessionConfig};

    let data = MarsSynthesizer::new(SynthesisConfig::tiny()).generate().unwrap();
    let data =
        encode_dataset(&data, &FrameFusion::default(), &FeatureMapBuilder::default()).unwrap();
    let config = FineTuneConfig { epochs: 1, batch_size: 16, ..FineTuneConfig::default() };
    let model = build_mars_cnn(&ModelConfig::tiny(), 7).unwrap();
    let mut engine = ServeEngine::new(model, ServeConfig::default()).unwrap();
    engine.open_session(SessionConfig::new(1)).unwrap();

    fuse_parallel::with_threads(1, || {
        let before = live_bytes();
        engine.adapt_session(1, &data, &config).unwrap();
        let grown = live_bytes() - before;
        let plan = engine.session(1).unwrap().plan().unwrap();
        let budget = (4 * (plan.param_len() + plan.arena_len()) + 16 * 1024) as isize;
        assert!(
            grown <= budget,
            "an adapted session grew the live heap by {grown} bytes; its plan's budget is {budget}"
        );

        let before = live_bytes();
        engine.adapt_session(1, &data, &config).unwrap();
        let grown = live_bytes() - before;
        assert!(grown <= 0, "re-adapting a session grew the live heap by {grown} bytes");
    });
}

/// Online adaptation of the MARS default model (1,083,705 parameters) at
/// the serving benchmark's settings: 32 frames, one epoch, batch 16.
/// Training in place allocates no flat copy of the parameters or gradients,
/// no masked gradient and no product-sized weight-gradient temporary, and
/// Adam's moments cover only what the scope trains. So a last-layer
/// adaptation holds less than one full parameter vector of transient heap
/// (a flat-copy step held at least five), and an all-layer one holds Adam's
/// two moment vectors plus activations and per-batch buffers.
#[test]
fn adaptation_holds_no_flat_copies_of_the_model() {
    use fuse_core::{adapt, build_mars_cnn, FineTuneConfig, FineTuneScope, ModelConfig};
    use fuse_dataset::{
        encode_dataset, FeatureMapBuilder, FrameFusion, MarsSynthesizer, SynthesisConfig,
    };
    use fuse_skeleton::Movement;

    let synthesis = SynthesisConfig {
        subjects: vec![0],
        movements: vec![Movement::Squat],
        frames_per_sequence: 32,
        ..SynthesisConfig::tiny()
    };
    let data = MarsSynthesizer::new(synthesis).generate().unwrap();
    let data =
        encode_dataset(&data, &FrameFusion::default(), &FeatureMapBuilder::default()).unwrap();
    let model = build_mars_cnn(&ModelConfig::default(), 7).unwrap();
    let param_bytes = (4 * model.param_len()) as isize;
    assert_eq!(param_bytes, 4_334_820);
    // Activations, their gradients and the batches of a 16-frame step.
    const SLACK: isize = 2 << 20;

    fuse_parallel::with_threads(1, || {
        for (scope, budget) in [
            (FineTuneScope::LastLayer, param_bytes),
            (FineTuneScope::AllLayers, 2 * param_bytes + SLACK),
        ] {
            let config = FineTuneConfig { epochs: 1, batch_size: 16, scope, ..Default::default() };
            let mut trained = model.clone();
            let peak = transient_peak(|| {
                adapt(&mut trained, &data, &config).unwrap();
            });
            assert!(
                peak < budget,
                "{scope} adaptation held {peak} transient bytes, budget {budget}"
            );
        }
    });
}
