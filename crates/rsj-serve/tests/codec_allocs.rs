//! Allocation gate on the codec's hot path, counted by this binary's
//! global allocator: encoding a served `plan` reply makes at most 2 heap
//! allocations, and so does decoding a `plan` request line. (The
//! tree-based codec made 62–127 and 31–40.)
//!
//! The replies and requests are the cache-hit traffic of a planning
//! server: eight Table 1 laws under four solvers and two cost models,
//! each request with a trace id.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rsj_core::{CostModel, SolverSpec};
use rsj_dist::{DiscretizationScheme, DistSpec};
use rsj_serve::{
    decode_request, encode, PlanRequest, Provenance, Request, Response, Timings, PROTOCOL_VERSION,
};

/// The system allocator, counting this thread's allocations.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: allocations during thread teardown find no TLS slot.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's obligations under `GlobalAlloc` are exactly `System`'s;
// the counting touches only a const-initialized thread-local, which never
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded verbatim; see the impl comment.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded verbatim; see the impl comment.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded verbatim; see the impl comment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; see the impl comment.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f`, returning its result and the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

const MAX_ALLOCS: u64 = 2;

/// The cache-hit keys: Table 1 without Uniform (its plan is one
/// reservation whatever the solver) × four solvers × two cost models.
fn hit_keys() -> Vec<PlanRequest> {
    let dp = |scheme| SolverSpec::Dp {
        scheme,
        n: 1000,
        epsilon: 1e-7,
        monotone: true,
    };
    let solvers = [
        dp(DiscretizationScheme::EqualProbability),
        dp(DiscretizationScheme::EqualTime),
        SolverSpec::MeanByMean,
        SolverSpec::MeanDoubling,
    ];
    let costs = [
        CostModel {
            alpha: 1.0,
            beta: 0.0,
            gamma: 0.0,
        },
        CostModel {
            alpha: 0.95,
            beta: 1.0,
            gamma: 1.05,
        },
    ];
    let mut keys = Vec::new();
    for (name, law) in DistSpec::paper_table1() {
        if name == "Uniform" {
            continue;
        }
        for solver in &solvers {
            for cost in costs {
                keys.push(
                    PlanRequest::new(law.clone())
                        .with_solver(solver.clone())
                        .with_cost(cost),
                );
            }
        }
    }
    keys
}

#[test]
fn plan_replies_and_requests_stay_within_the_allocation_gate() {
    for (i, key) in hit_keys().into_iter().enumerate() {
        let trace_id = format!("h0-{i}");
        let plan = key.planner().expect("planner").plan().expect("plan");
        let reply = Response::Plan {
            v: PROTOCOL_VERSION,
            plan,
            provenance: Provenance {
                server: "rsj-serve/0.1.0".to_string(),
                protocol: PROTOCOL_VERSION,
                solver: "dp_equal_probability".to_string(),
                threads: 4,
                cached: true,
                coalesced: false,
            },
            timings: Timings {
                build_seconds: 1.2e-5,
                solve_seconds: 0.0,
                total_seconds: 3.4e-5,
            },
            trace_id: Some(trace_id.clone()),
            timeline: None,
        };
        let (line, allocs) = counted(|| encode(&reply).expect("encode"));
        assert!(
            allocs <= MAX_ALLOCS,
            "encoding a {}-byte plan reply made {allocs} allocations",
            line.len()
        );

        let request = Request::Plan {
            v: PROTOCOL_VERSION,
            distribution: key.distribution,
            cost: key.cost,
            solver: key.solver,
            seed: None,
            simulate: None,
            deadline_ms: None,
            trace_id: Some(trace_id),
            trace: false,
        };
        let line = encode(&request).expect("encode") + "\n";
        let (decoded, allocs) = counted(|| decode_request(&line).expect("decode"));
        assert_eq!(decoded, request);
        assert!(
            allocs <= MAX_ALLOCS,
            "decoding a plan request made {allocs} allocations: {line}"
        );
    }
}
