//! Allocation guard for the symbolic kernel: one analysis pass over the
//! 22 paper programs, rendered as `panorama --json` reports, counted by a
//! test-only global allocator. The count is printed, and it may not grow
//! more than 5 % past the measured [`MEASURED`].
//!
//! The counter is a per-thread `const` thread-local, so other tests of
//! this binary (there are none) and other threads cannot disturb it, and
//! the allocator itself never allocates. A reallocation is counted as one
//! allocation, as it is one trip to the system allocator.
//!
//! `cargo test --release -p panorama --test alloc_budget -- --nocapture`
//! prints the count of the optimised build the benchmark times.

use panorama::driver;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts this thread's allocations and reallocations.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A `const` thread-local without a destructor is reachable for the
    // whole life of the thread, teardown included.
    ALLOCS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations of one pass, measured on the release build.
const MEASURED: u64 = 219_891;

/// Allocations of analysing and rendering every paper program once.
fn pass_allocations(programs: &[(String, &str)]) -> u64 {
    let before = ALLOCS.with(Cell::get);
    for (name, src) in programs {
        let out = driver::run_with_cache(&driver::Request::new(src), None)
            .unwrap_or_else(|e| panic!("{name}: analysis failed: {e}"));
        let report = serde_json::to_string_pretty(&out.json())
            .unwrap_or_else(|e| panic!("{name}: report failed to render: {e}"));
        std::hint::black_box(report);
    }
    ALLOCS.with(Cell::get) - before
}

#[test]
fn a_paper_pass_stays_within_its_allocation_budget() {
    let programs = benchsuite::paper_programs();
    let allocs = pass_allocations(&programs);
    println!("alloc_budget: {allocs} allocations per paper pass (measured {MEASURED})");
    let bound = MEASURED + MEASURED / 20;
    assert!(
        allocs <= bound,
        "a paper pass made {allocs} allocations, more than {bound} \
         (the measured {MEASURED} + 5 %)"
    );
}
