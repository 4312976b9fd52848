//! Memory regression tests for checkpoint-suspended trials: suspending a
//! trial and dropping its live platform must actually return the
//! simulation's memory (arenas, event queue, GPU state), leaving only
//! the compact snapshot bytes resident.
//!
//! Measured with a counting global allocator local to this test binary,
//! so the numbers are exact byte accounting, not RSS sampling noise. The
//! count is kept per thread: the harness runs these tests on parallel
//! threads, and a process-wide count would charge each test for the
//! other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fastg_des::SimTime;
use fastgshare::profiler::{ConfigServer, Experiment, SamplePlan};

/// A pass-through allocator that tracks the calling thread's live
/// (allocated − freed) bytes.
struct Counting;

thread_local! {
    // Signed: a thread may free memory another thread allocated. A
    // `const` initialiser with no destructor, so touching it never
    // allocates (which would recurse into the allocator).
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

/// Adds `delta` bytes to the calling thread's count. `try_with` skips
/// the update once the thread's locals are torn down.
fn count(delta: isize) {
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

fn signed(bytes: usize) -> isize {
    isize::try_from(bytes).unwrap_or(isize::MAX)
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the byte count is
// bookkeeping only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(signed(layout.size()));
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-signed(layout.size()));
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, and
        // the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(signed(new_size) - signed(layout.size()));
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Live bytes allocated (net of frees) by the calling thread so far.
fn live_bytes() -> isize {
    LIVE.with(Cell::get)
}

fn experiment() -> Experiment {
    Experiment::new(
        "resnet50",
        ConfigServer::new(SamplePlan::Grid {
            spatial: vec![],
            temporal: vec![],
        }),
    )
}

/// Dropping an eliminated trial's live platform after suspension frees
/// the bulk of its memory: what stays resident is roughly the snapshot
/// bytes, not the simulation.
#[test]
fn eliminated_trial_arenas_are_dropped() {
    let e = experiment();
    let before = live_bytes();

    // A warmed-up live trial holds the full simulation.
    let mut run = e.start_trial(24.0, 0.4).unwrap();
    run.extend_to(SimTime::from_millis(500));
    let with_live = live_bytes() - before;

    // Suspend → drop: the "eliminated between rounds" state.
    let suspended = run.suspend();
    drop(run);
    let with_snapshot = live_bytes() - before;

    assert!(
        with_live > 0,
        "live trial should allocate (accounting broken?)"
    );
    // The snapshot footprint must be a small fraction of the live
    // simulation — if this regresses, losers are holding arenas again.
    assert!(
        with_snapshot < with_live / 2,
        "suspended trial retains {with_snapshot} of {with_live} live bytes"
    );
    // And the retained bytes are explained by the snapshot itself plus
    // a small constant, not by leaked simulation state.
    assert!(
        with_snapshot < signed(suspended.size_bytes()) + 64 * 1024,
        "retained {with_snapshot} bytes vs snapshot of {}",
        suspended.size_bytes()
    );
    drop(suspended);
}

/// The full suspend → resume → measure cycle leaks nothing between
/// rounds: after dropping everything, live bytes return to the baseline.
#[test]
fn suspend_resume_cycle_is_leak_free() {
    let e = experiment();
    // Warm any lazy one-time allocations (zoo profiles, thread-locals)
    // so the steady-state measurement is clean.
    {
        let mut run = e.start_trial(12.0, 0.4).unwrap();
        run.extend_to(SimTime::from_millis(200));
        let snap = run.suspend();
        drop(run);
        drop(snap.resume().unwrap());
    }
    let baseline = live_bytes();
    for _ in 0..3 {
        let mut run = e.start_trial(12.0, 0.4).unwrap();
        run.extend_to(SimTime::from_millis(200));
        let snap = run.suspend();
        drop(run);
        let mut resumed = snap.resume().unwrap();
        resumed.extend_to(SimTime::from_millis(400));
        drop(resumed);
        drop(snap);
    }
    let after = live_bytes();
    // Allow slack for allocator-internal caches and the test harness.
    assert!(
        after - baseline < 256 * 1024,
        "search rounds leak: baseline {baseline}, after {after}"
    );
}
