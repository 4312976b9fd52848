//! Decoding an [`IdArena`] from untrusted bytes reserves no more memory up
//! front than the input could fill: a forged slot count on a short input
//! must not turn into a large allocation.
//!
//! Measured with a pass-through global allocator local to this test
//! binary that records the largest single allocation of each thread. Per
//! thread, because the harness runs tests on parallel threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fastg_des::{IdArena, Snap, SnapReader, SnapWriter};

/// A pass-through allocator that tracks the calling thread's largest
/// single allocation.
struct Largest;

thread_local! {
    // A `const` initialiser with no destructor, so touching it never
    // allocates (which would recurse into the allocator).
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// Records an allocation of `size` bytes. `try_with` skips the update
/// once the thread's locals are torn down.
fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the size record is
// bookkeeping only.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, and
        // the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Largest = Largest;

/// The largest single allocation `f` makes on this thread.
fn largest_allocation<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.with(|largest| largest.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// An arena encoding that claims 2^40 slots, none live, followed by
/// `pad` bytes of input. Its first slot has an invalid tag, so decoding
/// fails before it pushes any slot: the only slot storage it allocates
/// is the up-front reservation.
fn forged(pad: usize) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.len_prefix(0);
    w.len_prefix(1 << 40);
    w.u32(0);
    w.u8(7);
    let mut bytes = w.finish();
    bytes.resize(bytes.len() + pad, 0);
    bytes
}

#[test]
fn forged_slot_count_reserves_at_most_the_input() {
    let bytes = forged(65_536);
    let (decoded, largest) = largest_allocation(|| {
        IdArena::<u32, (u64, u64, u64)>::unsnap(&mut SnapReader::new(&bytes))
    });
    assert!(decoded.is_err());
    assert!(
        largest <= bytes.len(),
        "unsnap reserved {largest} bytes from {} input bytes",
        bytes.len()
    );
    let (decoded, largest) = largest_allocation(|| {
        IdArena::<u32, [u64; 32]>::unsnap_with(&mut SnapReader::new(&bytes), |_, r| {
            Ok([r.u64()?; 32])
        })
    });
    assert!(decoded.is_err());
    assert!(
        largest <= bytes.len(),
        "unsnap_with reserved {largest} bytes from {} input bytes",
        bytes.len()
    );
}
