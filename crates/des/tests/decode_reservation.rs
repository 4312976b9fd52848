//! Decoding an [`IdArena`] or an [`EventQueue`] from untrusted bytes
//! reserves no more memory up front than the input could fill: a forged
//! slot or entry count on a short input must not turn into a large
//! allocation.
//!
//! Measured with a pass-through global allocator local to this test
//! binary that records the largest single allocation of each thread. Per
//! thread, because the harness runs tests on parallel threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fastg_des::{EventQueue, IdArena, Snap, SnapError, SnapReader, SnapWriter, TieBreak};

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

/// An event 64 bytes wide in memory and on the wire: every queue entry
/// sits in memory at more than three times its 17-byte minimum encoding.
struct Wide([u64; 8]);

impl Snap for Wide {
    fn snap(&self, w: &mut SnapWriter) {
        for &v in &self.0 {
            w.u64(v);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut v = [0; 8];
        for x in &mut v {
            *x = r.u64()?;
        }
        Ok(Wide(v))
    }
}

#[test]
fn forged_entry_count_reserves_at_most_the_input() {
    let mut w = SnapWriter::new();
    TieBreak::Fifo.snap(&mut w);
    w.u64(1); // next_seq
    w.len_prefix(1 << 40);
    let mut bytes = w.finish();
    // The first entry decodes with an all-ones order word, whose sequence
    // number is past `next_seq`: restore fails before it pushes an entry.
    bytes.resize(bytes.len() + 65_536, 0xff);
    let (restored, largest) = largest_allocation(|| {
        EventQueue::<Wide>::new().restore_state(&mut SnapReader::new(&bytes))
    });
    assert!(restored.is_err());
    assert!(
        largest <= bytes.len(),
        "restore_state reserved {largest} bytes from {} input bytes",
        bytes.len()
    );
}

/// The same length bomb behind three valid entries, the last two seconds
/// after the first: every entry decodes into the heap's byte-bounded
/// reservation.
#[test]
fn forged_entry_count_past_the_horizon_reserves_at_most_the_input() {
    let mut w = SnapWriter::new();
    TieBreak::Fifo.snap(&mut w);
    w.u64(3); // next_seq
    w.len_prefix(1 << 40);
    for (seq, time) in [(0, 0), (1, 5_000_000), (2, 60_000_000)] {
        w.u64(time);
        w.u64(TieBreak::Fifo.key(seq));
        Wide([seq; 8]).snap(&mut w);
    }
    let mut bytes = w.finish();
    bytes.resize(bytes.len() + 65_536, 0xff);
    let (restored, largest) = largest_allocation(|| {
        EventQueue::<Wide>::new().restore_state(&mut SnapReader::new(&bytes))
    });
    assert!(restored.is_err());
    assert!(
        largest <= bytes.len(),
        "restore_state reserved {largest} bytes from {} input bytes",
        bytes.len()
    );
}
