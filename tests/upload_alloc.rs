//! Allocation gate for the framed upload path.
//!
//! Wall-clock time on a shared runner is too noisy to gate on, but the
//! number of heap allocations a round trip makes is exact. Framing a
//! body and reassembling it must cost the same, small number of
//! allocations whatever the body size: one buffer for the framed upload
//! and one for the reassembled body, never one per 4 KiB chunk.

use medsen::gateway::wire::{decode_upload_traced, encode_upload_traced};
use medsen::wire::WireFormat;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations `encode_upload_traced` + `decode_upload_traced` make
/// together: the pre-sized upload buffer and the reassembled body.
const ROUND_TRIP_ALLOCATIONS: usize = 2;

thread_local! {
    /// Allocations made by the current thread. A per-thread count keeps
    /// the gate exact while the test harness runs other tests.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Counts allocations and reallocations, then defers to the system
/// allocator.
struct CountingAllocator;

fn count_one() {
    // `try_with` never fails for a const-initialised `Cell`, which has no
    // destructor; ignoring its result keeps the allocator panic-free.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only extra work is a
// thread-local counter update, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` was returned by `System` for `layout`, and the
        // caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// Allocations one traced binary upload of `body_len` bytes makes
/// through encode and decode.
fn round_trip_allocations(body_len: usize) -> usize {
    let body: Vec<u8> = (0..body_len).map(|i| (i % 251) as u8).collect();
    let before = allocations();
    let upload = encode_upload_traced(7, WireFormat::Binary, &body, 0xFEED_F00D);
    let (session, format, decoded, trace) = decode_upload_traced(&upload).expect("decodes");
    let made = allocations() - before;
    assert_eq!(
        (session, format, trace),
        (7, WireFormat::Binary, 0xFEED_F00D)
    );
    assert_eq!(decoded, body);
    made
}

#[test]
fn upload_round_trip_allocations_do_not_grow_with_the_body() {
    // 10 KiB, and the 1.69 MiB of a 60 s, 8-carrier diagnosis upload.
    for body_len in [10 * 1024, 1_772_093] {
        assert_eq!(
            round_trip_allocations(body_len),
            ROUND_TRIP_ALLOCATIONS,
            "{body_len}-byte body"
        );
    }
}
