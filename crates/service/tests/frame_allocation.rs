//! Pins that `read_frame` sizes its payload buffer by the bytes that arrive,
//! not by the length the peer announces: a 4-byte prefix must not be able to
//! make the daemon allocate 64 MiB (and abort the process if that fails).
//!
//! Measured with a global allocator that records the largest request made
//! on the current thread, so the other tests the harness runs concurrently
//! do not show up in the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Cursor};

use service::wire::{read_frame, WireError, MAX_FRAME_BYTES};

struct LargestRequest;

thread_local! {
    // `const` initialization: no lazy-init allocation inside the allocator.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn record(size: usize) {
    // `try_with` fails only while the thread is being torn down, when there
    // is nothing left to measure.
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `record` neither allocates nor unwinds.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's guarantees on `layout` pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`, as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: the caller's guarantees on `ptr`, `layout` and `new_size`
        // pass through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LargestRequest = LargestRequest;

/// Runs `f` and returns its output with the largest allocation it requested.
fn largest_request_during<T>(f: impl FnOnce() -> T) -> (usize, T) {
    LARGEST.with(|largest| largest.set(0));
    let out = f();
    (LARGEST.with(Cell::get), out)
}

#[test]
fn an_announced_frame_is_not_allocated_before_it_arrives() {
    let mut bytes = MAX_FRAME_BYTES.to_be_bytes().to_vec();
    bytes.extend_from_slice(b"short");
    let mut stream = Cursor::new(bytes);
    let (largest, result) = largest_request_during(|| read_frame(&mut stream));
    match result {
        Err(WireError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "{e}"),
        other => panic!("expected an UnexpectedEof i/o error, got {other:?}"),
    }
    assert!(
        largest <= 1 << 20,
        "5 payload bytes of an announced {MAX_FRAME_BYTES}-byte frame allocated {largest} bytes"
    );
}

#[test]
fn a_complete_large_frame_still_arrives_whole() {
    let payload = "y".repeat(3 << 20);
    let mut bytes = Vec::new();
    service::wire::write_frame(&mut bytes, &payload).unwrap();
    let mut stream = Cursor::new(bytes);
    let (largest, result) = largest_request_during(|| read_frame(&mut stream));
    assert_eq!(result.unwrap().as_deref(), Some(&*payload));
    // Growth by doubling may overshoot the payload, but only boundedly.
    assert!(
        largest <= 2 * payload.len(),
        "{largest} bytes for a {}-byte frame",
        payload.len()
    );
}
