//! Byte-tracking global allocator.
//!
//! Tables 4 and 5 of the paper report index memory and peak query-time
//! memory. To measure those faithfully, benchmark binaries install
//! [`TrackingAllocator`] as their `#[global_allocator]`; it forwards to the
//! system allocator while maintaining `current` and high-water `peak`
//! counters with relaxed atomics (the peak uses a CAS loop so concurrent
//! allocations never lose a high-water mark).
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: harmony_cluster::mem::TrackingAllocator =
//!     harmony_cluster::mem::TrackingAllocator;
//!
//! mem::reset_peak();
//! run_queries();
//! println!("peak = {} bytes", mem::peak_bytes());
//! ```
//!
//! When the allocator is *not* installed the counters simply stay at zero;
//! [`is_active`] lets reports distinguish "no allocations" from "not
//! installed".

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static TOTAL_ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// A [`GlobalAlloc`] wrapper around the system allocator that tracks live
/// and peak heap usage.
pub struct TrackingAllocator;

// SAFETY: delegates all allocation to `System`, only adding counter updates.
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: caller upholds GlobalAlloc's contract; forwarded verbatim.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: caller upholds GlobalAlloc's contract; forwarded verbatim.
        unsafe { System.dealloc(ptr, layout) };
        on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: caller upholds GlobalAlloc's contract; forwarded verbatim.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        new_ptr
    }
}

#[inline]
fn on_alloc(size: usize) {
    TOTAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
    let now = CURRENT.fetch_add(size, Ordering::Relaxed) + size;
    // CAS loop: never let a concurrent peak observation be lost.
    let mut peak = PEAK.load(Ordering::Relaxed);
    while now > peak {
        match PEAK.compare_exchange_weak(peak, now, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(observed) => peak = observed,
        }
    }
}

#[inline]
fn on_dealloc(size: usize) {
    CURRENT.fetch_sub(size, Ordering::Relaxed);
}

/// Live heap bytes right now (zero when the allocator is not installed).
pub fn current_bytes() -> usize {
    CURRENT.load(Ordering::Relaxed)
}

/// High-water heap bytes since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Resets the peak to the current live size, beginning a new measurement
/// window.
pub fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Total number of allocations observed (diagnostic).
pub fn total_allocations() -> usize {
    TOTAL_ALLOCS.load(Ordering::Relaxed)
}

/// `true` when the tracking allocator has observed at least one allocation,
/// i.e. it is installed as the global allocator.
pub fn is_active() -> bool {
    total_allocations() > 0
}

/// Formats a byte count using binary units ("3.21 GiB").
pub fn format_bytes(bytes: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.2} {}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: these tests exercise the counter arithmetic directly; the
    // allocator itself is installed (and integration-tested) in the bench
    // binaries, because a crate cannot install a global allocator for its
    // own unit tests without forcing it on every dependent.

    #[test]
    fn alloc_dealloc_counters_balance() {
        let before = current_bytes();
        on_alloc(1024);
        assert_eq!(current_bytes(), before + 1024);
        assert!(peak_bytes() >= before + 1024);
        on_dealloc(1024);
        assert_eq!(current_bytes(), before);
    }

    #[test]
    fn peak_tracks_high_water() {
        reset_peak();
        let base = current_bytes();
        on_alloc(4096);
        on_dealloc(4096);
        on_alloc(16);
        assert!(peak_bytes() >= base + 4096);
        on_dealloc(16);
        reset_peak();
        assert_eq!(peak_bytes(), current_bytes());
    }

    #[test]
    fn format_bytes_uses_binary_units() {
        assert_eq!(format_bytes(512), "512 B");
        assert_eq!(format_bytes(2048), "2.00 KiB");
        assert_eq!(format_bytes(3 * 1024 * 1024), "3.00 MiB");
        assert!(format_bytes(5 * 1024 * 1024 * 1024).contains("GiB"));
    }

    #[test]
    fn total_allocations_increments() {
        let before = total_allocations();
        on_alloc(1);
        on_dealloc(1);
        assert!(total_allocations() > before);
    }
}
