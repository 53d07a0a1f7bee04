//! `parallel_sort_by_key` frees every byte it allocates.
//!
//! A counting `#[global_allocator]` tallies bytes allocated and freed
//! around each sort. The merge phase borrows a scratch buffer per merge;
//! a buffer that is never freed shows up as allocated > freed, and an
//! element dropped by mistake (each owns a `Box`) as freed > allocated.
//!
//! This file deliberately holds a single `#[test]` so no sibling test can
//! allocate concurrently and pollute the counters.

use galois_runtime::sort::parallel_sort_by_key;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every operation to `System`; the counters are relaxed
// atomics, so the wrapper adds no allocation of its own. `realloc` keeps
// its default (alloc + copy + dealloc), so it is counted through these two.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn items(n: u64) -> Vec<(u64, Box<u64>)> {
    (0..n).map(|i| ((i * 7919) % 1009, Box::new(i))).collect()
}

#[test]
fn parallel_sort_frees_what_it_allocates() {
    // Warm-up: first-use allocations of the thread machinery are not the
    // sort's to free.
    parallel_sort_by_key(&mut items(50_000), 4, |x| x.0);

    for threads in [1, 2, 3, 4] {
        let mut v = items(50_000);
        let before = (
            ALLOCATED.load(Ordering::SeqCst),
            FREED.load(Ordering::SeqCst),
        );
        parallel_sort_by_key(&mut v, threads, |x| x.0);
        let allocated = ALLOCATED.load(Ordering::SeqCst) - before.0;
        let freed = FREED.load(Ordering::SeqCst) - before.1;
        assert_eq!(
            allocated, freed,
            "threads={threads}: {allocated} bytes allocated, {freed} freed"
        );
        assert!(allocated > 0, "threads={threads}: the sort used no scratch");
        assert!(v.windows(2).all(|w| (w[0].0, *w[0].1) <= (w[1].0, *w[1].1)));
    }
}
