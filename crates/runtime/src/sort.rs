//! Parallel stable merge sort.
//!
//! Deterministic id assignment (§3.2 of the paper) sorts newly created tasks
//! lexicographically by `(parent id, birth rank)` at every `todo → next`
//! boundary. That sort sits on the critical path between passes, so the
//! runtime provides a parallel *stable* merge sort: stability means tasks with
//! equal keys keep their (already deterministic) buffer order, so the result
//! is independent of the thread count.

use crate::pool::{chunk_range, run_on_threads};
use std::cell::UnsafeCell;

/// Sorts `items` stably by `key`, using up to `threads` threads.
///
/// Equivalent to `items.sort_by_key(key)` (same output, including stability),
/// but splits the slice into per-thread runs, sorts the runs in parallel, and
/// then merges pairs of runs in parallel rounds.
///
/// # Example
///
/// ```
/// let mut v = vec![(2, 'a'), (1, 'b'), (2, 'c'), (0, 'd')];
/// galois_runtime::sort::parallel_sort_by_key(&mut v, 2, |x| x.0);
/// assert_eq!(v, vec![(0, 'd'), (1, 'b'), (2, 'a'), (2, 'c')]);
/// ```
pub fn parallel_sort_by_key<T, K, F>(items: &mut [T], threads: usize, key: F)
where
    T: Send,
    K: Ord,
    F: Fn(&T) -> K + Sync,
{
    let n = items.len();
    if n < 2 {
        return;
    }
    // Small inputs or one thread: delegate to std's stable sort.
    let threads = threads.clamp(1, n.div_ceil(4096).max(1));
    if threads == 1 {
        items.sort_by_key(key);
        return;
    }

    // Phase 1: sort per-thread runs in parallel. The runs are the contiguous
    // chunk ranges, so `split_at_mut` hands each thread a disjoint sub-slice.
    let mut boundaries: Vec<usize> = (0..threads)
        .map(|t| chunk_range(n, threads, t).start)
        .collect();
    boundaries.push(n);
    {
        let mut rest: &mut [T] = items;
        let mut slices = Vec::with_capacity(threads);
        for t in 0..threads {
            let len = boundaries[t + 1] - boundaries[t];
            let (head, tail) = rest.split_at_mut(len);
            slices.push(UnsafeCell::new(head));
            rest = tail;
        }
        struct SyncSlices<'a, T>(&'a [UnsafeCell<&'a mut [T]>]);
        // SAFETY: each thread accesses exactly one distinct cell, so there is
        // no aliasing; the cells only exist to move &mut slices into the
        // closure shared by all threads.
        unsafe impl<T: Send> Sync for SyncSlices<'_, T> {}
        impl<'a, T> SyncSlices<'a, T> {
            fn slot(&self, i: usize) -> &UnsafeCell<&'a mut [T]> {
                &self.0[i]
            }
        }
        let wrapper = SyncSlices(&slices);
        let key_ref = &key;
        run_on_threads(threads, |tid| {
            // SAFETY: see SyncSlices above — tid indexes are disjoint.
            let slice: &mut [T] = unsafe { &mut *wrapper.slot(tid).get() };
            slice.sort_by_key(key_ref);
        });
    }

    // Phase 2: merge runs pairwise until one run remains. Each merge copies
    // into an auxiliary buffer and back; merges within a round are
    // independent and run in parallel.
    let mut runs = boundaries;
    while runs.len() > 2 {
        let mut next_runs = Vec::with_capacity(runs.len() / 2 + 2);
        let pairs: Vec<(usize, usize, usize)> = runs
            .windows(3)
            .step_by(2)
            .map(|w| (w[0], w[1], w[2]))
            .collect();
        // Merge each (lo, mid, hi) pair sequentially per pair, pairs in
        // parallel. Use index math over the single `items` slice.
        let items_ptr = SendPtr(items.as_mut_ptr());
        let nthreads = pairs.len().min(threads);
        let key_ref = &key;
        let pairs_ref = &pairs;
        run_on_threads(nthreads.max(1), |tid| {
            for (idx, &(lo, mid, hi)) in pairs_ref.iter().enumerate() {
                if idx % nthreads.max(1) != tid {
                    continue;
                }
                // SAFETY: pair ranges [lo, hi) are disjoint across the round,
                // so each thread has exclusive access to its sub-slice.
                let slice: &mut [T] =
                    unsafe { std::slice::from_raw_parts_mut(items_ptr.get().add(lo), hi - lo) };
                merge_in_place(slice, mid - lo, key_ref);
            }
        });
        next_runs.push(runs[0]);
        for w in runs.windows(3).step_by(2) {
            next_runs.push(w[2]);
        }
        // Odd run count: the trailing boundary carries over.
        if (runs.len() - 1) % 2 == 1 {
            let last = *runs.last().unwrap();
            if *next_runs.last().unwrap() != last {
                next_runs.push(last);
            }
        }
        runs = next_runs;
    }
    if runs.len() == 3 {
        merge_in_place(items, runs[1], &key);
    }
}

struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor method so closures capture the whole (Sync) wrapper rather
    /// than the raw-pointer field under edition-2021 disjoint capture.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Stable merge of the two sorted halves `[0, mid)` and `[mid, len)`.
fn merge_in_place<T, K: Ord>(slice: &mut [T], mid: usize, key: &impl Fn(&T) -> K) {
    if mid == 0 || mid == slice.len() {
        return;
    }
    // Fast path: already ordered across the seam.
    if key(&slice[mid - 1]) <= key(&slice[mid]) {
        return;
    }
    // Out-of-place merge through a scratch buffer. `T: Send` but not
    // necessarily `Clone`, so elements move by bitwise copies.
    let len = slice.len();
    let mut scratch: Vec<T> = Vec::with_capacity(len);
    unsafe {
        // SAFETY: every element of `slice` is copied into `scratch`'s
        // buffer exactly once, then merged elements are moved back exactly
        // once. `scratch` keeps length 0 throughout, so dropping it — at the
        // end, or while a panicking `key` unwinds — frees the buffer without
        // dropping any element: the copies never own anything.
        std::ptr::copy_nonoverlapping(slice.as_ptr(), scratch.as_mut_ptr(), len);
        let (left, right) = std::slice::from_raw_parts(scratch.as_ptr(), len).split_at(mid);
        let dst = slice.as_mut_ptr();
        let (mut i, mut j, mut k) = (0, 0, 0);
        while i < left.len() && j < right.len() {
            // `<=` keeps the merge stable: ties favor the left run.
            if key(&left[i]) <= key(&right[j]) {
                std::ptr::write(dst.add(k), std::ptr::read(&left[i]));
                i += 1;
            } else {
                std::ptr::write(dst.add(k), std::ptr::read(&right[j]));
                j += 1;
            }
            k += 1;
        }
        while i < left.len() {
            std::ptr::write(dst.add(k), std::ptr::read(&left[i]));
            i += 1;
            k += 1;
        }
        while j < right.len() {
            std::ptr::write(dst.add(k), std::ptr::read(&right[j]));
            j += 1;
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_sorted(mut v: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
        v.sort_by_key(|x| x.0);
        v
    }

    fn pseudo_random(n: usize, seed: u64) -> Vec<(u64, u64)> {
        // xorshift64* to avoid a dev-dependency cycle.
        let mut s = seed.max(1);
        (0..n as u64)
            .map(|i| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % 97, i)
            })
            .collect()
    }

    #[test]
    fn matches_std_stable_sort() {
        for n in [0usize, 1, 2, 63, 64, 1000, 10_000] {
            for threads in [1usize, 2, 3, 4, 7] {
                let input = pseudo_random(n, 42 + n as u64);
                let mut ours = input.clone();
                parallel_sort_by_key(&mut ours, threads, |x| x.0);
                assert_eq!(ours, reference_sorted(input), "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn stability_preserved() {
        // Many duplicate keys; payload records original position.
        let input: Vec<(u64, u64)> = (0..5000).map(|i| (i % 3, i)).collect();
        let mut ours = input.clone();
        parallel_sort_by_key(&mut ours, 4, |x| x.0);
        // Within each key, payloads must be increasing.
        for w in ours.windows(2) {
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "stability violated: {w:?}");
            }
        }
    }

    #[test]
    fn works_with_non_copy_payloads() {
        let mut v: Vec<(u32, String)> = (0..300)
            .rev()
            .map(|i| (i % 10, format!("item{i}")))
            .collect();
        let mut expect = v.clone();
        expect.sort_by_key(|x| x.0);
        parallel_sort_by_key(&mut v, 3, |x| x.0);
        assert_eq!(v, expect);
    }

    #[test]
    fn already_sorted_fast_path() {
        let mut v: Vec<(u64, u64)> = (0..10_000).map(|i| (i, i)).collect();
        let expect = v.clone();
        parallel_sort_by_key(&mut v, 4, |x| x.0);
        assert_eq!(v, expect);
    }

    #[test]
    fn reverse_sorted() {
        let mut v: Vec<(u64, u64)> = (0..8192).rev().map(|i| (i, i)).collect();
        parallel_sort_by_key(&mut v, 5, |x| x.0);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(x.0, i as u64);
        }
    }
}
