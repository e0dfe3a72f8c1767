//! Deterministic parallel-execution substrate.
//!
//! Every parallel stage in the workspace — T5 pair streaming, transpose,
//! column sums, signature hashing, the exact distance-plane walk —
//! funnels through this module: one place that splits a row index space
//! into contiguous chunks, runs one scoped worker per chunk, and joins
//! results back **in range order**. Because the merge order is the range
//! order (never completion order) and every chunk computes the same
//! function a sequential loop would, results are bit-identical for every
//! thread count, which the pipeline's determinism tests pin.
//!
//! Worker panics are re-raised on the caller thread with their original
//! payload ([`std::panic::resume_unwind`]), so a failed assertion inside
//! a worker produces the same panic message a sequential run would.
//!
//! # Race auditing
//!
//! Under `cfg(test)` or the `audit` feature, every dispatch additionally
//! runs the `audit` module's write-span checks: the chunk ranges (and, for
//! [`par_fill_by_offsets`], the output spans they claim) are verified
//! pairwise disjoint, in range order, and fully covering *before any
//! worker is spawned* — a deterministic race detector for the
//! substrate's core soundness contract that does not depend on thread
//! interleavings to trip. The checks run identically on the inline
//! (single-chunk) path, so a contract violation panics with the same
//! message at every thread count.

use std::ops::Range;

#[cfg(any(test, feature = "audit"))]
pub mod audit {
    //! Deterministic write-span race auditor.
    //!
    //! The substrate's soundness rests on a static claim: the chunks
    //! handed to workers partition the index space, and the output
    //! slices they may write partition the output buffer. These checks
    //! verify that claim eagerly — before join, before any worker runs —
    //! so an overlapping or gapped span panics deterministically instead
    //! of racing. Active under `cfg(test)` and the `audit` feature;
    //! release builds without the feature pay nothing.

    use std::ops::Range;

    /// Asserts that `spans` are non-inverted, pairwise disjoint, in
    /// ascending order, and exactly cover `0..total`.
    ///
    /// # Panics
    ///
    /// Panics with a `write-span audit:` message naming the first
    /// inverted span, overlap, or gap.
    pub fn check_write_spans(spans: &[Range<usize>], total: usize) {
        let mut cursor = 0usize;
        for (i, s) in spans.iter().enumerate() {
            assert!(
                s.start <= s.end,
                "write-span audit: span {i} is inverted ({} > {})",
                s.start,
                s.end
            );
            assert!(
                s.start >= cursor,
                "write-span audit: span {i} ({}..{}) overlaps the span before it (claimed through {cursor})",
                s.start,
                s.end
            );
            assert!(
                s.start <= cursor,
                "write-span audit: gap before span {i} (elements {cursor}..{} claimed by no worker)",
                s.start
            );
            cursor = s.end;
        }
        assert!(
            cursor == total,
            "write-span audit: spans cover only {cursor} of {total} elements"
        );
    }

    /// Asserts that worker `ranges` are non-empty, in order, disjoint,
    /// and exactly cover `0..n` — the [`split_ranges`] contract every
    /// dispatch relies on.
    ///
    /// # Panics
    ///
    /// Panics with a `write-span audit:` message on any violation.
    ///
    /// [`split_ranges`]: super::split_ranges
    pub fn check_ranges(ranges: &[Range<usize>], n: usize) {
        for (i, r) in ranges.iter().enumerate() {
            assert!(!r.is_empty(), "write-span audit: chunk {i} is empty");
        }
        check_write_spans(ranges, n);
    }

    /// Asserts the `par_fill_by_offsets` offsets contract: non-empty,
    /// starting at 0, and monotone — the properties that make the
    /// derived write spans a partition for *every* chunking.
    ///
    /// # Panics
    ///
    /// Panics with a `write-span audit:` message naming the first
    /// non-monotone row, at every thread count identically.
    pub fn check_offsets(offsets: &[usize]) {
        assert!(
            !offsets.is_empty(),
            "write-span audit: offsets must be non-empty"
        );
        assert!(
            offsets[0] == 0,
            "write-span audit: offsets must start at 0 (got {})",
            offsets[0]
        );
        for (i, w) in offsets.windows(2).enumerate() {
            assert!(
                w[0] <= w[1],
                "write-span audit: offsets not monotone at row {i} ({} -> {})",
                w[0],
                w[1]
            );
        }
    }
}

/// Splits `0..n` into at most `threads` contiguous, non-empty ranges
/// covering the whole index space in order.
///
/// The first chunks take `ceil(n / threads)` items, so at most one chunk
/// is short and none is empty. `threads` is clamped to at least 1;
/// `n == 0` yields no ranges.
///
/// # Examples
///
/// ```
/// use rolediet_matrix::parallel::split_ranges;
///
/// assert_eq!(split_ranges(10, 4), vec![0..3, 3..6, 6..9, 9..10]);
/// assert_eq!(split_ranges(2, 8), vec![0..1, 1..2]);
/// assert_eq!(split_ranges(0, 4), Vec::<std::ops::Range<usize>>::new());
/// ```
pub fn split_ranges(n: usize, threads: usize) -> Vec<Range<usize>> {
    let threads = threads.max(1);
    if n == 0 {
        return Vec::new();
    }
    let chunk = n.div_ceil(threads);
    let mut out = Vec::with_capacity(threads.min(n));
    let mut start = 0;
    while start < n {
        let end = (start + chunk).min(n);
        out.push(start..end);
        start = end;
    }
    out
}

/// Runs `work` over each chunk of `0..n` and returns the per-chunk
/// results **in range order**, one entry per range of
/// [`split_ranges`]`(n, threads)`.
///
/// With one effective chunk (or `threads <= 1`) the work runs inline on
/// the caller thread — the sequential and parallel paths execute the
/// same code. A worker panic is re-raised here with its original
/// payload.
pub fn par_map_ranges<T, F>(n: usize, threads: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let ranges = split_ranges(n, threads);
    #[cfg(any(test, feature = "audit"))]
    audit::check_ranges(&ranges, n);
    if ranges.len() <= 1 {
        return ranges.into_iter().map(work).collect();
    }
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|range| scope.spawn(move || work(range)))
            .collect();
        handles
            .into_iter()
            .map(|handle| match handle.join() {
                Ok(value) => value,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    })
}

/// Chunked row-range map-reduce: runs `work` over each chunk of `0..n`
/// and concatenates the per-chunk vectors in range order.
///
/// This is the common shape of the parallel stages — each worker emits
/// the items its row range produces, and concatenation in range order
/// reproduces exactly the sequence a sequential `0..n` loop would emit.
///
/// # Examples
///
/// ```
/// use rolediet_matrix::parallel::par_map_rows;
///
/// let doubled = par_map_rows(6, 3, |range| range.map(|i| i * 2).collect());
/// assert_eq!(doubled, vec![0, 2, 4, 6, 8, 10]);
/// ```
pub fn par_map_rows<T, F>(n: usize, threads: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> Vec<T> + Sync,
{
    let mut chunks = par_map_ranges(n, threads, work);
    if let [only] = chunks.as_mut_slice() {
        return std::mem::take(only);
    }
    let mut merged = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
    for chunk in chunks {
        merged.extend(chunk);
    }
    merged
}

/// Chunked map-reduce with a deterministic fold: runs `work` over each
/// chunk of `0..n` and folds the per-chunk results into the first one
/// **in range order** with `reduce`.
///
/// This is the shape of the parallel grouping kernels: each worker
/// builds a local partial structure (e.g. a union-find forest over its
/// row range's edges) and the partials are absorbed left-to-right, so
/// the merged result never depends on completion order or thread count.
/// Returns `None` when `n == 0` (no chunks, nothing to fold).
///
/// # Examples
///
/// ```
/// use rolediet_matrix::parallel::par_map_reduce_ranges;
///
/// let sum = par_map_reduce_ranges(
///     10,
///     4,
///     |range| range.sum::<usize>(),
///     |acc, part| *acc += part,
/// );
/// assert_eq!(sum, Some(45));
/// assert_eq!(par_map_reduce_ranges(0, 4, |_| 0usize, |a, b| *a += b), None);
/// ```
pub fn par_map_reduce_ranges<T, F, R>(n: usize, threads: usize, work: F, mut reduce: R) -> Option<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
    R: FnMut(&mut T, T),
{
    let mut parts = par_map_ranges(n, threads, work).into_iter();
    let mut acc = parts.next()?;
    for part in parts {
        reduce(&mut acc, part);
    }
    Some(acc)
}

/// Fills disjoint slices of `out` in parallel, one worker per chunk of
/// `0..n`.
///
/// `offsets` maps the row space onto the element space of `out`
/// (`offsets.len() == n + 1`, monotone, `offsets[n] == out.len()` —
/// exactly the shape of a CSR `indptr`): the worker owning rows
/// `range` receives `&mut out[offsets[range.start]..offsets[range.end]]`
/// and writes it in place. Because the ranges of [`split_ranges`] are
/// disjoint and cover `0..n`, the slices partition `out`, so no copy or
/// post-merge is needed — this is the fill pass of two-pass CSR
/// construction.
///
/// Worker panics are re-raised on the caller thread with their original
/// payload, like [`par_map_ranges`].
///
/// # Panics
///
/// Panics if `offsets` does not have length `n + 1` or its terminal
/// value is not `out.len()` (non-monotone offsets panic inside the
/// slicing).
///
/// # Examples
///
/// ```
/// use rolediet_matrix::parallel::par_fill_by_offsets;
///
/// let mut out = vec![0u32; 6];
/// // Rows of widths 1, 3, 0, 2.
/// let offsets = [0, 1, 4, 4, 6];
/// par_fill_by_offsets(&mut out, &offsets, 2, |range, slice| {
///     let mut k = 0;
///     for row in range {
///         for _ in offsets[row]..offsets[row + 1] {
///             slice[k] = row as u32;
///             k += 1;
///         }
///     }
/// });
/// assert_eq!(out, vec![0, 1, 1, 1, 3, 3]);
/// ```
pub fn par_fill_by_offsets<T, F>(out: &mut [T], offsets: &[usize], threads: usize, work: F)
where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    let n = offsets
        .len()
        .checked_sub(1)
        .expect("offsets must be non-empty");
    assert_eq!(
        offsets[n],
        out.len(),
        "terminal offset must equal output length"
    );
    let ranges = split_ranges(n, threads);
    #[cfg(any(test, feature = "audit"))]
    {
        audit::check_offsets(offsets);
        let spans: Vec<Range<usize>> = ranges
            .iter()
            .map(|r| offsets[r.start]..offsets[r.end])
            .collect();
        audit::check_write_spans(&spans, out.len());
    }
    if ranges.len() <= 1 {
        if let Some(range) = ranges.into_iter().next() {
            work(range, out);
        }
        return;
    }
    std::thread::scope(|scope| {
        let work = &work;
        let mut rest = out;
        let mut consumed = 0usize;
        let mut handles = Vec::with_capacity(ranges.len());
        for range in ranges {
            let (chunk, tail) = rest.split_at_mut(offsets[range.end] - consumed);
            consumed = offsets[range.end];
            rest = tail;
            handles.push(scope.spawn(move || work(range, chunk)));
        }
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_covers_everything_in_order() {
        for n in 0..50 {
            for threads in 1..10 {
                let ranges = split_ranges(n, threads);
                assert!(ranges.len() <= threads.max(1));
                let flat: Vec<usize> = ranges.iter().cloned().flatten().collect();
                assert_eq!(flat, (0..n).collect::<Vec<_>>(), "n={n} threads={threads}");
                assert!(ranges.iter().all(|r| !r.is_empty()));
            }
        }
    }

    #[test]
    fn split_clamps_zero_threads() {
        assert_eq!(split_ranges(3, 0), vec![0..3]);
    }

    #[test]
    fn par_map_rows_matches_sequential_for_every_thread_count() {
        let sequential: Vec<usize> = (0..103).map(|i| i * i).collect();
        for threads in [1, 2, 3, 4, 7, 8, 16, 200] {
            let parallel = par_map_rows(103, threads, |range| range.map(|i| i * i).collect());
            assert_eq!(parallel, sequential, "threads={threads}");
        }
    }

    #[test]
    fn par_map_ranges_returns_results_in_range_order() {
        let results = par_map_ranges(8, 4, |range| {
            // Make earlier chunks slower so completion order is reversed.
            std::thread::sleep(std::time::Duration::from_millis(
                20u64.saturating_sub(range.start as u64 * 5),
            ));
            range.start
        });
        assert_eq!(results, vec![0, 2, 4, 6]);
    }

    #[test]
    fn empty_input_runs_no_work() {
        let results: Vec<usize> = par_map_rows(0, 4, |_| panic!("no chunks expected"));
        assert!(results.is_empty());
    }

    #[test]
    fn map_reduce_folds_in_range_order_for_every_thread_count() {
        // A non-commutative fold (string concatenation) exposes any
        // completion-order dependence.
        let sequential: String = (0..23).map(|i| format!("{i},")).collect();
        for threads in [1, 2, 3, 4, 8, 50] {
            let folded = par_map_reduce_ranges(
                23,
                threads,
                |range| range.map(|i| format!("{i},")).collect::<String>(),
                |acc, part| acc.push_str(&part),
            );
            assert_eq!(
                folded.as_deref(),
                Some(sequential.as_str()),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn map_reduce_empty_input_returns_none() {
        assert_eq!(
            par_map_reduce_ranges(0, 4, |_| unreachable!("no chunks"), |_: &mut usize, _| {}),
            None
        );
    }

    #[test]
    fn fill_by_offsets_matches_sequential_for_every_thread_count() {
        // Rows of varying width, including empty rows at both ends.
        let widths = [0usize, 3, 1, 0, 4, 2, 0];
        let mut offsets = vec![0usize];
        for w in widths {
            offsets.push(offsets.last().unwrap() + w);
        }
        let total = *offsets.last().unwrap();
        let fill = |range: Range<usize>, slice: &mut [u64]| {
            let mut k = 0;
            for row in range {
                for slot in offsets[row]..offsets[row + 1] {
                    slice[k] = (row * 100 + slot) as u64;
                    k += 1;
                }
            }
        };
        let mut expected = vec![0u64; total];
        fill(0..widths.len(), &mut expected);
        for threads in [1, 2, 3, 4, 8, 50] {
            let mut out = vec![0u64; total];
            par_fill_by_offsets(&mut out, &offsets, threads, fill);
            assert_eq!(out, expected, "threads={threads}");
        }
    }

    #[test]
    fn fill_by_offsets_empty_rows_and_output() {
        let mut out: Vec<u32> = Vec::new();
        par_fill_by_offsets(&mut out, &[0], 4, |_, _| panic!("no rows expected"));
        par_fill_by_offsets(&mut out, &[0, 0, 0], 4, |_, slice| {
            assert!(slice.is_empty());
        });
    }

    #[test]
    #[should_panic(expected = "terminal offset must equal output length")]
    fn fill_by_offsets_rejects_mismatched_offsets() {
        let mut out = vec![0u32; 3];
        par_fill_by_offsets(&mut out, &[0, 2], 2, |_, _| {});
    }

    #[test]
    #[should_panic(expected = "fill worker panic")]
    fn fill_by_offsets_propagates_worker_panics() {
        let mut out = vec![0u32; 8];
        let offsets: Vec<usize> = (0..=8).collect();
        par_fill_by_offsets(&mut out, &offsets, 4, |range, _| {
            if range.start >= 4 {
                panic!("fill worker panic");
            }
        });
    }

    #[test]
    #[should_panic(expected = "original worker panic message")]
    fn worker_panic_is_propagated_verbatim() {
        par_map_ranges(8, 4, |range| {
            if range.start == 2 {
                panic!("original worker panic message");
            }
            range.start
        });
    }

    #[test]
    fn split_with_more_threads_than_items_yields_unit_ranges() {
        let ranges = split_ranges(3, 100);
        assert_eq!(ranges, vec![0..1, 1..2, 2..3]);
        // And dispatch over them still matches the sequential result.
        let doubled = par_map_rows(3, 100, |range| range.map(|i| i * 2).collect());
        assert_eq!(doubled, vec![0, 2, 4]);
    }

    #[test]
    fn fill_by_offsets_single_row() {
        // A one-row offsets array always takes the inline path, at any
        // thread count.
        for threads in [1, 4, 16] {
            let mut out = vec![0u32; 5];
            par_fill_by_offsets(&mut out, &[0, 5], threads, |range, slice| {
                assert_eq!(range, 0..1);
                slice.fill(7);
            });
            assert_eq!(out, vec![7; 5], "threads={threads}");
        }
    }

    #[test]
    fn fill_by_offsets_zero_width_trailing_chunks() {
        // All data lives in row 0; rows 1 and 2 are empty, so with three
        // threads the trailing workers receive zero-width slices.
        let offsets = [0usize, 2, 2, 2];
        for threads in [1, 2, 3, 8] {
            let mut out = vec![0u32; 2];
            par_fill_by_offsets(&mut out, &offsets, threads, |range, slice| {
                if range.contains(&0) {
                    slice[0] = 1;
                    slice[1] = 2;
                } else {
                    assert!(slice.is_empty(), "trailing chunk {range:?} must be empty");
                }
            });
            assert_eq!(out, vec![1, 2], "threads={threads}");
        }
    }

    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            String::from("<non-string panic payload>")
        }
    }

    #[test]
    fn non_monotone_offsets_panic_identically_at_every_thread_count() {
        let offsets = [0usize, 4, 2, 6];
        let mut messages = Vec::new();
        for threads in [1, 2, 3, 8] {
            let result = std::panic::catch_unwind(|| {
                let mut out = vec![0u32; 6];
                par_fill_by_offsets(&mut out, &offsets, threads, |_, _| {});
            });
            let payload = result.expect_err("non-monotone offsets must panic");
            messages.push(panic_message(payload));
        }
        assert!(
            messages[0].contains("offsets not monotone at row 1 (4 -> 2)"),
            "unexpected message: {}",
            messages[0]
        );
        assert!(
            messages.iter().all(|m| m == &messages[0]),
            "panic message differs across thread counts: {messages:?}"
        );
    }

    #[test]
    fn audit_accepts_partitions_with_zero_width_spans() {
        audit::check_write_spans(&[], 0);
        audit::check_write_spans(&[0..2, 2..2, 2..4], 4);
        audit::check_ranges(&split_ranges(10, 3), 10);
        audit::check_offsets(&[0, 0, 3, 3, 7]);
    }

    #[test]
    #[should_panic(expected = "overlaps the span before it")]
    fn audit_catches_overlapping_spans() {
        // A deliberately overlapping claim: both workers would own
        // elements 2..3.
        audit::check_write_spans(&[0..3, 2..5], 5);
    }

    #[test]
    #[should_panic(expected = "claimed by no worker")]
    fn audit_catches_gapped_spans() {
        audit::check_write_spans(&[0..2, 3..5], 5);
    }

    #[test]
    #[should_panic(expected = "is inverted")]
    #[allow(clippy::reversed_empty_ranges)]
    fn audit_catches_inverted_spans() {
        audit::check_write_spans(&[0..2, 4..2], 4);
    }

    #[test]
    #[should_panic(expected = "cover only 2 of 5")]
    #[allow(clippy::single_range_in_vec_init)] // a one-span plan, not a range literal
    fn audit_catches_short_coverage() {
        audit::check_write_spans(&[0..2], 5);
    }

    #[test]
    #[should_panic(expected = "chunk 1 is empty")]
    fn audit_rejects_empty_chunk_ranges() {
        audit::check_ranges(&[0..2, 2..2, 2..4], 4);
    }

    #[test]
    #[should_panic(expected = "must start at 0")]
    fn audit_rejects_offsets_not_starting_at_zero() {
        audit::check_offsets(&[1, 3]);
    }
}
