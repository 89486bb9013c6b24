//! Zero-dependency fork/join helpers for the deterministic epoch engine.
//!
//! The lane-epoch engine runs the events of one timestamp batch on
//! disjoint ranges of per-node state, then commits the workers' outboxes
//! **in chunk order** before any shared state mutation or trace record
//! happens. [`map_chunks_mut_with`] encodes that discipline:
//!
//! * each chunk is a contiguous `&mut` range, run on one scoped worker
//!   ([`std::thread::scope`] — no `unsafe`, no external crates);
//! * workers are joined in spawn order, so the merged output is in chunk
//!   order regardless of which worker finished first;
//! * a single chunk short-circuits to a plain call, so the serial and
//!   parallel engines share one body.
//!
//! Determinism therefore does not depend on scheduling luck: the trace
//! digests of serial and parallel runs are compared by `repro gate`.

use std::num::NonZeroUsize;
use std::sync::OnceLock;
use std::thread;

/// Number of hardware threads available to the process (at least 1).
///
/// Cached: `std::thread::available_parallelism` re-reads cgroup limits on
/// every call on Linux (tens of microseconds), and the epoch engine asks
/// once per timestamp batch — uncached, "auto" was slower than serial.
pub fn available_threads() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Resolves a user-requested worker count: `0` means "auto" (use
/// [`available_threads`]), anything else is taken literally. Oversubscribing
/// is allowed — useful for proving digest equality on small hosts.
pub fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        available_threads()
    } else {
        requested
    }
}

/// Splits `items` into contiguous chunks at the given `bounds` (ascending,
/// starting at 0 and ending at `items.len()`), moves one owned payload into
/// each worker (`payloads[i]` goes to chunk `i`) and runs
/// `f(chunk_index, base_offset, chunk, payload)` on one scoped worker per
/// chunk, returning the per-chunk results **in chunk order**.
///
/// The lane-epoch engine hands each worker its share of the drained event
/// batch *by value* alongside the `&mut` node range the events target; `f`
/// returns the chunk's outbox, which the caller commits serially in
/// canonical order.
///
/// # Panics
///
/// Panics if `bounds` is not an ascending partition of `items` or
/// `payloads.len() != bounds.len() - 1`.
pub fn map_chunks_mut_with<T, P, R, F>(
    items: &mut [T],
    bounds: &[usize],
    payloads: Vec<P>,
    f: F,
) -> Vec<R>
where
    T: Send,
    P: Send,
    R: Send,
    F: Fn(usize, usize, &mut [T], P) -> R + Sync,
{
    assert!(
        bounds.len() >= 2
            && bounds[0] == 0
            && *bounds.last().unwrap() == items.len()
            && bounds.windows(2).all(|w| w[0] <= w[1]),
        "map_chunks_mut_with: bounds must ascend from 0 to items.len()"
    );
    let chunks = bounds.len() - 1;
    assert_eq!(
        payloads.len(),
        chunks,
        "map_chunks_mut_with: one payload per chunk"
    );
    let mut payloads = payloads;
    if chunks == 1 {
        let p = payloads.pop().expect("one payload");
        return vec![f(0, 0, items, p)];
    }
    let mut out = Vec::with_capacity(chunks);
    thread::scope(|s| {
        let mut rest = items;
        let handles: Vec<_> = payloads
            .into_iter()
            .enumerate()
            .map(|(ci, payload)| {
                let (chunk, tail) =
                    std::mem::take(&mut rest).split_at_mut(bounds[ci + 1] - bounds[ci]);
                rest = tail;
                let f = &f;
                s.spawn(move || f(ci, bounds[ci], chunk, payload))
            })
            .collect();
        for handle in handles {
            out.push(handle.join().expect("epoch worker panicked"));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_threads_resolves_auto() {
        assert_eq!(effective_threads(3), 3);
        assert!(effective_threads(0) >= 1);
    }

    #[test]
    fn map_chunks_mut_with_partitions_disjointly_in_order() {
        let mut items: Vec<u64> = (0..100).collect();
        let bounds = [0usize, 17, 17, 60, 100];
        let got = map_chunks_mut_with(&mut items, &bounds, vec![(); 4], |ci, base, chunk, ()| {
            for (j, item) in chunk.iter_mut().enumerate() {
                assert_eq!(*item, (base + j) as u64, "chunk {ci} sees its own range");
                *item += 1000;
            }
            (ci, base, chunk.len())
        });
        assert_eq!(got, vec![(0, 0, 17), (1, 17, 0), (2, 17, 43), (3, 60, 40)]);
        assert!(items.iter().enumerate().all(|(i, &v)| v == i as u64 + 1000));
    }

    #[test]
    fn map_chunks_mut_with_moves_one_payload_per_chunk() {
        let mut items: Vec<u64> = (0..10).collect();
        let bounds = [0usize, 4, 10];
        // Payloads are owned (non-Copy) and consumed by their worker.
        let payloads = vec![vec![1u64], vec![2, 3]];
        let got = map_chunks_mut_with(&mut items, &bounds, payloads, |ci, base, chunk, p| {
            (ci, base, chunk.len(), p.iter().sum::<u64>())
        });
        assert_eq!(got, vec![(0, 0, 4, 1), (1, 4, 6, 5)]);
        // Single chunk runs inline.
        let got = map_chunks_mut_with(
            &mut items,
            &[0, 10],
            vec![String::from("x")],
            |_, _, c, p| (c.len(), p),
        );
        assert_eq!(got, vec![(10, String::from("x"))]);
    }

    #[test]
    #[should_panic(expected = "one payload per chunk")]
    fn map_chunks_mut_with_rejects_payload_mismatch() {
        let mut items = [1u8; 4];
        map_chunks_mut_with(&mut items, &[0, 2, 4], vec![()], |_, _, _, ()| ());
    }

    #[test]
    #[should_panic(expected = "bounds must ascend")]
    fn map_chunks_mut_with_rejects_bad_bounds() {
        let mut items = [1u8; 4];
        map_chunks_mut_with(&mut items, &[0, 3], vec![()], |_, _, _, ()| ());
    }
}
