//! Deterministic parallel candidate scans shared by the attackers.
//!
//! Every greedy attacker in this crate repeatedly argmaxes a score over a
//! large candidate space — the strict upper triangle of the adjacency for
//! edge flips, the `n × d` feature grid for feature flips. These helpers
//! fan that scan over a [`ThreadPool`]: each worker scans a contiguous
//! index chunk in ascending order, and chunk results merge in ascending
//! chunk order with strict `>`, so the winner is the exact sequential
//! first-max regardless of worker count (the kernels' bitwise-determinism
//! contract, see `bbgnn_linalg::kernels`).

use bbgnn_linalg::ThreadPool;

/// Merges two scored candidates with strict `>`: the right side wins only
/// when its score is strictly higher. Folding chunk results in ascending
/// chunk order with this rule reproduces the sequential first-max scan.
pub(crate) fn merge_best<T>(a: Option<(f64, T)>, b: Option<(f64, T)>) -> Option<(f64, T)> {
    match (a, b) {
        (Some(x), Some(y)) => Some(if y.0 > x.0 { y } else { x }),
        (x, y) => x.or(y),
    }
}

/// Concatenates two band results in band order: the `map_fold` merge that
/// keeps a scored list identical for every worker count.
pub(crate) fn concat<T>(mut a: Vec<T>, mut b: Vec<T>) -> Vec<T> {
    a.append(&mut b);
    a
}

/// Decodes a flattened strict-upper-triangle index `k` (lexicographic over
/// pairs `(u, v)` with `u < v`) back into its pair. Used to seed each
/// chunk of the parallel edge scan.
fn unflatten_pair(k: usize, n: usize) -> (usize, usize) {
    let mut u = 0;
    let mut row_start = 0;
    loop {
        let row_len = n - u - 1;
        if k < row_start + row_len {
            return (u, u + 1 + (k - row_start));
        }
        row_start += row_len;
        u += 1;
    }
}

/// Parallel first-max over undirected pairs `(u, v)` with `u < v`.
///
/// `score(u, v)` returns `None` to skip a candidate; non-finite scores
/// are skipped the same way (a NaN can never be a meaningful argmax, and a
/// `+inf` — e.g. from an unguarded division by a zero degree — would
/// otherwise *win* it and select a garbage flip). The result is
/// bitwise-identical to the ascending sequential double loop for every
/// worker count. Returns `None` when the candidate space is empty or every
/// score is skipped.
pub(crate) fn best_edge_flip<S>(
    pool: &ThreadPool,
    n: usize,
    score: S,
) -> Option<(f64, usize, usize)>
where
    S: Fn(usize, usize) -> Option<f64> + Sync,
{
    let pairs = n * n.saturating_sub(1) / 2;
    // One scan = `pairs` candidate queries against the victim surrogate.
    // Accounted on the calling thread before the pool region so a query
    // budget trips at a deterministic scan boundary (DESIGN.md §11).
    bbgnn_supervise::note_queries(pairs as u64);
    pool.map_fold(
        pairs,
        |range| {
            let mut best: Option<(f64, (usize, usize))> = None;
            let (mut u, mut v) = unflatten_pair(range.start, n);
            for _ in range {
                if let Some(s) = score(u, v) {
                    // Non-finite scores are skipped entirely: a NaN would be
                    // admitted as the *first* candidate by `map_or(true, …)`
                    // and then beat nothing (NaN comparisons are all false),
                    // and a +inf would win the argmax outright.
                    if s.is_finite() && best.map_or(true, |(b, _)| s > b) {
                        best = Some((s, (u, v)));
                    }
                }
                v += 1;
                if v == n {
                    u += 1;
                    v = u + 1;
                }
            }
            best
        },
        merge_best,
    )
    .flatten()
    .map(|(s, (u, v))| (s, u, v))
}

/// Parallel first-max over the entries of a `rows × cols` grid, scanned in
/// row-major order. Same determinism contract as [`best_edge_flip`].
pub(crate) fn best_entry_flip<S>(
    pool: &ThreadPool,
    rows: usize,
    cols: usize,
    score: S,
) -> Option<(f64, usize, usize)>
where
    S: Fn(usize, usize) -> Option<f64> + Sync,
{
    if cols == 0 {
        return None;
    }
    // Same deterministic query accounting as `best_edge_flip`.
    bbgnn_supervise::note_queries((rows * cols) as u64);
    pool.map_fold(
        rows * cols,
        |range| {
            let mut best: Option<(f64, (usize, usize))> = None;
            for k in range {
                let (r, c) = (k / cols, k % cols);
                if let Some(s) = score(r, c) {
                    // Same non-finite guard as the edge scan above.
                    if s.is_finite() && best.map_or(true, |(b, _)| s > b) {
                        best = Some((s, (r, c)));
                    }
                }
            }
            best
        },
        merge_best,
    )
    .flatten()
    .map(|(s, (r, c))| (s, r, c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unflatten_pair_is_lexicographic() {
        let n = 7;
        let mut k = 0;
        for u in 0..n {
            for v in (u + 1)..n {
                assert_eq!(unflatten_pair(k, n), (u, v));
                k += 1;
            }
        }
        assert_eq!(k, n * (n - 1) / 2);
    }

    /// Degenerate candidate spaces must return `None`, not panic: zero or
    /// one node (no pairs), zero rows, zero columns.
    #[test]
    fn empty_candidate_spaces_return_none() {
        let pool = ThreadPool::new(4);
        let some = |_: usize, _: usize| Some(1.0);
        assert_eq!(best_edge_flip(&pool, 0, some), None);
        assert_eq!(best_edge_flip(&pool, 1, some), None);
        assert_eq!(best_entry_flip(&pool, 0, 5, some), None);
        assert_eq!(best_entry_flip(&pool, 5, 0, some), None);
        // Non-empty space where every candidate is skipped.
        let none = |_: usize, _: usize| None::<f64>;
        assert_eq!(best_edge_flip(&pool, 10, none), None);
        assert_eq!(best_entry_flip(&pool, 4, 4, none), None);
    }

    /// All-equal scores: strict `>` keeps the *first* candidate in scan
    /// order, for every worker count.
    #[test]
    fn all_equal_scores_select_first_candidate() {
        let flat = |_: usize, _: usize| Some(2.5);
        for threads in [1, 2, 8] {
            let pool = ThreadPool::new(threads);
            assert_eq!(best_edge_flip(&pool, 30, flat), Some((2.5, 0, 1)));
            assert_eq!(best_entry_flip(&pool, 30, 30, flat), Some((2.5, 0, 0)));
        }
    }

    /// NaN scores must never be selected — including a NaN on the very
    /// first candidate, which the pre-fix `map_or(true, …)` admitted and
    /// then never replaced (NaN comparisons are all false).
    #[test]
    fn nan_scores_are_never_selected() {
        let nan_first = |u: usize, v: usize| Some(if u == 0 && v <= 1 { f64::NAN } else { 1.0 });
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads);
            let best = best_edge_flip(&pool, 20, nan_first);
            assert_eq!(best, Some((1.0, 0, 2)), "NaN leaked past the scan");
            let best = best_entry_flip(&pool, 20, 20, nan_first);
            assert_eq!(best, Some((1.0, 0, 2)));
        }
        // All-NaN space: nothing selectable.
        let all_nan = |_: usize, _: usize| Some(f64::NAN);
        let pool = ThreadPool::new(4);
        assert_eq!(best_edge_flip(&pool, 10, all_nan), None);
        assert_eq!(best_entry_flip(&pool, 4, 4, all_nan), None);
    }

    /// Infinite scores must never be selected: unlike NaN, a `+inf` passed
    /// the pre-fix `!s.is_nan()` guard and *won* the argmax (the ISSUE 8
    /// GF-Attack degree-division symptom). Finite scores must beat it, and
    /// an all-inf space selects nothing.
    #[test]
    fn infinite_scores_are_never_selected() {
        let inf_first =
            |u: usize, v: usize| Some(if u == 0 && v <= 1 { f64::INFINITY } else { 1.0 });
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads);
            assert_eq!(
                best_edge_flip(&pool, 20, inf_first),
                Some((1.0, 0, 2)),
                "+inf leaked past the edge scan"
            );
            assert_eq!(best_entry_flip(&pool, 20, 20, inf_first), Some((1.0, 0, 2)));
        }
        // All-inf space (every candidate degenerate): nothing selectable.
        let all_inf = |_: usize, _: usize| Some(f64::INFINITY);
        let neg_inf = |_: usize, _: usize| Some(f64::NEG_INFINITY);
        let pool = ThreadPool::new(4);
        assert_eq!(best_edge_flip(&pool, 10, all_inf), None);
        assert_eq!(best_entry_flip(&pool, 4, 4, all_inf), None);
        assert_eq!(best_edge_flip(&pool, 10, neg_inf), None);
        assert_eq!(best_entry_flip(&pool, 4, 4, neg_inf), None);
    }

    #[test]
    fn parallel_scan_matches_sequential_first_max() {
        // Scores engineered with plateaus (ties) so first-max semantics
        // actually matter; 8 workers over a space big enough to chunk.
        let n = 80;
        let score = |u: usize, v: usize| {
            if (u + v) % 3 == 0 {
                None
            } else {
                Some(((u * 31 + v * 17) % 97) as f64)
            }
        };
        let mut seq: Option<(f64, usize, usize)> = None;
        for u in 0..n {
            for v in (u + 1)..n {
                if let Some(s) = score(u, v) {
                    if seq.map_or(true, |(b, _, _)| s > b) {
                        seq = Some((s, u, v));
                    }
                }
            }
        }
        for threads in [1, 2, 8] {
            let par = best_edge_flip(&ThreadPool::new(threads), n, score);
            assert_eq!(par, seq, "{threads}-thread edge scan diverged");
        }
        let mut seq_e: Option<(f64, usize, usize)> = None;
        for r in 0..n {
            for c in 0..n {
                if let Some(s) = score(r, c) {
                    if seq_e.map_or(true, |(b, _, _)| s > b) {
                        seq_e = Some((s, r, c));
                    }
                }
            }
        }
        for threads in [1, 2, 8] {
            let par = best_entry_flip(&ThreadPool::new(threads), n, n, score);
            assert_eq!(par, seq_e, "{threads}-thread entry scan diverged");
        }
    }
}
