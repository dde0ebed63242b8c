//! Fixed-shape pairwise (tree) reductions with a combine order that
//! depends **only on the element count** — never on thread count or
//! shard boundaries — so sequential and pool-parallel drivers produce
//! the same bits by construction.
//!
//! # Why floating-point reductions need a fixed shape
//!
//! `f64` addition is not associative: `(a + b) + c` and `a + (b + c)`
//! can round differently, so a sum's bits depend on the order terms are
//! combined. A naive parallel sum folds each shard locally and then
//! combines shard partials, which makes the result a function of *how
//! many shards there were* — breaking this repo's
//! bit-identical-at-any-thread-count contract. The standard fix (used
//! by deterministic large-scale training stacks) is to fix the
//! reduction *tree* up front as a pure function of the element count
//! `n` and make every execution strategy walk that same tree.
//!
//! # The shape
//!
//! Elements `0..n` are cut into fixed **leaf blocks** of
//! [`LEAF_WIDTH`] consecutive elements (the last block may be short).
//! Each leaf is folded sequentially left-to-right starting from the
//! identity — exactly the shape of `iter().fold(identity, combine)` —
//! so inputs no longer than one leaf reduce *bit-identically to the
//! plain left-fold* they replace. Leaf partials are then combined by
//! balanced pairwise rounds: adjacent partials pair up
//! (`p[i] = combine(p[2i], p[2i+1])`), an odd trailing partial is
//! carried to the next round **unchanged** (never combined with the
//! identity, which could perturb bits, e.g. `-0.0 + 0.0 == +0.0`),
//! and rounds repeat until one value remains. Both the block
//! boundaries and the pairing pattern are pure functions of `n`.
//!
//! # The two drivers
//!
//! [`tree_reduce`] walks the tree on the calling thread. The
//! pool-parallel driver ([`tree_reduce_pool`]) farms the *leaf
//! partials* out to a [`WorkerPool`] (one work item per leaf, so
//! work-stealing can balance them freely) and then combines the
//! collected partials through the identical pairwise rounds on the
//! calling thread. Since each leaf partial is computed by the same
//! per-leaf sequential fold and the combine sequence is shared code,
//! the two drivers agree bit-for-bit at any thread count — there is
//! nothing to test except that the leaves were all filled in, which
//! the pool's barrier guarantees.

use crate::par::WorkerPool;

/// Elements folded sequentially per leaf block. 32 keeps the
/// per-element cost of tree bookkeeping negligible while leaving
/// enough leaves for a pool to balance (a 1536-server fleet has 48),
/// and it means any reduction over at most 32 elements is
/// bit-identical to the plain left-fold it replaced.
pub const LEAF_WIDTH: usize = 32;

/// Number of leaf blocks the fixed shape assigns to `n` elements.
pub fn num_leaves(n: usize) -> usize {
    n.div_ceil(LEAF_WIDTH)
}

/// Folds leaf block `k` of `n` elements: a plain sequential
/// left-to-right fold of `map(i)` for `i` in the block, starting from
/// `identity`. Shared verbatim by both drivers — this is what makes
/// them bit-identical by construction.
fn leaf_partial<T, M, C>(k: usize, n: usize, identity: T, map: &M, combine: &C) -> T
where
    T: Copy,
    M: Fn(usize) -> T + ?Sized,
    C: Fn(T, T) -> T + ?Sized,
{
    let start = k * LEAF_WIDTH;
    let end = n.min(start + LEAF_WIDTH);
    let mut acc = identity;
    for i in start..end {
        acc = combine(acc, map(i));
    }
    acc
}

/// Combines leaf partials by balanced pairwise rounds. Adjacent
/// partials pair left-to-right; an odd trailing partial is carried
/// unchanged. The sequence of combines is a pure function of
/// `parts.len()` — shared verbatim by both drivers.
fn combine_partials<T, C>(mut parts: Vec<T>, identity: T, combine: &C) -> T
where
    T: Copy,
    C: Fn(T, T) -> T + ?Sized,
{
    if parts.is_empty() {
        return identity;
    }
    while parts.len() > 1 {
        let mut next = Vec::with_capacity(parts.len().div_ceil(2));
        for pair in parts.chunks(2) {
            next.push(if pair.len() == 2 {
                combine(pair[0], pair[1])
            } else {
                pair[0]
            });
        }
        parts = next;
    }
    parts[0]
}

/// Sequential driver: reduces `map(0) .. map(n-1)` through the fixed
/// tree on the calling thread. `combine` must not be assumed
/// associative — the whole point is that it is called in one specific
/// order — but it must be a pure function of its operands.
pub fn tree_reduce<T, M, C>(n: usize, identity: T, map: M, combine: C) -> T
where
    T: Copy,
    M: Fn(usize) -> T,
    C: Fn(T, T) -> T,
{
    let parts: Vec<T> = (0..num_leaves(n))
        .map(|k| leaf_partial(k, n, identity, &map, &combine))
        .collect();
    combine_partials(parts, identity, &combine)
}

/// Pool-parallel driver: leaf partials are computed by the pool (one
/// stealable work item per leaf), then combined through the identical
/// pairwise rounds on the calling thread. Bit-identical to
/// [`tree_reduce`] with the same `n`/`map`/`combine` at any thread
/// count, because the per-leaf fold and the combine sequence are the
/// same code.
pub fn tree_reduce_pool<T, M, C>(pool: &WorkerPool, n: usize, identity: T, map: M, combine: C) -> T
where
    T: Copy + Send + Sync,
    M: Fn(usize) -> T + Sync,
    C: Fn(T, T) -> T + Sync,
{
    let mut parts = vec![identity; num_leaves(n)];
    pool.for_each_mut(&mut parts, &|k, part| {
        *part = leaf_partial(k, n, identity, &map, &combine);
    });
    combine_partials(parts, identity, &combine)
}

/// Fixed-shape sum of `f(0) .. f(n-1)` (identity `0.0`, combine `+`).
pub fn tree_sum_by<F: Fn(usize) -> f64>(n: usize, f: F) -> f64 {
    tree_reduce(n, 0.0, f, |a, b| a + b)
}

/// Fixed-shape sum of a slice.
pub fn tree_sum(xs: &[f64]) -> f64 {
    tree_sum_by(xs.len(), |i| xs[i])
}

/// Fixed-shape maximum of `f(0) .. f(n-1)` with the left-fold identity
/// `0.0` (matching the `fold(0.0, f64::max)` idiom it replaces:
/// negative inputs clamp to zero and NaNs are ignored by `f64::max`).
pub fn tree_max_by<F: Fn(usize) -> f64>(n: usize, f: F) -> f64 {
    tree_reduce(n, 0.0, f, f64::max)
}

/// Fixed-shape maximum of a slice (identity `0.0`, combine `f64::max`).
pub fn tree_max(xs: &[f64]) -> f64 {
    tree_max_by(xs.len(), |i| xs[i])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn empty_and_singleton_reduce_to_identity_and_element() {
        assert_eq!(tree_sum(&[]), 0.0);
        assert_eq!(tree_sum(&[2.5]), 0.0 + 2.5);
        assert_eq!(tree_max(&[]), 0.0);
    }

    #[test]
    fn at_most_one_leaf_matches_the_plain_left_fold_bitwise() {
        // The load-bearing compatibility property: call sites whose
        // inputs never exceed LEAF_WIDTH keep their exact old bits.
        for n in 0..=LEAF_WIDTH {
            let xs: Vec<f64> = (0..n).map(|i| (i as f64 + 0.1) * 1.7e-3).collect();
            let reference = xs.iter().fold(0.0f64, |a, b| a + b);
            assert_eq!(tree_sum(&xs).to_bits(), reference.to_bits());
            let ref_max = xs.iter().cloned().fold(0.0f64, f64::max);
            assert_eq!(tree_max(&xs).to_bits(), ref_max.to_bits());
        }
    }

    #[test]
    fn shape_depends_only_on_count() {
        // Reduce index ranges with a combine that logs every merge as
        // (left_len, right_len). Equal-length inputs must produce the
        // identical log regardless of element values.
        fn shape(n: usize) -> Vec<(usize, usize)> {
            let log = Mutex::new(Vec::new());
            tree_reduce(
                n,
                0usize,
                |_| 1usize,
                |a, b| {
                    if a > 0 && b > 0 {
                        log.lock().unwrap().push((a, b));
                    }
                    a + b
                },
            );
            log.into_inner().unwrap()
        }
        for n in [0, 1, 31, 32, 33, 64, 65, 97, 1536] {
            assert_eq!(shape(n), shape(n), "shape must be deterministic for n={n}");
        }
        // 97 elements = 4 leaves (32, 32, 32, 1): within-leaf merges
        // then two pairwise rounds; the odd carry never merges with
        // the identity.
        let s = shape(97);
        assert!(s.contains(&(32, 32)) && s.contains(&(64, 33)), "{s:?}");
    }

    #[test]
    fn pool_driver_is_bit_identical_across_thread_counts() {
        let xs: Vec<f64> = (0..777)
            .map(|i| ((i * 2654435761u64 as usize) as f64).sin() * 1e8)
            .collect();
        let seq = tree_sum(&xs);
        for threads in [1, 2, 4, 7] {
            let pool = WorkerPool::new(threads);
            let par = tree_reduce_pool(&pool, xs.len(), 0.0, |i| xs[i], |a, b| a + b);
            assert_eq!(par.to_bits(), seq.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn struct_reductions_combine_componentwise() {
        let pool = WorkerPool::new(3);
        let n = 200;
        let seq = tree_reduce(
            n,
            (0.0f64, 0u64),
            |i| (i as f64 * 0.25, u64::from(i % 3 == 0)),
            |a, b| (a.0 + b.0, a.1 + b.1),
        );
        let par = tree_reduce_pool(
            &pool,
            n,
            (0.0f64, 0u64),
            |i| (i as f64 * 0.25, u64::from(i % 3 == 0)),
            |a, b| (a.0 + b.0, a.1 + b.1),
        );
        assert_eq!(seq.0.to_bits(), par.0.to_bits());
        assert_eq!(seq.1, par.1);
        assert_eq!(seq.1, (0..n as u64).filter(|i| i % 3 == 0).count() as u64);
    }
}
