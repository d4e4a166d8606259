//! Sequential in-order iteration, built on the block-to-block
//! [`Cursor`](crate::cursor::Cursor): advancing inside a leaf block is one
//! slice step, and each internal node is visited exactly once per scan —
//! no per-entry re-descent.

use crate::cursor::Cursor;
use crate::node::Tree;
use crate::spec::AugSpec;

/// Borrowing in-order iterator over `(key, value)` pairs.
pub struct Iter<'a, S: AugSpec> {
    cur: Cursor<'a, S>,
    remaining: usize,
}

impl<'a, S: AugSpec> Iter<'a, S> {
    pub(crate) fn new(t: &'a Tree<S>) -> Self {
        Iter {
            cur: Cursor::first(t),
            remaining: crate::node::size(t),
        }
    }
}

impl<'a, S: AugSpec> Iterator for Iter<'a, S> {
    type Item = (&'a S::K, &'a S::V);

    fn next(&mut self) -> Option<Self::Item> {
        let item = self.cur.advance()?;
        self.remaining -= 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<'a, S: AugSpec> ExactSizeIterator for Iter<'a, S> {}

/// Borrowing in-order iterator over the keys in `[lo, hi]`, visiting
/// only the O(log n + output) relevant nodes — no sub-map is
/// materialized.
pub struct RangeIter<'a, S: AugSpec> {
    cur: Cursor<'a, S>,
    hi: &'a S::K,
}

impl<'a, S: AugSpec> RangeIter<'a, S> {
    pub(crate) fn new(t: &'a Tree<S>, lo: &'a S::K, hi: &'a S::K) -> Self {
        RangeIter {
            cur: Cursor::seek(t, lo),
            hi,
        }
    }
}

impl<'a, S: AugSpec> Iterator for RangeIter<'a, S> {
    type Item = (&'a S::K, &'a S::V);

    fn next(&mut self) -> Option<Self::Item> {
        let (k, v) = self.cur.advance()?;
        if S::compare(k, self.hi) == std::cmp::Ordering::Greater {
            // everything after is even larger
            self.cur.exhaust();
            return None;
        }
        Some((k, v))
    }
}
