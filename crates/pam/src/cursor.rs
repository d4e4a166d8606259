//! Block-to-block cursor over a tree snapshot.
//!
//! A [`Cursor`] holds a stack of internal nodes plus the not-yet-consumed
//! suffix of the current leaf block. Advancing inside a block is one slice
//! `split_first` — no tree descent — so a full scan touches each internal
//! node once and streams each leaf block linearly. Seeking costs one
//! root-to-leaf descent plus a binary search inside the landing block.
//!
//! Because trees are persistent, a cursor pins a *snapshot*: the borrowed
//! `Tree` cannot change underneath it, and mutations to clones of the map
//! (path copying) never disturb the blocks the cursor walks.

use crate::balance::Balance;
use crate::node::{EntryOwned, InternalNode, Node, Tree};
use crate::spec::AugSpec;
use std::cmp::Ordering;

/// An in-order streaming position in a tree. Created via
/// [`AugMap::cursor`](crate::AugMap::cursor) /
/// [`AugMap::cursor_at`](crate::AugMap::cursor_at).
pub struct Cursor<'a, S: AugSpec, B: Balance> {
    /// Ancestors whose own entry (and right subtree) are still pending,
    /// innermost last.
    stack: Vec<&'a InternalNode<S, B>>,
    /// Unconsumed suffix of the current leaf block.
    block: &'a [EntryOwned<S>],
}

impl<'a, S: AugSpec, B: Balance> Cursor<'a, S, B> {
    /// A cursor positioned at the smallest key.
    pub fn first(t: &'a Tree<S, B>) -> Self {
        let mut c = Cursor {
            stack: Vec::with_capacity(16),
            block: &[],
        };
        c.descend_left(t);
        c
    }

    /// A cursor positioned at the smallest key `>= lo`.
    pub fn seek(t: &'a Tree<S, B>, lo: &S::K) -> Self {
        let mut c = Cursor {
            stack: Vec::with_capacity(16),
            block: &[],
        };
        c.descend_ge(t, lo);
        c
    }

    fn descend_left(&mut self, mut t: &'a Tree<S, B>) {
        while let Some(n) = t.as_deref() {
            match n {
                Node::Leaf(l) => {
                    self.block = l.entries();
                    return;
                }
                Node::Internal(x) => {
                    self.stack.push(x);
                    t = &x.left;
                }
            }
        }
    }

    fn descend_ge(&mut self, mut t: &'a Tree<S, B>, lo: &S::K) {
        while let Some(n) = t.as_deref() {
            match n {
                Node::Leaf(l) => {
                    let idx = l
                        .entries()
                        .partition_point(|e| S::compare(&e.key, lo) == Ordering::Less);
                    self.block = &l.entries()[idx..];
                    return;
                }
                Node::Internal(x) => {
                    if S::compare(&x.key, lo) == Ordering::Less {
                        t = &x.right;
                    } else {
                        self.stack.push(x);
                        t = &x.left;
                    }
                }
            }
        }
    }

    /// The entry under the cursor, without advancing. `None` when
    /// exhausted.
    pub fn peek(&self) -> Option<(&'a S::K, &'a S::V)> {
        if let Some(e) = self.block.first() {
            return Some((&e.key, &e.val));
        }
        self.stack.last().map(|x| (&x.key, &x.val))
    }

    /// Yield the entry under the cursor and move to its successor.
    pub fn advance(&mut self) -> Option<(&'a S::K, &'a S::V)> {
        if let Some((e, rest)) = self.block.split_first() {
            self.block = rest;
            return Some((&e.key, &e.val));
        }
        let x = self.stack.pop()?;
        self.descend_left(&x.right);
        Some((&x.key, &x.val))
    }

    /// True once every entry has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.block.is_empty() && self.stack.is_empty()
    }

    /// Drop the remaining entries; the cursor becomes exhausted.
    pub(crate) fn exhaust(&mut self) {
        self.stack.clear();
        self.block = &[];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SumAug;
    use crate::AugMap;

    type M = AugMap<SumAug<u64, u64>>;

    #[test]
    fn empty_cursor_is_exhausted() {
        let m = M::new();
        let mut c = Cursor::first(m.root());
        assert!(c.is_exhausted());
        assert!(c.peek().is_none());
        assert!(c.advance().is_none());
    }

    #[test]
    fn full_scan_in_order() {
        let m = M::build((0..300u64).map(|i| (i * 2, i)).collect());
        let mut c = Cursor::first(m.root());
        let mut got = Vec::new();
        while let Some((k, v)) = c.advance() {
            got.push((*k, *v));
        }
        assert_eq!(got, m.to_vec());
        assert!(c.is_exhausted());
    }

    #[test]
    fn seek_lands_on_first_ge() {
        let m = M::build((0..100u64).map(|i| (i * 10, i)).collect());
        for lo in [0u64, 1, 9, 10, 11, 505, 990, 991] {
            let c = Cursor::seek(m.root(), &lo);
            let want = m.to_vec().into_iter().find(|&(k, _)| k >= lo);
            assert_eq!(c.peek().map(|(k, v)| (*k, *v)), want, "lo={lo}");
        }
    }

    #[test]
    fn peek_does_not_advance() {
        let m = M::build(vec![(1, 10), (2, 20)]);
        let mut c = Cursor::first(m.root());
        assert_eq!(c.peek(), c.peek());
        assert_eq!(c.advance(), Some((&1, &10)));
        assert_eq!(c.peek(), Some((&2, &20)));
    }
}
