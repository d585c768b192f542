//! A from-scratch B+-tree.
//!
//! This is the ordered index Propeller offers per ACG (paper §IV supports
//! "b-tree, hash table or K-D-tree" per user-defined index). Keys live in
//! the leaves; internal nodes hold separator keys only, as in a classical
//! B+-tree. Inserts split full nodes top-down on the way to the leaf: in
//! the middle, or after all but the last entry when the key sorts after
//! every key of the node, so an ascending run (file ids, fresh mtimes)
//! leaves full leaves behind it, not half-empty ones. Deletes never
//! merge or rebalance: an entry leaves its leaf, and a node the delete
//! empties — leaf or internal — is unlinked from its parent together with
//! one adjacent separator, and a root left with one child hands over to
//! it. Underfull nodes stay, but no empty one does, so a churned tree
//! (the index group removes a value's entry with its last file) holds
//! neither dead entries nor dead leaves.
//!
//! ## Persistence (structural sharing)
//!
//! Nodes are held in [`Arc`]s and every mutation path-copies: a mutator
//! walks root-to-leaf calling [`Arc::make_mut`], which clones a node only
//! when it is shared. [`BPlusTree::clone`] is therefore O(1) — it bumps
//! the root's refcount — and a clone plus a mutation costs
//! O(depth × ORDER) clones of the touched spine, with every untouched
//! subtree shared between the old and new tree. This is what lets an
//! epoch snapshot of an index group be published by cloning handles while
//! readers keep iterating the previous version untouched.

use std::fmt;
use std::ops::Bound;
use std::sync::Arc;

const ORDER: usize = 32; // max keys per leaf; max children per internal node

#[derive(Debug, Clone)]
enum Node<K, V> {
    Leaf { keys: Vec<K>, vals: Vec<V> },
    Internal { seps: Vec<K>, children: Vec<Arc<Node<K, V>>> },
}

impl<K: Ord + Clone, V> Node<K, V> {
    fn new_leaf() -> Self {
        Node::Leaf { keys: Vec::new(), vals: Vec::new() }
    }

    fn is_full(&self) -> bool {
        match self {
            Node::Leaf { keys, .. } => keys.len() >= ORDER,
            Node::Internal { children, .. } => children.len() >= ORDER,
        }
    }
}

/// An ordered map backed by a from-scratch B+-tree.
///
/// Supports point lookups, ordered range scans over arbitrary
/// [`Bound`]s, replacement inserts and removal.
///
/// # Examples
///
/// ```
/// use propeller_index::BPlusTree;
///
/// let mut tree = BPlusTree::new();
/// for i in 0..100u64 {
///     tree.insert(i, i * 2);
/// }
/// assert_eq!(tree.get(&40), Some(&80));
/// let in_range: Vec<u64> = tree.range(10..13).map(|(k, _)| *k).collect();
/// assert_eq!(in_range, vec![10, 11, 12]);
/// ```
pub struct BPlusTree<K, V> {
    root: Arc<Node<K, V>>,
    len: usize,
}

/// O(1): clones share every node until one side mutates (path-copy).
impl<K, V> Clone for BPlusTree<K, V> {
    fn clone(&self) -> Self {
        BPlusTree { root: Arc::clone(&self.root), len: self.len }
    }
}

impl<K: Ord + Clone, V> Default for BPlusTree<K, V> {
    fn default() -> Self {
        BPlusTree::new()
    }
}

impl<K: Ord + Clone, V> BPlusTree<K, V> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        BPlusTree { root: Arc::new(Node::new_leaf()), len: 0 }
    }

    /// Number of key–value entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (1 for a lone leaf). The paper's analytic disk
    /// cost model charges one page read per level.
    pub fn depth(&self) -> usize {
        let mut d = 1;
        let mut node = self.root.as_ref();
        while let Node::Internal { children, .. } = node {
            node = children[0].as_ref();
            d += 1;
        }
        d
    }

    /// Looks up `key`. Accepts any borrowed form of the key type (e.g.
    /// `&str` against `String` keys), like `std::collections::BTreeMap`.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: std::borrow::Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut node = self.root.as_ref();
        loop {
            match node {
                Node::Leaf { keys, vals } => {
                    return keys.binary_search_by(|x| x.borrow().cmp(key)).ok().map(|i| &vals[i]);
                }
                Node::Internal { seps, children } => {
                    let i = seps.partition_point(|sep| sep.borrow() <= key);
                    node = children[i].as_ref();
                }
            }
        }
    }

    /// A point-lookup cursor for resolving a run of (mostly) ascending
    /// keys: see [`LeafCursor`].
    pub fn cursor(&self) -> LeafCursor<'_, K, V> {
        let mut cursor = LeafCursor { root: &self.root, keys: &[], vals: &[], lo: None, hi: None };
        cursor.descend(None);
        cursor
    }

    /// Returns `true` when `key` is present.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: std::borrow::Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.get(key).is_some()
    }

    /// Iterates over entries with keys in `range`, in ascending key order.
    pub fn range<R>(&self, range: R) -> Range<'_, K, V>
    where
        R: std::ops::RangeBounds<K>,
    {
        let (lo, hi) = (range.start_bound().cloned(), range.end_bound().cloned());
        let mut iter = Range { stack: Vec::new(), lo, hi };
        iter.push_node(&self.root);
        iter
    }

    /// Iterates over entries with keys in `range`, in *descending* key
    /// order. This is what lets an ordered scan serve `ORDER BY attr DESC
    /// LIMIT k` by walking the index from the top and stopping after `k`
    /// admitted hits instead of materializing the whole range.
    pub fn range_rev<R>(&self, range: R) -> RangeRev<'_, K, V>
    where
        R: std::ops::RangeBounds<K>,
    {
        let (lo, hi) = (range.start_bound().cloned(), range.end_bound().cloned());
        let mut iter = RangeRev { stack: Vec::new(), lo, hi };
        iter.push_node(&self.root);
        iter
    }

    /// Iterates over all entries in ascending key order.
    pub fn iter(&self) -> Range<'_, K, V> {
        self.range(..)
    }
}

// Mutators path-copy shared nodes, so they need `V: Clone` (a spine clone
// clones the values sitting in the touched leaf).
impl<K: Ord + Clone, V: Clone> BPlusTree<K, V> {
    /// Inserts `key → value`, returning the previous value if the key was
    /// already present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if self.root.is_full() {
            // Split the root: lift a new internal node above it.
            let old_root = std::mem::replace(&mut self.root, Arc::new(Node::new_leaf()));
            let mut children = vec![old_root];
            let mut seps = Vec::new();
            Self::split_child(&mut seps, &mut children, 0, &key);
            self.root = Arc::new(Node::Internal { seps, children });
        }
        let replaced = Self::insert_nonfull(Arc::make_mut(&mut self.root), key, value);
        self.len += usize::from(replaced.is_none());
        replaced
    }

    /// Splits the full `children[i]` before `key` descends into it (the
    /// split rule is in the module doc).
    fn split_child(seps: &mut Vec<K>, children: &mut Vec<Arc<Node<K, V>>>, i: usize, key: &K) {
        let (sep, right) = match Arc::make_mut(&mut children[i]) {
            Node::Leaf { keys, vals } => {
                let keep = if keys.last() < Some(key) { ORDER - 1 } else { ORDER / 2 };
                let rk = keys.split_off(keep);
                let rv = vals.split_off(keep);
                let sep = rk[0].clone();
                (sep, Node::Leaf { keys: rk, vals: rv })
            }
            Node::Internal { seps: ck, children: cc } => {
                let keep = if ck.last() <= Some(key) { ORDER - 1 } else { ORDER / 2 };
                // Promote the separator between the halves; it no longer
                // lives below.
                let rk = ck.split_off(keep);
                let sep = ck.pop().expect("internal node has separators");
                let rc = cc.split_off(keep);
                (sep, Node::Internal { seps: rk, children: rc })
            }
        };
        seps.insert(i, sep);
        children.insert(i + 1, Arc::new(right));
    }

    fn insert_nonfull(node: &mut Node<K, V>, key: K, value: V) -> Option<V> {
        match node {
            Node::Leaf { keys, vals } => match keys.binary_search(&key) {
                Ok(i) => Some(std::mem::replace(&mut vals[i], value)),
                Err(i) => {
                    keys.insert(i, key);
                    vals.insert(i, value);
                    None
                }
            },
            Node::Internal { seps, children } => {
                let mut i = seps.partition_point(|sep| *sep <= key);
                if children[i].is_full() {
                    Self::split_child(seps, children, i, &key);
                    if seps[i] <= key {
                        i += 1;
                    }
                }
                Self::insert_nonfull(Arc::make_mut(&mut children[i]), key, value)
            }
        }
    }

    /// Mutable lookup. Path-copies the spine down to the entry even when
    /// the tree is shared, so the returned reference is exclusively owned.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: std::borrow::Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut node = Arc::make_mut(&mut self.root);
        loop {
            match node {
                Node::Leaf { keys, vals } => {
                    return keys
                        .binary_search_by(|x| x.borrow().cmp(key))
                        .ok()
                        .map(|i| &mut vals[i]);
                }
                Node::Internal { seps, children } => {
                    let i = seps.partition_point(|sep| sep.borrow() <= key);
                    node = Arc::make_mut(&mut children[i]);
                }
            }
        }
    }

    /// Removes `key`, returning its value. Nodes left empty are unlinked
    /// (see the module doc); lookups and scans stay correct.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: std::borrow::Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let (removed, _) = Self::remove_below(Arc::make_mut(&mut self.root), key)?;
        self.len -= 1;
        while let Node::Internal { children, .. } = self.root.as_ref() {
            self.root = match children.as_slice() {
                [] => Arc::new(Node::new_leaf()),
                [only] => Arc::clone(only),
                _ => break,
            };
        }
        Some(removed)
    }

    /// Removes `key` below `node`, returning its value and whether `node`
    /// is left empty. A child the removal empties leaves with the
    /// separator before it (after it, for the first child): the
    /// neighbour's key range widens over a range that holds no key.
    fn remove_below<Q>(node: &mut Node<K, V>, key: &Q) -> Option<(V, bool)>
    where
        K: std::borrow::Borrow<Q>,
        Q: Ord + ?Sized,
    {
        match node {
            Node::Leaf { keys, vals } => {
                let i = keys.binary_search_by(|x| x.borrow().cmp(key)).ok()?;
                keys.remove(i);
                Some((vals.remove(i), keys.is_empty()))
            }
            Node::Internal { seps, children } => {
                let i = seps.partition_point(|sep| sep.borrow() <= key);
                let (removed, emptied) = Self::remove_below(Arc::make_mut(&mut children[i]), key)?;
                if emptied {
                    children.remove(i);
                    if !seps.is_empty() {
                        seps.remove(i.saturating_sub(1));
                    }
                }
                Some((removed, children.is_empty()))
            }
        }
    }
}

/// A point-lookup cursor over a [`BPlusTree`] that remembers the leaf its
/// last lookup landed in, together with the separator keys fencing that
/// leaf. The next lookup is answered from the same leaf while its key
/// falls inside the fence and re-descends from the root only when it does
/// not — so resolving a sorted run of keys costs one descent per leaf
/// touched instead of one per key. Every key order returns exactly what
/// [`BPlusTree::get`] returns; only ascending runs are cheaper.
pub struct LeafCursor<'a, K, V> {
    root: &'a Node<K, V>,
    keys: &'a [K],
    vals: &'a [V],
    /// The current leaf holds exactly the tree's keys in `[lo, hi)`
    /// (`None` = unbounded): the tightest separators on the path to it.
    /// The cursor borrows the tree, so no removal can unlink a leaf or
    /// drop a separator under it.
    lo: Option<&'a K>,
    hi: Option<&'a K>,
}

impl<'a, K: Ord, V> LeafCursor<'a, K, V> {
    /// Looks up `key`, moving to its leaf if the current one cannot hold it.
    pub fn get(&mut self, key: &K) -> Option<&'a V> {
        let inside = self.lo.is_none_or(|lo| lo <= key) && self.hi.is_none_or(|hi| key < hi);
        if !inside {
            self.descend(Some(key));
        }
        self.keys.binary_search(key).ok().map(|i| &self.vals[i])
    }

    /// Moves to the leaf covering `key` (the leftmost leaf for `None`),
    /// recording the separators that fence it.
    fn descend(&mut self, key: Option<&K>) {
        (self.lo, self.hi) = (None, None);
        let mut node = self.root;
        loop {
            match node {
                Node::Leaf { keys, vals } => {
                    (self.keys, self.vals) = (keys, vals);
                    return;
                }
                Node::Internal { seps, children } => {
                    let i = key.map_or(0, |key| seps.partition_point(|sep| sep <= key));
                    if i > 0 {
                        self.lo = Some(&seps[i - 1]);
                    }
                    if i < seps.len() {
                        self.hi = Some(&seps[i]);
                    }
                    node = &children[i];
                }
            }
        }
    }
}

/// Ascending iterator over a key range of a [`BPlusTree`].
pub struct Range<'a, K, V> {
    /// Explicit DFS stack: (node, child/entry position).
    stack: Vec<(&'a Node<K, V>, usize)>,
    lo: Bound<K>,
    hi: Bound<K>,
}

impl<'a, K: Ord + Clone, V> Range<'a, K, V> {
    fn push_node(&mut self, node: &'a Node<K, V>) {
        match node {
            Node::Leaf { keys, .. } => {
                let start = match &self.lo {
                    Bound::Included(k) => keys.partition_point(|x| x < k),
                    Bound::Excluded(k) => keys.partition_point(|x| x <= k),
                    Bound::Unbounded => 0,
                };
                self.stack.push((node, start));
            }
            Node::Internal { seps, .. } => {
                let start = match &self.lo {
                    Bound::Included(k) | Bound::Excluded(k) => seps.partition_point(|sep| sep <= k),
                    Bound::Unbounded => 0,
                };
                self.stack.push((node, start));
            }
        }
    }

    fn above_hi(&self, key: &K) -> bool {
        match &self.hi {
            Bound::Included(k) => key > k,
            Bound::Excluded(k) => key >= k,
            Bound::Unbounded => false,
        }
    }
}

impl<'a, K: Ord + Clone, V> Iterator for Range<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            // Copy the node reference out of the stack frame so it carries
            // the full 'a lifetime, then advance the frame's cursor.
            let (node, i) = {
                let (node, pos) = self.stack.last_mut()?;
                let node: &'a Node<K, V> = node;
                let i = *pos;
                *pos += 1;
                (node, i)
            };
            match node {
                Node::Leaf { keys, vals } => {
                    if i < keys.len() {
                        let key = &keys[i];
                        if self.above_hi(key) {
                            self.stack.clear();
                            return None;
                        }
                        return Some((key, &vals[i]));
                    }
                    self.stack.pop();
                }
                Node::Internal { seps, children } => {
                    if i < children.len() {
                        // Prune subtrees entirely above the upper bound: the
                        // separator left of child i is a lower bound for it.
                        if i > 0 && self.above_hi(&seps[i - 1]) {
                            self.stack.clear();
                            return None;
                        }
                        self.push_node(children[i].as_ref());
                    } else {
                        self.stack.pop();
                    }
                }
            }
        }
    }
}

/// Descending iterator over a key range of a [`BPlusTree`].
pub struct RangeRev<'a, K, V> {
    /// Explicit DFS stack: (node, number of entries/children still
    /// unvisited from the left — the next visit is position `pos - 1`).
    stack: Vec<(&'a Node<K, V>, usize)>,
    lo: Bound<K>,
    hi: Bound<K>,
}

impl<'a, K: Ord + Clone, V> RangeRev<'a, K, V> {
    fn push_node(&mut self, node: &'a Node<K, V>) {
        match node {
            Node::Leaf { keys, .. } => {
                // One past the last in-range entry.
                let end = match &self.hi {
                    Bound::Included(k) => keys.partition_point(|x| x <= k),
                    Bound::Excluded(k) => keys.partition_point(|x| x < k),
                    Bound::Unbounded => keys.len(),
                };
                self.stack.push((node, end));
            }
            Node::Internal { seps, children } => {
                // One past the rightmost child that can hold in-range keys
                // (child i covers keys in [seps[i-1], seps[i])).
                let end = match &self.hi {
                    Bound::Included(k) | Bound::Excluded(k) => {
                        seps.partition_point(|sep| sep <= k) + 1
                    }
                    Bound::Unbounded => children.len(),
                };
                self.stack.push((node, end.min(children.len())));
            }
        }
    }

    fn below_lo(&self, key: &K) -> bool {
        match &self.lo {
            Bound::Included(k) => key < k,
            Bound::Excluded(k) => key <= k,
            Bound::Unbounded => false,
        }
    }
}

impl<'a, K: Ord + Clone, V> Iterator for RangeRev<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let (node, i) = {
                let (node, pos) = self.stack.last_mut()?;
                let node: &'a Node<K, V> = node;
                if *pos == 0 {
                    self.stack.pop();
                    continue;
                }
                *pos -= 1;
                let i = *pos;
                (node, i)
            };
            match node {
                Node::Leaf { keys, vals } => {
                    let key = &keys[i];
                    if self.below_lo(key) {
                        self.stack.clear();
                        return None;
                    }
                    return Some((key, &vals[i]));
                }
                Node::Internal { seps, children } => {
                    // Prune subtrees entirely below the lower bound: child
                    // i holds only keys < seps[i], so once that ceiling is
                    // below `lo`, every remaining (smaller) child is too.
                    if i < seps.len() && self.below_lo(&seps[i]) {
                        self.stack.clear();
                        return None;
                    }
                    self.push_node(children[i].as_ref());
                }
            }
        }
    }
}

impl<K: Ord + Clone + fmt::Debug, V: fmt::Debug> fmt::Debug for BPlusTree<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BPlusTree").field("len", &self.len).field("depth", &self.depth()).finish()
    }
}

impl<K: Ord + Clone, V: Clone> FromIterator<(K, V)> for BPlusTree<K, V> {
    fn from_iter<T: IntoIterator<Item = (K, V)>>(iter: T) -> Self {
        let mut tree = BPlusTree::new();
        for (k, v) in iter {
            tree.insert(k, v);
        }
        tree
    }
}

impl<K: Ord + Clone, V: Clone> Extend<(K, V)> for BPlusTree<K, V> {
    fn extend<T: IntoIterator<Item = (K, V)>>(&mut self, iter: T) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn insert_get_roundtrip() {
        let mut t = BPlusTree::new();
        for i in 0..1000u32 {
            assert_eq!(t.insert(i, i + 1), None);
        }
        for i in 0..1000u32 {
            assert_eq!(t.get(&i), Some(&(i + 1)));
        }
        assert_eq!(t.get(&1000), None);
        assert_eq!(t.len(), 1000);
    }

    #[test]
    fn insert_replaces() {
        let mut t = BPlusTree::new();
        assert_eq!(t.insert(5, "a"), None);
        assert_eq!(t.insert(5, "b"), Some("a"));
        assert_eq!(t.get(&5), Some(&"b"));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn reverse_and_shuffled_inserts() {
        let mut t = BPlusTree::new();
        for i in (0..500u32).rev() {
            t.insert(i, i);
        }
        let collected: Vec<u32> = t.iter().map(|(k, _)| *k).collect();
        assert_eq!(collected, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn depth_grows_logarithmically() {
        let mut t = BPlusTree::new();
        for i in 0..10_000u32 {
            t.insert(i, ());
        }
        let d = t.depth();
        assert!((3..=5).contains(&d), "depth {d}");
    }

    #[test]
    fn range_inclusive_exclusive_bounds() {
        let mut t = BPlusTree::new();
        for i in 0..100u32 {
            t.insert(i, ());
        }
        let v: Vec<u32> = t.range(10..20).map(|(k, _)| *k).collect();
        assert_eq!(v, (10..20).collect::<Vec<_>>());
        let v: Vec<u32> = t.range(10..=20).map(|(k, _)| *k).collect();
        assert_eq!(v, (10..=20).collect::<Vec<_>>());
        let v: Vec<u32> =
            t.range((Bound::Excluded(10), Bound::Unbounded)).map(|(k, _)| *k).collect();
        assert_eq!(v, (11..100).collect::<Vec<_>>());
        let v: Vec<u32> = t.range(..5).map(|(k, _)| *k).collect();
        assert_eq!(v, (0..5).collect::<Vec<_>>());
    }

    #[test]
    fn range_empty_and_out_of_bounds() {
        let mut t = BPlusTree::new();
        for i in 10..20u32 {
            t.insert(i, ());
        }
        assert_eq!(t.range(0..5).count(), 0);
        assert_eq!(t.range(25..30).count(), 0);
        assert_eq!(t.range(15..15).count(), 0);
    }

    #[test]
    fn remove_then_get() {
        let mut t = BPlusTree::new();
        for i in 0..2000u32 {
            t.insert(i, i);
        }
        for i in (0..2000).step_by(2) {
            assert_eq!(t.remove(&i), Some(i));
        }
        assert_eq!(t.len(), 1000);
        for i in 0..2000u32 {
            if i % 2 == 0 {
                assert_eq!(t.get(&i), None);
            } else {
                assert_eq!(t.get(&i), Some(&i));
            }
        }
        assert_eq!(t.remove(&0), None);
    }

    #[test]
    fn scan_after_heavy_removal() {
        let mut t = BPlusTree::new();
        for i in 0..1000u32 {
            t.insert(i, ());
        }
        for i in 100..900 {
            t.remove(&i);
        }
        let keys: Vec<u32> = t.iter().map(|(k, _)| *k).collect();
        let expected: Vec<u32> = (0..100).chain(900..1000).collect();
        assert_eq!(keys, expected);
    }

    #[test]
    fn get_mut_modifies() {
        let mut t = BPlusTree::new();
        t.insert("k", 1);
        *t.get_mut(&"k").unwrap() += 10;
        assert_eq!(t.get(&"k"), Some(&11));
        assert!(t.get_mut(&"missing").is_none());
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut t: BPlusTree<u32, u32> = (0..10).map(|i| (i, i)).collect();
        t.extend((10..20).map(|i| (i, i)));
        assert_eq!(t.len(), 20);
        assert!(t.contains_key(&15));
    }

    #[test]
    fn matches_btreemap_on_random_ops() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let mut ours = BPlusTree::new();
        let mut reference = BTreeMap::new();
        for _ in 0..20_000 {
            let k: u16 = rng.gen_range(0..2000);
            match rng.gen_range(0..10) {
                0..=5 => {
                    let v: u32 = rng.gen();
                    assert_eq!(ours.insert(k, v), reference.insert(k, v));
                }
                6..=7 => {
                    assert_eq!(ours.remove(&k), reference.remove(&k));
                }
                8 => {
                    assert_eq!(ours.get(&k), reference.get(&k));
                }
                _ => {
                    let hi = k.saturating_add(rng.gen_range(0..200));
                    let ours_range: Vec<(u16, u32)> =
                        ours.range(k..hi).map(|(a, b)| (*a, *b)).collect();
                    let ref_range: Vec<(u16, u32)> =
                        reference.range(k..hi).map(|(a, b)| (*a, *b)).collect();
                    assert_eq!(ours_range, ref_range);
                }
            }
        }
        assert_eq!(ours.len(), reference.len());
        let all: Vec<(u16, u32)> = ours.iter().map(|(a, b)| (*a, *b)).collect();
        let expected: Vec<(u16, u32)> = reference.iter().map(|(a, b)| (*a, *b)).collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn range_rev_mirrors_forward_ranges() {
        let mut t = BPlusTree::new();
        for i in 0..1000u32 {
            t.insert(i, i * 2);
        }
        let cases: Vec<(Bound<u32>, Bound<u32>)> = vec![
            (Bound::Unbounded, Bound::Unbounded),
            (Bound::Included(10), Bound::Excluded(20)),
            (Bound::Included(10), Bound::Included(20)),
            (Bound::Excluded(10), Bound::Unbounded),
            (Bound::Unbounded, Bound::Excluded(5)),
            (Bound::Included(500), Bound::Included(500)),
            (Bound::Included(20), Bound::Excluded(20)),
            (Bound::Included(2000), Bound::Unbounded),
        ];
        for (lo, hi) in cases {
            let mut fwd: Vec<(u32, u32)> = t.range((lo, hi)).map(|(k, v)| (*k, *v)).collect();
            fwd.reverse();
            let rev: Vec<(u32, u32)> = t.range_rev((lo, hi)).map(|(k, v)| (*k, *v)).collect();
            assert_eq!(rev, fwd, "bounds ({lo:?}, {hi:?})");
        }
    }

    #[test]
    fn range_rev_matches_btreemap_on_random_ops() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        let mut ours = BPlusTree::new();
        let mut reference = BTreeMap::new();
        for _ in 0..10_000 {
            let k: u16 = rng.gen_range(0..2000);
            match rng.gen_range(0..8) {
                0..=4 => {
                    let v: u32 = rng.gen();
                    ours.insert(k, v);
                    reference.insert(k, v);
                }
                5 => {
                    ours.remove(&k);
                    reference.remove(&k);
                }
                _ => {
                    let hi = k.saturating_add(rng.gen_range(0..300));
                    let got: Vec<(u16, u32)> =
                        ours.range_rev(k..hi).map(|(a, b)| (*a, *b)).collect();
                    let expected: Vec<(u16, u32)> =
                        reference.range(k..hi).rev().map(|(a, b)| (*a, *b)).collect();
                    assert_eq!(got, expected, "range {k}..{hi}");
                }
            }
        }
    }

    #[test]
    fn range_rev_after_heavy_removal() {
        let mut t = BPlusTree::new();
        for i in 0..1000u32 {
            t.insert(i, ());
        }
        for i in 100..900 {
            t.remove(&i);
        }
        let keys: Vec<u32> = t.range_rev(..).map(|(k, _)| *k).collect();
        let expected: Vec<u32> = (0..100).chain(900..1000).rev().collect();
        assert_eq!(keys, expected);
    }

    #[test]
    fn clones_are_snapshots_under_further_mutation() {
        let mut t = BPlusTree::new();
        for i in 0..5000u32 {
            t.insert(i, i);
        }
        let snap = t.clone();
        for i in 0..5000u32 {
            if i % 3 == 0 {
                t.remove(&i);
            } else {
                t.insert(i, i + 1);
            }
        }
        for i in 5000..6000u32 {
            t.insert(i, i);
        }
        // The clone still reads exactly the pre-mutation state.
        assert_eq!(snap.len(), 5000);
        for i in 0..5000u32 {
            assert_eq!(snap.get(&i), Some(&i), "snapshot entry {i} changed under mutation");
        }
        assert_eq!(snap.get(&5500), None);
        let all: Vec<u32> = snap.iter().map(|(k, _)| *k).collect();
        assert_eq!(all, (0..5000).collect::<Vec<_>>());
        // And the mutated side sees its own writes.
        assert_eq!(t.get(&0), None);
        assert_eq!(t.get(&1), Some(&2));
        assert_eq!(t.get(&5500), Some(&5500));
    }

    /// Every key sequence must read exactly what `get` reads, whatever
    /// leaf the cursor stood on before.
    fn assert_cursor_matches_get(tree: &BPlusTree<u32, u32>, keys: impl Iterator<Item = u32>) {
        let mut cursor = tree.cursor();
        for key in keys {
            assert_eq!(cursor.get(&key), tree.get(&key), "key {key}");
        }
    }

    #[test]
    fn cursor_matches_get_on_any_key_sequence() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        // Even keys only, four levels deep, with a lazily emptied stretch
        // in the middle (leaves that hold nothing but keep their fences).
        let mut t = BPlusTree::new();
        for i in 0..40_000u32 {
            t.insert(i * 2, i);
        }
        for i in 9_000..11_000u32 {
            t.remove(&(i * 2));
        }
        assert!(t.depth() >= 3, "depth {}", t.depth());
        // Ascending, every other key missing; repeats; descending; random.
        assert_cursor_matches_get(&t, 0..80_010);
        assert_cursor_matches_get(&t, (0..3_000).flat_map(|k| [k, k, k + 1, k]));
        assert_cursor_matches_get(&t, (0..80_010).rev().step_by(7));
        let mut rng = StdRng::seed_from_u64(5);
        assert_cursor_matches_get(&t, (0..20_000).map(|_| rng.gen_range(0..90_000)));
        // Sorted runs that start over, as consecutive posting lists do.
        assert_cursor_matches_get(&t, (0..40).flat_map(|run| (run * 31..80_000).step_by(997)));
        assert_cursor_matches_get(&BPlusTree::new(), 0..10); // a lone empty leaf
    }

    #[test]
    fn cursor_on_a_pinned_tree_ignores_mutations_of_its_clone() {
        let mut t = BPlusTree::new();
        for i in 0..5_000u32 {
            t.insert(i, i);
        }
        let pinned = t.clone();
        let mut cursor = pinned.cursor();
        assert_eq!(cursor.get(&100), Some(&100));
        // Path-copying mutations of the clone, under and around the leaf
        // the cursor stands on, while the cursor is live.
        for i in 0..5_000u32 {
            if i % 3 == 0 {
                t.remove(&i);
            } else {
                t.insert(i, i + 1);
            }
        }
        for i in 5_000..6_000u32 {
            t.insert(i, i);
        }
        for i in (0..5_000u32).chain([101, 100, 4_999, 0]) {
            assert_eq!(cursor.get(&i), Some(&i), "pinned entry {i} changed under mutation");
        }
        assert_eq!(cursor.get(&5_500), None);
        assert_cursor_matches_get(&t, 0..6_100);
    }

    #[test]
    fn string_keys() {
        let mut t = BPlusTree::new();
        for w in ["pear", "apple", "fig", "plum", "kiwi"] {
            t.insert(w.to_owned(), w.len());
        }
        let keys: Vec<String> = t.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(keys, vec!["apple", "fig", "kiwi", "pear", "plum"]);
        let mid: Vec<String> =
            t.range("b".to_owned().."l".to_owned()).map(|(k, _)| k.clone()).collect();
        assert_eq!(mid, vec!["fig", "kiwi"]);
    }

    /// The key counts of the tree's leaves, left to right.
    fn leaf_sizes<K, V>(tree: &BPlusTree<K, V>) -> Vec<usize> {
        fn walk<K, V>(node: &Node<K, V>, out: &mut Vec<usize>) {
            match node {
                Node::Leaf { keys, .. } => out.push(keys.len()),
                Node::Internal { children, .. } => children.iter().for_each(|c| walk(c, out)),
            }
        }
        let mut out = Vec::new();
        walk(&tree.root, &mut out);
        out
    }

    #[test]
    fn removals_unlink_the_leaves_they_empty() {
        let mut t = BPlusTree::new();
        let mut model = BTreeMap::new();
        for i in 0..10_000u32 {
            t.insert(i, i);
            model.insert(i, i);
        }
        let pinned = t.clone();
        for i in (0..10_000u32).filter(|i| !(5_000..5_010).contains(i)) {
            assert_eq!(t.remove(&i), model.remove(&i));
        }
        assert!(leaf_sizes(&t).len() <= 2, "{} leaves left for 10 keys", leaf_sizes(&t).len());
        assert_eq!(t.len(), 10);
        for (lo, hi) in [(0, 10_000), (5_003, 5_007), (5_009, 9_000), (0, 5_001)] {
            let got: Vec<u32> = t.range(lo..hi).map(|(k, _)| *k).collect();
            assert_eq!(got, model.range(lo..hi).map(|(k, _)| *k).collect::<Vec<_>>());
            let rev: Vec<u32> = t.range_rev(lo..hi).map(|(k, _)| *k).collect();
            assert_eq!(rev, model.range(lo..hi).rev().map(|(k, _)| *k).collect::<Vec<_>>());
        }
        assert_eq!(pinned.len(), 10_000, "a clone taken before the removals reads unchanged");
        assert_eq!(pinned.iter().count(), 10_000);
        for i in 5_000..5_010u32 {
            t.remove(&i);
        }
        assert!(t.is_empty() && t.depth() == 1 && t.iter().next().is_none());
        t.insert(3, 3);
        assert_eq!(t.get(&3), Some(&3));
    }

    #[test]
    fn ascending_inserts_leave_full_leaves() {
        let mut t = BPlusTree::new();
        for i in 0..10_000u32 {
            t.insert(i, i);
        }
        let sizes = leaf_sizes(&t);
        let fill = 10_000.0 / (sizes.len() * ORDER) as f64;
        assert!(fill >= 0.9, "leaves {:.0}% full over {} leaves", fill * 100.0, sizes.len());
        assert_eq!(t.iter().map(|(k, _)| *k).collect::<Vec<_>>(), (0..10_000).collect::<Vec<_>>());
        assert!((2..=4).contains(&t.depth()), "depth {}", t.depth());
    }

    #[test]
    fn a_clone_taken_before_an_append_split_reads_unchanged() {
        let mut t = BPlusTree::new();
        // Enough keys that the next appends split the rightmost leaf and,
        // further on, the rightmost internal node.
        for i in 0..(ORDER * ORDER) as u32 {
            t.insert(i, i);
        }
        let pinned = t.clone();
        let before = leaf_sizes(&pinned);
        for i in (ORDER * ORDER) as u32..(3 * ORDER * ORDER) as u32 {
            t.insert(i, i + 1);
        }
        t.insert(7, 0);
        assert_eq!(leaf_sizes(&pinned), before);
        assert_eq!(pinned.len(), ORDER * ORDER);
        let all: Vec<(u32, u32)> = pinned.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(all, (0..(ORDER * ORDER) as u32).map(|i| (i, i)).collect::<Vec<_>>());
        let rev: Vec<u32> = pinned.range_rev(..).map(|(k, _)| *k).collect();
        assert_eq!(rev, (0..(ORDER * ORDER) as u32).rev().collect::<Vec<_>>());
        assert_eq!(t.get(&7), Some(&0));
        assert_eq!(t.get(&((3 * ORDER * ORDER) as u32 - 1)), Some(&((3 * ORDER * ORDER) as u32)));
        assert_eq!(t.len(), 3 * ORDER * ORDER);
    }

    #[test]
    fn ascending_runs_mixed_with_middle_inserts_and_removes_match_btreemap() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let mut ours = BPlusTree::new();
        let mut reference = BTreeMap::new();
        let mut next = 0u32; // the head of the ascending run
        for step in 0..30_000u32 {
            match rng.gen_range(0..10) {
                // Appends past every key, in runs.
                0..=4 => {
                    for _ in 0..rng.gen_range(1..40) {
                        next += rng.gen_range(1..3);
                        assert_eq!(ours.insert(next, step), reference.insert(next, step));
                    }
                }
                // Inserts and removes anywhere below the head.
                5 | 6 => {
                    let k = rng.gen_range(0..=next);
                    assert_eq!(ours.insert(k, step), reference.insert(k, step));
                }
                7 => {
                    let k = rng.gen_range(0..=next);
                    assert_eq!(ours.remove(&k), reference.remove(&k));
                }
                // Ranges in both directions, often reaching the head.
                _ => {
                    let lo = rng.gen_range(0..=next);
                    let hi = lo + rng.gen_range(0..400);
                    let fwd: Vec<(u32, u32)> = ours.range(lo..hi).map(|(a, b)| (*a, *b)).collect();
                    let want: Vec<(u32, u32)> =
                        reference.range(lo..hi).map(|(a, b)| (*a, *b)).collect();
                    assert_eq!(fwd, want, "range {lo}..{hi}");
                    let rev: Vec<(u32, u32)> =
                        ours.range_rev(lo..=hi).map(|(a, b)| (*a, *b)).collect();
                    let want: Vec<(u32, u32)> =
                        reference.range(lo..=hi).rev().map(|(a, b)| (*a, *b)).collect();
                    assert_eq!(rev, want, "range_rev {lo}..={hi}");
                }
            }
        }
        assert_eq!(ours.len(), reference.len());
        let all: Vec<(u32, u32)> = ours.iter().map(|(a, b)| (*a, *b)).collect();
        assert_eq!(all, reference.iter().map(|(a, b)| (*a, *b)).collect::<Vec<_>>());
        let mut cursor = ours.cursor();
        for k in 0..=next {
            assert_eq!(cursor.get(&k), reference.get(&k), "cursor key {k}");
        }
    }
}
