//! A from-scratch bucket K-D tree over file attributes.
//!
//! The third index kind Propeller supports per ACG (paper §IV). Points are
//! `k`-dimensional projections of attribute values (see
//! [`propeller_types::Value::axis_projection`]); payloads are [`FileId`]s.
//! Axis-aligned range queries answer multi-attribute predicates such as
//! `size > 1 GB ∧ mtime < 1 day` in one traversal.
//!
//! **Layout.** Points live in *leaf buckets* of up to 64, stored
//! contiguously (one coordinate run, one payload run), under a small array
//! of split nodes `(axis, value, pivot id)`. A box query descends the
//! splits whose half-spaces meet the box and scans each leaf it reaches.
//!
//! **Copy-on-write.** The splits sit in one `Arc<Vec<_>>` and the leaves
//! behind one `Arc<Vec<Arc<Leaf>>>`, so cloning a tree (and an epoch) is
//! O(1). The first mutation after a clone copies those two arrays of small
//! records; an insert or remove then copies only the leaf it touches. A
//! remove is a swap-remove inside that leaf: there are no tombstones.
//!
//! **Routing** is lexicographic on `(coordinate, payload)`: a key goes left
//! of a split when it sorts below `(value, pivot)`. The payload tie-break
//! gives *identical* points (thousands of empty files sharing one mtime)
//! distinct keys, so they split into buckets like any other data.
//!
//! **Splits and balance.** An overflowing leaf splits locally at its median
//! key, on axis `depth mod k`. K-D trees admit no rotations, so balance is
//! kept **scapegoat style at bucket granularity**: a split landing deeper
//! than the α-height bound (`log₃⁄₂` of the leaf count, α = 2/3) rebuilds,
//! with balanced median splits, the lowest ancestor on its path one of
//! whose children holds more than α of its leaves: amortized O(log n) per
//! insert even for fully monotone streams. Removes never merge leaves, so
//! churn can leave them sparse; once leaf slots outnumber `2·⌈live/32⌉ + 8`
//! the whole tree is rebuilt, which takes Ω(live) further ops to recur.

use std::sync::Arc;

use propeller_types::FileId;

/// Points a leaf holds before it splits (unless more than half of them
/// share one routing key).
const LEAF_CAP: usize = 64;
/// A build splits every run longer than 1.5× this: built leaves hold 24–48
/// points, split ones about 32.
const LEAF_TARGET: usize = 32;
/// The `c` of the sparse-tree bound `2·⌈live/32⌉ + c`.
const LEAF_SLACK: usize = 8;
/// Weight-balance ratio α = 2/3: a scapegoat is a node one of whose
/// children holds more than α of its leaves.
const ALPHA_NUM: usize = 2;
const ALPHA_DEN: usize = 3;
/// The tag bit of a link naming a leaf slot; untagged links name splits.
const LEAF: u32 = 1 << 31;

/// Keys below `(value, pivot)` on `axis` live under `left`, the rest
/// under `right`.
#[derive(Debug, Clone, Copy)]
struct Split {
    axis: usize,
    value: f64,
    pivot: FileId,
    left: u32,
    right: u32,
}

/// A bucket: point `i` is `coords[i·dims..(i+1)·dims]`, its payload
/// `ids[i]`.
#[derive(Debug, Clone, Default)]
struct Leaf {
    coords: Vec<f64>,
    ids: Vec<FileId>,
}

impl Leaf {
    fn point(&self, i: usize, dims: usize) -> &[f64] {
        &self.coords[i * dims..][..dims]
    }

    fn push(&mut self, point: &[f64], payload: FileId) {
        self.coords.extend_from_slice(point);
        self.ids.push(payload);
    }

    fn append(&mut self, other: &Leaf) {
        self.coords.extend_from_slice(&other.coords);
        self.ids.extend_from_slice(&other.ids);
    }

    fn entries(&self, dims: usize) -> impl Iterator<Item = (&[f64], FileId)> {
        self.coords.chunks_exact(dims).zip(self.ids.iter().copied())
    }

    /// Orders `order` (indices into this leaf) around its median key on
    /// `axis` and returns the split index `s`: every key in `order[..s]`
    /// sorts below every key in `order[s..]`, whose least is `order[s]`'s.
    /// `None` when the keys up to the median are all equal.
    fn split_point(&self, dims: usize, axis: usize, order: &mut [u32]) -> Option<usize> {
        let key = |i: u32| (self.coords[i as usize * dims + axis], self.ids[i as usize]);
        let cmp = |a: &u32, b: &u32| {
            let (a, b) = (key(*a), key(*b));
            a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
        };
        let mid = order.len() / 2;
        order.select_nth_unstable_by(mid, cmp);
        // Keys equal to the median's may sit left of it: move them right.
        let mut s = mid;
        for i in (0..mid).rev() {
            if cmp(&order[i], &order[mid]).is_eq() {
                s -= 1;
                order.swap(i, s);
            }
        }
        (s > 0).then_some(s)
    }
}

/// The routing order every traversal shares: whether `(point[axis],
/// payload)` sorts below the split's `(value, pivot)`.
fn goes_left(point: &[f64], payload: FileId, split: &Split) -> bool {
    point[split.axis].total_cmp(&split.value).then(payload.cmp(&split.pivot)).is_lt()
}

/// Stores `item` in a freed slot of `items`, else appends it; returns the
/// slot.
fn put<T>(items: &mut Vec<T>, free: &mut Vec<u32>, item: T) -> u32 {
    let Some(slot) = free.pop() else {
        items.push(item);
        return (items.len() - 1) as u32;
    };
    items[slot as usize] = item;
    slot
}

/// Split-node and leaf slots a rebuild freed, for its build to reuse.
type Free = (Vec<u32>, Vec<u32>);

/// One point of a box query ([`KdTree::range_iter`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoxPoint {
    /// The point's payload.
    pub id: FileId,
    /// Whether the point lies strictly inside every bound of the box
    /// (`lo < p < hi` on each axis); `false` when it ties one.
    pub interior: bool,
}

/// A box query read as a plain id set: collecting its points drops the
/// interior flags.
impl FromIterator<BoxPoint> for Vec<FileId> {
    fn from_iter<I: IntoIterator<Item = BoxPoint>>(points: I) -> Self {
        points.into_iter().map(|p| p.id).collect()
    }
}

/// A `k`-dimensional tree mapping points to [`FileId`]s.
///
/// # Examples
///
/// ```
/// use propeller_index::{BoxPoint, KdTree};
/// use propeller_types::FileId;
///
/// let mut tree = KdTree::new(2); // (size, mtime)
/// tree.insert(&[100.0, 5.0], FileId::new(1));
/// tree.insert(&[900.0, 2.0], FileId::new(2));
/// tree.insert(&[500.0, 1.0], FileId::new(3));
///
/// // Files with size in [500, 1000] and mtime in [0, 3], by file id:
/// let mut hits: Vec<BoxPoint> = tree.range_iter(&[500.0, 0.0], &[1000.0, 3.0]).collect();
/// hits.sort_unstable_by_key(|p| p.id);
/// assert_eq!(hits, [
///     BoxPoint { id: FileId::new(2), interior: true },
///     BoxPoint { id: FileId::new(3), interior: false }, // on the size bound
/// ]);
/// ```
#[derive(Debug, Clone)]
pub struct KdTree {
    dims: usize,
    /// A split node, or a leaf (an empty tree is one empty leaf).
    root: u32,
    nodes: Arc<Vec<Split>>,
    /// Every leaf slot; the ones no subtree rebuild reused hold empty
    /// leaves until the next whole rebuild drops them.
    leaves: Arc<Vec<Arc<Leaf>>>,
    live: usize,
}

impl KdTree {
    /// Creates an empty tree over `dims` dimensions; panics if `dims` is 0.
    pub fn new(dims: usize) -> Self {
        Self::bulk_load(dims, Vec::new())
    }

    /// Number of live points.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns `true` when the tree holds no live points.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The α-height bound, in split nodes, over `leaves` leaf slots:
    /// `log_{3/2} n ≈ 1.71 log₂ n`, floored so tiny trees never thrash.
    fn depth_limit(leaves: usize) -> usize {
        let lg2 = (usize::BITS - leaves.max(1).leading_zeros()) as usize;
        (lg2 * 12 / 7).max(8)
    }

    /// The leaf slot `(point, payload)` routes to, calling `visit` on every
    /// split passed.
    fn descend(&self, point: &[f64], payload: FileId, mut visit: impl FnMut(u32)) -> usize {
        let mut link = self.root;
        while link & LEAF == 0 {
            visit(link);
            let n = &self.nodes[link as usize];
            link = if goes_left(point, payload, n) { n.left } else { n.right };
        }
        (link & !LEAF) as usize
    }

    /// Every link under `link`, itself included.
    fn links(&self, link: u32) -> impl Iterator<Item = u32> + '_ {
        let mut stack = vec![link];
        std::iter::from_fn(move || {
            let link = stack.pop()?;
            if link & LEAF == 0 {
                let n = &self.nodes[link as usize];
                stack.extend([n.right, n.left]);
            }
            Some(link)
        })
    }

    /// Inserts a point with its payload, copying only the routed leaf. An
    /// overflowing leaf splits; a split past the α-height bound rebuilds
    /// its scapegoat (see the module docs). Panics on a dimension mismatch.
    pub fn insert(&mut self, point: &[f64], payload: FileId) {
        assert_eq!(point.len(), self.dims, "point dimensionality mismatch");
        let slot = self.descend(point, payload, |_| {});
        let leaf = Arc::make_mut(&mut Arc::make_mut(&mut self.leaves)[slot]);
        leaf.push(point, payload);
        self.live += 1;
        if leaf.ids.len() > LEAF_CAP {
            let mut path = Vec::new();
            self.descend(point, payload, |node| path.push(node));
            let split = self.rebuild(&path, slot as u32 | LEAF);
            if split & LEAF == 0 && path.len() >= Self::depth_limit(self.leaves.len()) {
                self.rebalance(&path, split);
            }
            self.compact_if_sparse();
        }
    }

    /// Rebuilds the lowest ancestor on `path` (the ancestors of `link`,
    /// root first) one of whose children holds more than α of its leaves.
    fn rebalance(&mut self, path: &[u32], mut link: u32) {
        let weight = |link| self.links(link).filter(|l| l & LEAF != 0).count();
        let mut held = weight(link);
        for (depth, &node) in path.iter().enumerate().rev() {
            let n = self.nodes[node as usize];
            let total = held + weight(if n.left == link { n.right } else { n.left });
            if held * ALPHA_DEN > total * ALPHA_NUM {
                self.rebuild(&path[..depth], node);
                return;
            }
            (link, held) = (node, total);
        }
        // Unreachable by the α-height argument; a root rebuild is safe.
        self.rebuild(&[], self.root);
    }

    /// Removes one entry with exactly this point and payload. Returns
    /// `true` if found. Rebuilds the whole tree once its leaves have grown
    /// sparse (see the module docs).
    pub fn remove(&mut self, point: &[f64], payload: FileId) -> bool {
        assert_eq!(point.len(), self.dims, "point dimensionality mismatch");
        let (dims, slot) = (self.dims, self.descend(point, payload, |_| {}));
        let leaf = &self.leaves[slot];
        let Some(i) = leaf.entries(dims).position(|entry| entry == (point, payload)) else {
            return false;
        };
        let leaf = Arc::make_mut(&mut Arc::make_mut(&mut self.leaves)[slot]);
        leaf.ids.swap_remove(i);
        let last = leaf.ids.len() * dims;
        leaf.coords.copy_within(last.., i * dims);
        leaf.coords.truncate(last);
        self.live -= 1;
        self.compact_if_sparse();
        true
    }

    fn compact_if_sparse(&mut self) {
        if self.leaves.len() > 2 * self.live.div_ceil(LEAF_TARGET) + LEAF_SLACK {
            let mut pool = Leaf::default();
            self.leaves.iter().for_each(|leaf| pool.append(leaf));
            *self = Self::from_pool(self.dims, pool);
        }
    }

    /// A balanced tree over the points of `pool`.
    fn from_pool(dims: usize, pool: Leaf) -> Self {
        let live = pool.ids.len();
        let leaves = Arc::new(vec![Arc::new(pool)]);
        let mut tree = KdTree { dims, root: LEAF, nodes: Arc::default(), leaves, live };
        tree.rebuild(&[], LEAF);
        tree
    }

    /// Replaces the subtree at `link`, whose ancestors are `path` (root
    /// first), with a balanced build of its points in its own node and
    /// leaf slots, emptying the leaf slots left over. Returns its new link.
    fn rebuild(&mut self, path: &[u32], link: u32) -> u32 {
        let (mut free, mut pool): (Free, Leaf) = Default::default();
        for l in self.links(link) {
            if l & LEAF == 0 {
                free.0.push(l);
            } else {
                pool.append(&self.leaves[(l & !LEAF) as usize]);
                free.1.push(l & !LEAF);
            }
        }
        let mut order: Vec<u32> = (0..pool.ids.len() as u32).collect();
        let built = self.build(&pool, &mut order, path.len(), &mut free);
        let leaves = Arc::make_mut(&mut self.leaves);
        free.1.into_iter().for_each(|slot| leaves[slot as usize] = Arc::default());
        match path.last() {
            None => self.root = built,
            Some(&parent) => {
                let n = &mut Arc::make_mut(&mut self.nodes)[parent as usize];
                *if n.left == link { &mut n.left } else { &mut n.right } = built;
            }
        }
        built
    }

    /// Builds the points of `pool` that `order` names at `depth`, taking
    /// slots from `free` first; returns the link.
    fn build(&mut self, pool: &Leaf, order: &mut [u32], depth: usize, free: &mut Free) -> u32 {
        let (dims, axis) = (self.dims, depth % self.dims);
        if order.len() > LEAF_TARGET * 3 / 2 {
            if let Some(s) = pool.split_point(dims, axis, order) {
                let (low, high) = order.split_at_mut(s);
                let (value, pivot) =
                    (pool.point(high[0] as usize, dims)[axis], pool.ids[high[0] as usize]);
                let left = self.build(pool, low, depth + 1, free);
                let right = self.build(pool, high, depth + 1, free);
                let split = Split { axis, value, pivot, left, right };
                return put(Arc::make_mut(&mut self.nodes), &mut free.0, split);
            }
        }
        let mut coords = Vec::with_capacity(order.len() * dims);
        coords.extend(order.iter().flat_map(|&i| pool.point(i as usize, dims)));
        let leaf = Leaf { coords, ids: order.iter().map(|&i| pool.ids[i as usize]).collect() };
        LEAF | put(Arc::make_mut(&mut self.leaves), &mut free.1, Arc::new(leaf))
    }

    /// Lazily yields the live points that lie in the inclusive box
    /// `[lo, hi]`, in unspecified order, each with its payload and whether
    /// it lies strictly inside the box ([`BoxPoint::interior`]: the
    /// coordinates are at hand, so the flag costs no lookup). Collect into
    /// a `Vec<FileId>` for the plain id set. Panics on a dimension
    /// mismatch.
    pub fn range_iter<'a>(
        &'a self,
        lo: &'a [f64],
        hi: &'a [f64],
    ) -> impl Iterator<Item = BoxPoint> + 'a {
        assert_eq!(lo.len(), self.dims, "lower bound dimensionality mismatch");
        assert_eq!(hi.len(), self.dims, "upper bound dimensionality mismatch");
        let mut stack = vec![self.root];
        let leaves = std::iter::from_fn(move || loop {
            let link = stack.pop()?;
            if link & LEAF != 0 {
                return Some(&*self.leaves[(link & !LEAF) as usize]);
            }
            // Keys equal to `value` on the axis sit on EITHER side (the
            // payload breaks the tie), so both prunes keep equality.
            let n = &self.nodes[link as usize];
            if hi[n.axis] >= n.value {
                stack.push(n.right);
            }
            if lo[n.axis] <= n.value {
                stack.push(n.left);
            }
        });
        // `Some(interior)` for a point inside the box, `None` outside it.
        let place = move |p: &[f64]| {
            p.iter().zip(lo.iter().zip(hi)).try_fold(true, |interior, (p, (l, h))| {
                (l <= p && p <= h).then_some(interior && l < p && p < h)
            })
        };
        leaves
            .flat_map(move |leaf| leaf.entries(self.dims))
            .filter_map(move |(point, id)| Some(BoxPoint { id, interior: place(point)? }))
    }

    /// Builds a balanced tree from a point set (bulk load).
    ///
    /// # Panics
    ///
    /// Panics if `dims` is zero or a point's dimensionality differs.
    ///
    /// # Examples
    ///
    /// ```
    /// use propeller_index::KdTree;
    /// use propeller_types::FileId;
    ///
    /// let points: Vec<(Vec<f64>, FileId)> =
    ///     (0..100).map(|i| (vec![i as f64], FileId::new(i))).collect();
    /// let tree = KdTree::bulk_load(1, points);
    /// assert_eq!(tree.len(), 100);
    /// assert_eq!(tree.range_iter(&[10.0], &[14.0]).count(), 5);
    /// ```
    pub fn bulk_load(dims: usize, points: Vec<(Vec<f64>, FileId)>) -> Self {
        assert!(dims > 0, "a K-D tree needs at least one dimension");
        let mut pool = Leaf::default();
        for (point, payload) in &points {
            assert_eq!(point.len(), dims, "point dimensionality mismatch");
            pool.push(point, *payload);
        }
        Self::from_pool(dims, pool)
    }

    /// Iterates over all live `(point, payload)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], FileId)> {
        self.leaves.iter().flat_map(|leaf| leaf.entries(self.dims))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn f(i: u64) -> FileId {
        FileId::new(i)
    }

    /// How many of `before`'s leaf slots `after` still shares, and how many
    /// slots `before` has.
    pub(crate) fn shared_leaves(before: &KdTree, after: &KdTree) -> (usize, usize) {
        let shared = before
            .leaves
            .iter()
            .zip(after.leaves.iter())
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count();
        (shared, before.leaves.len())
    }

    /// Every payload in the box, sorted.
    fn range(t: &KdTree, lo: &[f64], hi: &[f64]) -> Vec<FileId> {
        let mut out: Vec<FileId> = t.range_iter(lo, hi).collect();
        out.sort_unstable();
        out
    }

    /// Height in levels: the split nodes on the longest root-to-leaf path,
    /// plus the leaf.
    fn depth(t: &KdTree) -> usize {
        fn height(t: &KdTree, link: u32) -> usize {
            if link & LEAF != 0 {
                return 1;
            }
            let n = &t.nodes[link as usize];
            1 + height(t, n.left).max(height(t, n.right))
        }
        height(t, t.root)
    }

    /// The sparse-tree bound on leaf slots: `2·⌈live/32⌉ + c`.
    fn leaf_bound(t: &KdTree) -> usize {
        2 * t.len().div_ceil(LEAF_TARGET) + LEAF_SLACK
    }

    /// The α-height bound in levels: split nodes, one more a split may add
    /// before its scapegoat is rebuilt, and the leaf level.
    fn level_bound(t: &KdTree) -> usize {
        KdTree::depth_limit(t.leaves.len()) + 2
    }

    #[test]
    fn clones_are_snapshots_under_further_mutation() {
        let mut t = KdTree::new(2);
        for i in 0..2000u64 {
            t.insert(&[(i % 50) as f64, (i / 50) as f64], f(i));
        }
        let snap = t.clone();
        for i in 0..2000u64 {
            if i % 2 == 0 {
                t.remove(&[(i % 50) as f64, (i / 50) as f64], f(i));
            }
        }
        for i in 2000..2500u64 {
            t.insert(&[(i % 50) as f64, (i / 50) as f64], f(i));
        }
        // The clone still answers exactly the pre-mutation box query.
        assert_eq!(snap.len(), 2000);
        let all = range(&snap, &[0.0, 0.0], &[1e9, 1e9]);
        assert_eq!(all, (0..2000).map(f).collect::<Vec<_>>());
        assert_eq!(t.len(), 1000 + 500);
    }

    #[test]
    fn range_iter_streams_the_same_set_as_range() {
        let mut t = KdTree::new(2);
        for x in 0..20u64 {
            for y in 0..20u64 {
                t.insert(&[x as f64, y as f64], f(x * 20 + y));
            }
        }
        t.remove(&[5.0, 5.0], f(5 * 20 + 5));
        let (lo, hi) = ([3.0, 4.0], [11.0, 9.0]);
        let mut streamed: Vec<FileId> = t.range_iter(&lo, &hi).collect();
        streamed.sort_unstable();
        assert_eq!(streamed, range(&t, &lo, &hi));
        assert!(!streamed.contains(&f(5 * 20 + 5)));
    }

    #[test]
    fn insert_and_range_1d() {
        let mut t = KdTree::new(1);
        for i in 0..100u64 {
            t.insert(&[i as f64], f(i));
        }
        let hits = range(&t, &[10.0], &[19.0]);
        assert_eq!(hits, (10..20).map(f).collect::<Vec<_>>());
    }

    #[test]
    fn range_2d_box() {
        let mut t = KdTree::new(2);
        for x in 0..10u64 {
            for y in 0..10u64 {
                t.insert(&[x as f64, y as f64], f(x * 10 + y));
            }
        }
        let hits = range(&t, &[2.0, 3.0], &[4.0, 5.0]);
        assert_eq!(hits.len(), 9); // 3 x values * 3 y values
        for id in hits {
            let (x, y) = (id.raw() / 10, id.raw() % 10);
            assert!((2..=4).contains(&x) && (3..=5).contains(&y));
        }
    }

    #[test]
    fn remove_hides_points() {
        let mut t = KdTree::new(1);
        t.insert(&[1.0], f(1));
        t.insert(&[2.0], f(2));
        assert!(t.remove(&[1.0], f(1)));
        assert!(!t.remove(&[1.0], f(1)), "double remove fails");
        assert_eq!(range(&t, &[0.0], &[10.0]), vec![f(2)]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn remove_wrong_payload_fails() {
        let mut t = KdTree::new(1);
        t.insert(&[1.0], f(1));
        assert!(!t.remove(&[1.0], f(2)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn reinsert_after_remove() {
        let mut t = KdTree::new(1);
        t.insert(&[1.0], f(1));
        t.remove(&[1.0], f(1));
        t.insert(&[1.0], f(1));
        assert_eq!(range(&t, &[1.0], &[1.0]), vec![f(1)]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn duplicate_coordinates_different_payloads() {
        let mut t = KdTree::new(2);
        t.insert(&[5.0, 5.0], f(1));
        t.insert(&[5.0, 5.0], f(2));
        t.insert(&[5.0, 5.0], f(3));
        assert_eq!(range(&t, &[5.0, 5.0], &[5.0, 5.0]), vec![f(1), f(2), f(3)]);
        assert!(t.remove(&[5.0, 5.0], f(2)));
        assert_eq!(range(&t, &[5.0, 5.0], &[5.0, 5.0]), vec![f(1), f(3)]);
    }

    #[test]
    fn exact_duplicate_entries_are_a_multiset() {
        // Entries equal in point *and* payload share one routing key, so no
        // split can separate them: their leaf outgrows the cap instead, and
        // each remove takes exactly one copy.
        let mut t = KdTree::new(2);
        for i in 0..300u64 {
            t.insert(&[(i % 3) as f64, 1.0], f(i % 3));
        }
        assert_eq!(t.len(), 300);
        assert_eq!(range(&t, &[1.0, 1.0], &[1.0, 1.0]), vec![f(1); 100]);
        for _ in 0..100 {
            assert!(t.remove(&[1.0, 1.0], f(1)));
        }
        assert!(!t.remove(&[1.0, 1.0], f(1)));
        assert_eq!(range(&t, &[0.0, 0.0], &[9.0, 9.0]).len(), 200);
        let rebuilt = KdTree::bulk_load(2, t.iter().map(|(p, id)| (p.to_vec(), id)).collect());
        assert_eq!(range(&rebuilt, &[0.0, 0.0], &[9.0, 9.0]), range(&t, &[0.0, 0.0], &[9.0, 9.0]));
    }

    #[test]
    fn removal_pressure_compacts_sparse_leaves() {
        let mut t = KdTree::new(1);
        for i in 0..1000u64 {
            t.insert(&[i as f64], f(i));
        }
        for i in 0..900u64 {
            t.remove(&[i as f64], f(i));
        }
        assert_eq!(t.len(), 100);
        // The sparse-tree rebuild kicked in (the inserts alone left about
        // 30 leaves): the leaves emptied by the removes are gone, not
        // scanned past.
        assert!(t.leaves.len() <= leaf_bound(&t), "{} leaves for 100 points", t.leaves.len());
        assert!(depth(&t) <= level_bound(&t), "depth after rebuild: {}", depth(&t));
        assert_eq!(range(&t, &[0.0], &[2000.0]).len(), 100);
    }

    #[test]
    fn monotone_insert_stream_stays_shallow_and_fast() {
        // A commit whose points are monotone in *every* axis (a bulk load
        // sorted by size with sequential mtimes) once built a right-spine
        // linked list — 50k inserts cost O(n²) and a 200k-file commit took
        // >30 s. Scapegoat rebuilds of bucket
        // subtrees must keep the depth within the α-height bound over the
        // leaf count, which also bounds the insert cost.
        const N: u64 = 50_000;
        let mut t = KdTree::new(2);
        for i in 0..N {
            t.insert(&[i as f64, i as f64], f(i));
        }
        assert_eq!(t.len(), N as usize);
        assert!(depth(&t) <= level_bound(&t), "monotone stream depth {}", depth(&t));
        assert!(t.leaves.len() <= leaf_bound(&t), "{} leaves", t.leaves.len());
        // Queries still exact after all the subtree rebuilds.
        let hits = range(&t, &[100.0, 100.0], &[149.0, 149.0]);
        assert_eq!(hits.len(), 50);
        assert_eq!(hits[0], f(100));
    }

    #[test]
    fn descending_and_interleaved_streams_stay_shallow() {
        const N: u64 = 20_000;
        let mut desc = KdTree::new(2);
        for i in (0..N).rev() {
            desc.insert(&[i as f64, (i * 3) as f64], f(i));
        }
        assert!(depth(&desc) <= level_bound(&desc), "depth {}", depth(&desc));
        // Monotone runs interleaved with removes (sparse leaves and
        // scapegoat rebuilds interacting).
        let mut churn = KdTree::new(2);
        for i in 0..N {
            churn.insert(&[i as f64, i as f64], f(i));
            if i % 3 == 2 {
                churn.remove(&[(i - 1) as f64, (i - 1) as f64], f(i - 1));
            }
        }
        assert_eq!(churn.len(), N as usize - N as usize / 3);
        assert!(depth(&churn) <= level_bound(&churn), "depth {}", depth(&churn));
        assert!(churn.leaves.len() <= leaf_bound(&churn), "{} leaves", churn.leaves.len());
        let hits = range(&churn, &[0.0, 0.0], &[(N as f64) * 2.0, (N as f64) * 2.0]);
        assert_eq!(hits.len(), churn.len());
    }

    #[test]
    fn subtree_sizes_stay_consistent_under_churn() {
        // Buckets keep no stored sizes; what must stay consistent is the
        // structure: every entry routes to the leaf holding it, every slot
        // is reachable once or empty, the leaves sum to the live count, and
        // leaf slots stay within the sparse-tree bound.
        fn check(t: &KdTree) {
            let mut reached = vec![false; t.leaves.len()];
            for link in t.links(t.root).filter(|l| l & LEAF != 0) {
                let slot = (link & !LEAF) as usize;
                assert!(!std::mem::replace(&mut reached[slot], true), "slot {slot} linked twice");
            }
            let mut live = 0;
            for (slot, leaf) in t.leaves.iter().enumerate() {
                assert!(reached[slot] || leaf.ids.is_empty(), "unlinked slot {slot} holds points");
                assert!(leaf.ids.len() <= LEAF_CAP);
                assert_eq!(leaf.coords.len(), leaf.ids.len() * t.dims);
                for (i, &id) in leaf.ids.iter().enumerate() {
                    let routed = t.descend(leaf.point(i, t.dims), id, |_| {});
                    assert_eq!(routed, slot, "{id:?} routes away from its leaf");
                }
                live += leaf.ids.len();
            }
            assert_eq!(live, t.len());
            assert!(t.leaves.len() <= leaf_bound(t), "{} slots, {live} live", t.leaves.len());
            assert!(depth(t) <= level_bound(t), "depth {}", depth(t));
        }
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        let mut t = KdTree::new(2);
        let mut alive: Vec<(Vec<f64>, FileId)> = Vec::new();
        for i in 0..20_000u64 {
            if alive.len() > 2_000 || (!alive.is_empty() && rng.gen_bool(0.3)) {
                let ix = rng.gen_range(0..alive.len());
                let (p, id) = alive.swap_remove(ix);
                assert!(t.remove(&p, id));
            } else {
                // (size, mtime) with drifting mtimes keeps both the
                // scapegoat path and the sparse-leaf rebuild hot.
                let p = vec![rng.gen_range(0.0..1e6), i as f64];
                t.insert(&p, f(i));
                alive.push((p, f(i)));
            }
            if i % 500 == 0 {
                check(&t);
            }
        }
        check(&t);
        assert_eq!(t.len(), alive.len());
    }

    #[test]
    fn bulk_load_with_duplicate_axis_values_keeps_equals_reachable() {
        // Regression: the payload tie-break puts equal axis values on BOTH
        // sides of a split, so range pruning must keep `lo == split`
        // reachable on the left (a strict `<` there once silently lost
        // every equal-valued hit parked left of its split).
        let points: Vec<(Vec<f64>, FileId)> =
            (0..1000u64).map(|i| (vec![(i / 100) as f64], f(i))).collect();
        let t = KdTree::bulk_load(1, points);
        for v in 0..10u64 {
            let hits = range(&t, &[v as f64], &[v as f64]);
            assert_eq!(hits.len(), 100, "value {v} lost duplicates: {hits:?}");
        }
    }

    #[test]
    fn identical_points_balance_instead_of_chaining() {
        // Regression: with axis-only routing, a run of *identical* points —
        // e.g. thousands of empty files sharing one mtime under the default
        // (size, mtime) index — had no key to split on. The payload
        // tie-break makes identical points distinct routing keys, so they
        // split into buckets and balance like any other data.
        const N: u64 = 30_000;
        let mut t = KdTree::new(2);
        for i in 0..N {
            t.insert(&[0.0, 0.0], f(i));
        }
        assert_eq!(t.len(), N as usize);
        assert!(depth(&t) <= level_bound(&t), "identical-point depth {}", depth(&t));
        assert!(t.leaves.iter().all(|leaf| leaf.ids.len() <= LEAF_CAP));
        assert_eq!(range(&t, &[0.0, 0.0], &[0.0, 0.0]).len(), N as usize);
        assert!(range(&t, &[0.1, 0.0], &[1.0, 1.0]).is_empty());
        // Removal still finds entries by (point, payload) through the
        // payload-routed paths.
        assert!(t.remove(&[0.0, 0.0], f(12_345)));
        assert!(!t.remove(&[0.0, 0.0], f(12_345)));
        assert_eq!(t.len(), N as usize - 1);
    }

    #[test]
    fn bulk_load_is_balanced() {
        let points: Vec<(Vec<f64>, FileId)> =
            (0..4096u64).map(|i| (vec![(i % 64) as f64, (i / 64) as f64], f(i))).collect();
        let t = KdTree::bulk_load(2, points);
        assert_eq!(t.len(), 4096);
        // 4096 points halve seven times to 32-point leaves.
        assert_eq!(depth(&t), 8);
        assert_eq!(t.leaves.len(), 128);
    }

    #[test]
    fn matches_brute_force_on_random_data() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        let mut t = KdTree::new(3);
        let mut points: Vec<(Vec<f64>, FileId)> = Vec::new();
        for i in 0..500u64 {
            let p: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..100.0)).collect();
            t.insert(&p, f(i));
            points.push((p, f(i)));
        }
        for _ in 0..50 {
            let lo: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..80.0)).collect();
            let hi: Vec<f64> = lo.iter().map(|l| l + rng.gen_range(0.0..40.0)).collect();
            let mut expected: Vec<FileId> = points
                .iter()
                .filter(|(p, _)| {
                    p.iter().zip(lo.iter().zip(&hi)).all(|(&x, (&l, &h))| x >= l && x <= h)
                })
                .map(|&(_, id)| id)
                .collect();
            expected.sort();
            assert_eq!(range(&t, &lo, &hi), expected);
        }
    }

    #[test]
    fn iter_visits_live_points_once() {
        let mut t = KdTree::new(1);
        for i in 0..500u64 {
            t.insert(&[i as f64], f(i));
        }
        t.remove(&[10.0], f(10));
        let mut seen: Vec<FileId> = t.iter().map(|(_, p)| p).collect();
        seen.sort();
        let expected: Vec<FileId> = (0..500).filter(|&i| i != 10).map(f).collect();
        assert_eq!(seen, expected);
        assert!(t.iter().all(|(p, id)| p == [id.raw() as f64]));
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn wrong_dimension_rejected() {
        let mut t = KdTree::new(2);
        t.insert(&[1.0], f(1));
    }

    #[test]
    fn serde_round_trip_preserves_queries() {
        // The tree carries no serde support (snapshots store records and
        // rebuild the tree); a clone must answer exactly like the original.
        let mut t = KdTree::new(2);
        for i in 0..100u64 {
            t.insert(&[(i % 10) as f64, (i / 10) as f64], f(i));
        }
        let copy = t.clone();
        assert_eq!(range(&t, &[0.0, 0.0], &[3.0, 3.0]), range(&copy, &[0.0, 0.0], &[3.0, 3.0]));
    }
}
