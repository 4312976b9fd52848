//! The Maximal Rectangles Algorithm (paper Algorithm 2) over one GPU's
//! spatio-temporal resource rectangle.
//!
//! The GPU is a `W × H = 100 % quota × 100 % SMs` rectangle. Free space is
//! a list of *maximal* free rectangles — they may overlap each other, but
//! none may overlap a placed pod, and none may be contained in another.
//! Placement picks the free rectangle with the smallest "secondCores"
//! slack (`Area(R) − Area(F)`), places the pod at its bottom-left corner,
//! splits, updates intersections by subdividing every other free rectangle
//! that the pod now overlaps, and prunes redundancies.

use fastg_cluster::PodId;
use fastg_des::snap::SnapError;
use fastg_des::snap_struct;
// Pod bindings live in an ordered tree: a GPU holds a handful of pods and
// placement is deploy-time work (768 placements in a whole 256-node fleet
// run), not a per-event path. fastg-lint: allow(no-btreemap-hot-path)
use std::collections::BTreeMap;

/// The single validated path for allocator constructor parameters: flags
/// a degenerate (zero) dimension or threshold in debug builds and clamps
/// it to one unit in release builds. Every `GpuRects` constructor funnels
/// through this.
fn at_least_one<T: Ord + From<u8>>(value: T, what: &'static str) -> T {
    debug_assert!(value >= T::from(1u8), "degenerate {what}");
    value.max(T::from(1u8))
}

/// An axis-aligned rectangle in resource units. `x`/`w` run along the time
/// quota axis (percent of the scheduling window), `y`/`h` along the SM
/// axis (percent of SMs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    /// Left edge (quota axis).
    pub x: u32,
    /// Bottom edge (SM axis).
    pub y: u32,
    /// Width (quota percent).
    pub w: u32,
    /// Height (SM percent).
    pub h: u32,
}

impl Rect {
    /// Creates a rectangle.
    pub fn new(x: u32, y: u32, w: u32, h: u32) -> Self {
        Rect { x, y, w, h }
    }

    /// The paper's "secondCores" measure: `quota × SMs`.
    pub fn area(&self) -> u64 {
        u64::from(self.w) * u64::from(self.h)
    }

    /// Right edge (exclusive).
    pub fn right(&self) -> u32 {
        self.x + self.w
    }

    /// Top edge (exclusive).
    pub fn top(&self) -> u32 {
        self.y + self.h
    }

    /// Whether `other` lies entirely inside `self`.
    pub fn contains(&self, other: &Rect) -> bool {
        self.x <= other.x
            && self.y <= other.y
            && self.right() >= other.right()
            && self.top() >= other.top()
    }

    /// Whether the interiors overlap (shared edges don't count).
    pub fn intersects(&self, other: &Rect) -> bool {
        self.x < other.right()
            && other.x < self.right()
            && self.y < other.top()
            && other.y < self.top()
    }

    /// A pod of size `w × h` fits in this free rectangle.
    pub fn fits(&self, w: u32, h: u32) -> bool {
        self.w >= w && self.h >= h
    }
}

/// Removes every part of `f` from `free` by subdividing intersecting
/// rectangles into up to four *maximal* remainders (left/right strips at
/// full height, bottom/top strips at full width — the MAXRECTS
/// `Subdivide(R, I)` step).
fn subtract_maximal(free: &mut Vec<Rect>, f: &Rect) {
    let mut out = Vec::with_capacity(free.len() + 4);
    for r in free.drain(..) {
        if !r.intersects(f) {
            out.push(r);
            continue;
        }
        if f.x > r.x {
            out.push(Rect::new(r.x, r.y, f.x - r.x, r.h));
        }
        if f.right() < r.right() {
            out.push(Rect::new(f.right(), r.y, r.right() - f.right(), r.h));
        }
        if f.y > r.y {
            out.push(Rect::new(r.x, r.y, r.w, f.y - r.y));
        }
        if f.top() < r.top() {
            out.push(Rect::new(r.x, f.top(), r.w, r.top() - f.top()));
        }
    }
    *free = out;
}

/// Removes rectangles contained in other rectangles of the same list
/// (the MAXRECTS redundancy prune).
fn prune_contained(free: &mut Vec<Rect>) {
    let mut keep = vec![true; free.len()];
    for i in 0..free.len() {
        if !keep[i] {
            continue;
        }
        for j in 0..free.len() {
            if i == j || !keep[j] {
                continue;
            }
            if free[j].contains(&free[i]) {
                keep[i] = false;
                break;
            }
        }
    }
    let mut idx = 0;
    free.retain(|_| {
        let kept = keep.get(idx).copied().unwrap_or(true);
        idx += 1;
        kept
    });
}

/// Algorithm 2's per-GPU state: the free-rectangle list and pod bindings.
///
/// ```
/// use fastgshare::scheduler::GpuRects;
/// use fastg_cluster::PodId;
///
/// let mut gpu = GpuRects::standard(); // 100 % quota × 100 % SMs
/// // A ResNet pod at (40 % quota, 12 % SMs):
/// let rect = gpu.place(PodId(0), 40, 12).unwrap();
/// assert_eq!((rect.x, rect.y), (0, 0)); // bottom-left placement
/// assert_eq!(gpu.free_area(), 10_000 - 480);
/// // Releasing returns the exact rectangle (keep-restructure policy).
/// assert_eq!(gpu.release(PodId(0)), Some(rect));
/// assert_eq!(gpu.free_area(), 10_000);
/// ```
#[derive(Debug, Clone)]
pub struct GpuRects {
    width: u32,
    height: u32,
    free: Vec<Rect>,
    placed: BTreeMap<PodId, Rect>,
    /// Free-list length beyond which [`Self::restructure`] is invoked by
    /// [`Self::release`] (the keep-restructure policy's threshold).
    restructure_threshold: usize,
    restructures: u64,
}

impl GpuRects {
    /// A fresh GPU: one free rectangle of `width × height` (defaults to
    /// 100 × 100 percent).
    pub fn new(width: u32, height: u32, restructure_threshold: usize) -> Self {
        let width = at_least_one(width, "GPU rectangle width");
        let height = at_least_one(height, "GPU rectangle height");
        let restructure_threshold = at_least_one(restructure_threshold, "restructure threshold");
        GpuRects {
            width,
            height,
            free: vec![Rect::new(0, 0, width, height)],
            placed: BTreeMap::new(),
            restructure_threshold,
            restructures: 0,
        }
    }

    /// The standard paper-sized GPU rectangle.
    pub fn standard() -> Self {
        Self::new(100, 100, 24)
    }

    /// Total capacity ("secondCores").
    pub fn capacity(&self) -> u64 {
        u64::from(self.width) * u64::from(self.height)
    }

    /// Area currently bound to pods.
    pub fn used_area(&self) -> u64 {
        self.placed.values().map(Rect::area).sum()
    }

    /// Unbound area (exact; free rectangles overlap so they cannot simply
    /// be summed).
    pub fn free_area(&self) -> u64 {
        self.capacity() - self.used_area()
    }

    /// The largest single free rectangle's area: the biggest pod that
    /// could be placed right now. `free_area − largest` is fragmentation.
    pub fn largest_free_area(&self) -> u64 {
        self.free.iter().map(Rect::area).max().unwrap_or(0)
    }

    /// Fragmentation in `[0, 1]`: the fraction of free area not reachable
    /// by the single largest placement. Zero when empty or perfectly
    /// consolidated.
    pub fn fragmentation(&self) -> f64 {
        // Zero-capacity geometry cannot be constructed (the validated
        // constructor clamps), but the metric must stay total anyway:
        // an empty plane is trivially unfragmented, never a 0/0.
        let free = self.free_area();
        if self.capacity() == 0 || free == 0 {
            return 0.0;
        }
        1.0 - self.largest_free_area() as f64 / free as f64
    }

    /// The current free-rectangle list.
    pub fn free_rects(&self) -> &[Rect] {
        &self.free
    }

    /// Every `(pod, rectangle)` binding, in ascending pod order.
    pub fn placements(&self) -> impl Iterator<Item = (PodId, Rect)> + '_ {
        self.placed.iter().map(|(&p, &r)| (p, r))
    }

    /// Pods currently bound.
    pub fn pod_count(&self) -> usize {
        self.placed.len()
    }

    /// The best-area-fit free rectangle for a `w × h` pod: minimal
    /// "secondCores" slack `Area(R) − Area(F)`, ties broken
    /// bottom-left-most for determinism. Returns the rectangle and its
    /// slack (the difference the global node selection compares).
    pub fn best_fit(&self, w: u32, h: u32) -> Option<(Rect, u64)> {
        let demand = u64::from(w) * u64::from(h);
        self.free
            .iter()
            .filter(|r| r.fits(w, h))
            .map(|r| (r.area() - demand, r.y, r.x, *r))
            .min_by_key(|&(slack, y, x, _)| (slack, y, x))
            .map(|(slack, _, _, r)| (r, slack))
    }

    /// Places `pod` (size `w × h`) using Algorithm 2. Returns its bound
    /// rectangle, or `None` when no free rectangle fits ("a new GPU
    /// required").
    pub fn place(&mut self, pod: PodId, w: u32, h: u32) -> Option<Rect> {
        debug_assert!(w > 0 && h > 0, "degenerate pod rectangle");
        let w = w.max(1);
        let h = h.max(1);
        if self.placed.contains_key(&pod) {
            debug_assert!(false, "pod {pod:?} already placed on this GPU");
            return None;
        }
        let (target, _slack) = self.best_fit(w, h)?;
        // PlaceAndNewJointRect, "BottomLeft": the pod sits at the target's
        // bottom-left corner.
        let f = Rect::new(target.x, target.y, w, h);
        // Split the chosen rectangle into the two *maximal* remainders:
        // full-height right part and full-width top part.
        self.free.retain(|r| *r != target);
        let right = Rect::new(f.right(), target.y, target.right() - f.right(), target.h);
        let top = Rect::new(target.x, f.top(), target.w, target.top() - f.top());
        if right.area() > 0 {
            self.free.push(right);
        }
        if top.area() > 0 {
            self.free.push(top);
        }
        // Intersection update: free rectangles are not mutually exclusive,
        // so others may still cover the pod's area — subdivide them.
        self.subtract_from_free(&f);
        self.prune();
        self.placed.insert(pod, f);
        self.debug_check();
        Some(f)
    }

    /// Removes every part of `f` from the free list by subdividing
    /// intersecting rectangles into up to four maximal remainders.
    fn subtract_from_free(&mut self, f: &Rect) {
        subtract_maximal(&mut self.free, f);
    }

    /// Removes free rectangles contained in other free rectangles.
    fn prune(&mut self) {
        prune_contained(&mut self.free);
    }

    /// Releases a pod's rectangle under the **keep-restructure** policy:
    /// the exact rectangle returns to the free list (so the same function
    /// can reclaim the same resources), and once the list exceeds the
    /// threshold the whole free space is rebuilt from scratch.
    pub fn release(&mut self, pod: PodId) -> Option<Rect> {
        let r = self.placed.remove(&pod)?;
        self.free.push(r);
        self.prune();
        if self.free.len() > self.restructure_threshold {
            self.restructure();
        }
        self.debug_check();
        Some(r)
    }

    /// Rebuilds the maximal free-rectangle list around the *current* pod
    /// placements (running pods are never moved): reset to the full GPU
    /// rectangle and subtract every placement.
    pub fn restructure(&mut self) {
        self.free = vec![Rect::new(0, 0, self.width, self.height)];
        let placements: Vec<Rect> = self.placed.values().copied().collect();
        for f in &placements {
            self.subtract_from_free(f);
        }
        self.prune();
        self.restructures += 1;
        self.debug_check();
    }

    /// Invariants, checked in debug builds after every mutation:
    /// free rectangles stay in bounds, never overlap a placement, and are
    /// mutually maximal; placements never overlap each other.
    fn debug_check(&self) {
        #[cfg(debug_assertions)]
        {
            let bounds = Rect::new(0, 0, self.width, self.height);
            for r in &self.free {
                assert!(bounds.contains(r), "free rect {r:?} out of bounds");
                for p in self.placed.values() {
                    assert!(!r.intersects(p), "free rect {r:?} overlaps placement {p:?}");
                }
            }
            for (i, a) in self.free.iter().enumerate() {
                for (j, b) in self.free.iter().enumerate() {
                    if i != j {
                        assert!(!b.contains(a), "free rect {a:?} contained in {b:?}");
                    }
                }
            }
            let placements: Vec<&Rect> = self.placed.values().collect();
            for (i, a) in placements.iter().enumerate() {
                for b in placements.iter().skip(i + 1) {
                    assert!(!a.intersects(b), "placements {a:?} and {b:?} overlap");
                }
            }
        }
    }
}

// Rejects rectangles whose far edges overflow `u32`, so `Rect::right`
// and `Rect::top` cannot overflow on decoded input.
snap_struct!(Rect { x, y, w, h } check |rect| {
    if rect.x.checked_add(rect.w).is_none() || rect.y.checked_add(rect.h).is_none() {
        return Err(SnapError::new("rect edge overflow"));
    }
    Ok(())
});

// The free list is encoded in its exact in-memory order: MAXRECTS
// tie-breaks scan it linearly, so a reordered list could pick a
// different (equally valid) rectangle and diverge from the
// straight-through run.
snap_struct!(GpuRects {
    width, height, free, placed, restructure_threshold, restructures,
} check |g| {
    if g.width == 0 || g.height == 0 {
        return Err(SnapError::new("gpu rects geometry"));
    }
    let bounds = Rect::new(0, 0, g.width, g.height);
    if g.free
        .iter()
        .any(|f| !bounds.contains(f) || g.placed.values().any(|p| p.intersects(f)))
    {
        return Err(SnapError::new("gpu rects free list"));
    }
    let plc: Vec<&Rect> = g.placed.values().collect();
    if plc
        .iter()
        .enumerate()
        .any(|(i, a)| plc.iter().skip(i + 1).any(|b| a.intersects(b)))
    {
        return Err(SnapError::new("gpu rects placements overlap"));
    }
    // The constructor clamps a zero threshold to one, so the encoder
    // never writes zero.
    if g.restructure_threshold == 0 {
        return Err(SnapError::new("gpu rects restructure threshold"));
    }
    Ok(())
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_geometry() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(5, 5, 10, 10);
        let c = Rect::new(10, 0, 5, 5);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c)); // edge contact only
        assert!(a.contains(&Rect::new(2, 2, 3, 3)));
        assert!(!a.contains(&b));
        assert_eq!(a.area(), 100);
        assert!(a.fits(10, 10));
        assert!(!a.fits(11, 10));
    }

    #[test]
    fn first_placement_splits_into_two_maximal_rects() {
        let mut g = GpuRects::standard();
        let r = g.place(PodId(1), 40, 12).unwrap();
        assert_eq!(r, Rect::new(0, 0, 40, 12));
        // Maximal remainders: right (40,0,60,100) and top (0,12,100,88).
        assert_eq!(g.free_rects().len(), 2);
        assert!(g.free_rects().contains(&Rect::new(40, 0, 60, 100)));
        assert!(g.free_rects().contains(&Rect::new(0, 12, 100, 88)));
        assert_eq!(g.used_area(), 480);
        assert_eq!(g.free_area(), 10_000 - 480);
    }

    #[test]
    fn best_fit_minimizes_second_cores_slack() {
        let mut g = GpuRects::standard();
        g.place(PodId(1), 60, 100).unwrap(); // leaves (60,0,40,100)
        // A 40×40 pod: only the right rect fits.
        let (r, slack) = g.best_fit(40, 40).unwrap();
        assert_eq!(r, Rect::new(60, 0, 40, 100));
        assert_eq!(slack, 4000 - 1600);
    }

    #[test]
    fn paper_fig11_pod_set_fits_one_gpu() {
        // 4×ResNet (40,12) + 2×RNNT (40,24) + 2×BERT (60,50):
        // total area 4×480 + 2×960 + 2×3000 = 9840 ≤ 10000. Placed in
        // descending area order, as the FaST-Scheduler submits them.
        let mut g = GpuRects::standard();
        let mut id = 0;
        for _ in 0..2 {
            assert!(g.place(PodId(id), 60, 50).is_some(), "bert {id}");
            id += 1;
        }
        for _ in 0..2 {
            assert!(g.place(PodId(id), 40, 24).is_some(), "rnnt {id}");
            id += 1;
        }
        for _ in 0..4 {
            assert!(g.place(PodId(id), 40, 12).is_some(), "resnet {id}");
            id += 1;
        }
        assert_eq!(g.pod_count(), 8);
        assert_eq!(g.used_area(), 9840);
    }

    #[test]
    fn place_fails_when_nothing_fits() {
        let mut g = GpuRects::standard();
        g.place(PodId(1), 100, 60).unwrap();
        // 50 × 50 cannot fit in the remaining 100 × 40 strip.
        assert!(g.place(PodId(2), 50, 50).is_none());
        // But 100 × 40 does.
        assert!(g.place(PodId(2), 100, 40).is_some());
    }

    #[test]
    fn release_returns_exact_rectangle_for_reuse() {
        let mut g = GpuRects::standard();
        let r1 = g.place(PodId(1), 30, 30).unwrap();
        g.place(PodId(2), 30, 30).unwrap();
        let released = g.release(PodId(1)).unwrap();
        assert_eq!(released, r1);
        // The same shape lands back in the same spot (best fit: zero
        // slack).
        let r3 = g.place(PodId(3), 30, 30).unwrap();
        assert_eq!(r3, r1);
    }

    #[test]
    fn restructure_triggers_past_threshold() {
        let mut g = GpuRects::new(100, 100, 4);
        // Fill a row with small pods, then free alternating ones to
        // fragment the list past the threshold.
        for i in 0..10 {
            g.place(PodId(i), 10, 10).unwrap();
        }
        for i in (0..10).step_by(2) {
            g.release(PodId(i)).unwrap();
        }
        assert!(g.restructures >= 1);
        // After restructuring, invariants hold and all freed area is
        // reachable.
        assert_eq!(g.pod_count(), 5);
        assert_eq!(g.used_area(), 500);
    }

    #[test]
    fn fragmentation_metric() {
        let mut g = GpuRects::standard();
        assert_eq!(g.fragmentation(), 0.0);
        g.place(PodId(1), 100, 100).unwrap();
        assert_eq!(g.fragmentation(), 0.0); // nothing free at all
        g.release(PodId(1));
        assert_eq!(g.fragmentation(), 0.0);
        // A quarter-GPU pod leaves an L-shaped free region: the largest
        // single rectangle (50×100 or 100×50 = 5000) covers only 2/3 of
        // the 7500 free secondCores.
        g.place(PodId(2), 50, 50).unwrap();
        assert!((g.fragmentation() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn full_pack_and_unpack_cycle_preserves_capacity() {
        let mut g = GpuRects::standard();
        let sizes = [(40u32, 12u32), (40, 24), (60, 50), (20, 30), (35, 45)];
        for (i, &(w, h)) in sizes.iter().enumerate() {
            g.place(PodId(i as u64), w, h).unwrap();
        }
        for i in 0..sizes.len() {
            g.release(PodId(i as u64));
        }
        g.restructure();
        assert_eq!(g.free_area(), g.capacity());
        assert_eq!(g.largest_free_area(), g.capacity());
        assert_eq!(g.free_rects().len(), 1);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "already placed"))]
    fn double_place_panics() {
        let mut g = GpuRects::standard();
        let first = g.place(PodId(1), 10, 10).unwrap();
        // Release builds refuse the second binding and keep the first.
        assert_eq!(g.place(PodId(1), 10, 10), None);
        assert_eq!(g.placements().collect::<Vec<_>>(), vec![(PodId(1), first)]);
    }

    #[test]
    fn release_unknown_pod_is_none() {
        let mut g = GpuRects::standard();
        assert!(g.release(PodId(42)).is_none());
    }

    #[test]
    fn all_rules_pack_the_fig11_set() {
        // Best-area-fit is the only rule.
        let mut g = GpuRects::standard();
        let mut id = 0u64;
        for &(w, h, n) in &[(60u32, 50u32, 2u32), (40, 24, 2), (40, 12, 4)] {
            for _ in 0..n {
                assert!(g.place(PodId(id), w, h).is_some(), "failed at pod {id}");
                id += 1;
            }
        }
    }

    #[test]
    fn decode_rejects_zero_restructure_threshold() {
        use fastg_des::snap::{Snap, SnapReader, SnapWriter};
        let mut g = GpuRects::standard();
        g.place(PodId(0), 40, 12).unwrap();
        // Zero the threshold, which is encoded as a length prefix.
        g.restructure_threshold = 0;
        let mut w = SnapWriter::new();
        g.snap(&mut w);
        let bytes = w.finish();
        let err = GpuRects::unsnap(&mut SnapReader::new(&bytes)).unwrap_err();
        assert_eq!(err, SnapError::new("gpu rects restructure threshold"));
    }

    #[test]
    fn decode_rejects_edges_past_u32() {
        use fastg_des::snap::{Snap, SnapReader, SnapWriter};
        for rect in [Rect::new(u32::MAX, 0, 1, 1), Rect::new(0, 1, 1, u32::MAX)] {
            let mut w = SnapWriter::new();
            rect.snap(&mut w);
            let bytes = w.finish();
            assert!(Rect::unsnap(&mut SnapReader::new(&bytes)).is_err());
        }
    }
}
