//! The region access log: overlap queries for §V.A dependency analysis.
//!
//! Every region access is compared against the live accesses of the
//! same buffer; overlapping conflicting pairs become edges. A flat scan
//! of the whole log costs O(n) per access and O(n²) per program, which
//! dominated region-heavy workloads (BENCH_0003's `region_storm`).
//!
//! [`RegionLog`] instead keeps a **tile index over the first
//! dimension**: the observed coordinate range is split into
//! [`TILES`] equal tiles, each holding the handles of the entries whose
//! dim-0 interval touches it. A query gathers candidates only from the
//! tiles its own dim-0 interval spans (plus the `wide` list of
//! full-dimension or very broad entries), deduplicates them with a query
//! stamp, and checks exact N-dimensional overlap on that handful — O(tiles
//! touched + candidates) instead of O(live entries). Entries whose dim-0
//! coordinates fall outside the current range trigger an amortised
//! rebuild with a doubled range. Matches are emitted in insertion
//! (program) order, so a recorded graph is deterministic.
//!
//! **Write shadowing:** when a write `W` is recorded, every matched
//! entry `E` of another task whose region `W`'s region
//! [contains](Region::contains) is freed — it has just received its
//! edge `E → W`. This is sound because:
//!
//! * any later access that overlaps `E` also overlaps `W` (same
//!   conservative arity rule as [`Region::overlaps`]), and conflicts
//!   with it because `W` writes, so it gets an edge from `W` and the
//!   ordering `E → W → later` keeps every path of the unshadowed graph:
//!   **reachability does not change**;
//! * `OnPanic::CancelDependents` poisons successors along every edge
//!   kind, so the cancelled set of a failing task — its descendants —
//!   does not change either;
//! * [`RegionLog::all_finished`] stays exact: `W` cannot finish (not
//!   even cancelled, which still waits for its predecessors) before `E`.
//!
//! Without shadowing, a chunk rewritten k times by still-pending tasks
//! hands every later reader k edges instead of one; Figure 7's
//! multisort has exactly that shape.
//!
//! **Eager pruning:** when structural recording is off, finished entries
//! are dropped the moment a query encounters them, and a periodic sweep
//! clears tiles that queries never revisit, so the log tracks the live
//! frontier instead of program history. With recording on, only
//! shadowing frees entries: the recorder wants edges from finished
//! producers too.
//!
//! **Sharded analysis:** a buffer's log belongs to the lane that owns
//! the buffer's *representant* id (`runtime::shard::lane_of`). Under
//! [`RuntimeBuilder::shards`](crate::RuntimeBuilder::shards) ≥ 2,
//! `dep::region_deps` enters that lane's gate before touching the log,
//! so all edge analysis over one buffer stays serialised — the
//! insertion-order edge guarantee above holds per buffer unchanged —
//! while accesses to buffers hashing to different lanes proceed
//! concurrently.

use std::sync::Arc;

use crate::data::region::{Region, RegionBound};
use crate::graph::node::{TaskNode, HINT_NONE};
use crate::graph::record::EdgeKind;
use crate::ids::TaskId;

/// One logged access.
struct Access {
    region: Region,
    write: bool,
    node: Arc<TaskNode>,
}

/// The dependency the pair `(earlier access, this access)` induces, if any.
fn edge_kind(earlier_write: bool, write: bool) -> Option<EdgeKind> {
    match (earlier_write, write) {
        (true, false) => Some(EdgeKind::True),
        (true, true) => Some(EdgeKind::Output),
        (false, true) => Some(EdgeKind::Anti),
        (false, false) => None, // read-read: no dependency
    }
}

/// Tiles over the observed dim-0 coordinate range.
const TILES: usize = 64;

/// Entries spanning more than this many tiles go to the `wide` list
/// (checked by every query) instead of being registered per tile.
const WIDE_SPAN: usize = TILES / 4;

/// A handle into the slot slab: `(index, generation)`. Stale handles
/// (generation mismatch) are removed lazily when encountered.
#[derive(Clone, Copy, PartialEq, Eq)]
struct EntryRef {
    idx: u32,
    gen: u32,
}

struct Slot {
    gen: u32,
    /// Insertion sequence number: queries sort their matches by it so
    /// edges are emitted in program order.
    seq: u64,
    /// Last query that visited this slot (dedup across tiles).
    stamp: u64,
    access: Option<Access>,
}

/// A buffer's region access log; see the module docs.
pub(crate) struct RegionLog {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
    /// Per-tile entry handles over `[lo, hi)` on dimension 0.
    tiles: Vec<Vec<EntryRef>>,
    /// Full-dim-0 and very broad entries: candidates of every query.
    wide: Vec<EntryRef>,
    lo: usize,
    hi: usize,
    next_seq: u64,
    query_stamp: u64,
    /// Records since the last full sweep (amortised pruning trigger).
    since_sweep: usize,
    /// Scratch for match sorting (kept to avoid per-query allocation).
    matches: Vec<(u64, u32)>,
    /// Locality-hint harvest of the current query: `(seq, worker)` of
    /// the latest overlapping finished writer seen so far. Only
    /// maintained while `want_hint` (set per record call).
    hint_best: Option<(u64, usize)>,
    want_hint: bool,
}

impl Default for RegionLog {
    fn default() -> Self {
        RegionLog {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            tiles: (0..TILES).map(|_| Vec::new()).collect(),
            wide: Vec::new(),
            lo: 0,
            hi: 0,
            next_seq: 0,
            query_stamp: 0,
            since_sweep: 0,
            matches: Vec::new(),
            hint_best: None,
            want_hint: false,
        }
    }
}

/// The dim-0 interval of a region; missing dimensions are full
/// (mirrors [`Region::overlaps`]' conservative arity handling).
fn dim0(region: &Region) -> RegionBound {
    region.dims().first().copied().unwrap_or(RegionBound::Full)
}

impl RegionLog {
    fn tile_width(&self) -> usize {
        ((self.hi - self.lo) / TILES).max(1)
    }

    fn tile_of(&self, x: usize) -> usize {
        ((x.saturating_sub(self.lo)) / self.tile_width()).min(TILES - 1)
    }

    /// Tile span of a bounded dim-0 interval, or `None` for wide entries.
    fn span(&self, bound: RegionBound) -> Option<(usize, usize)> {
        match bound {
            RegionBound::Full => None,
            RegionBound::Bounds(l, u) => {
                let (t0, t1) = (self.tile_of(l), self.tile_of(u));
                if t1 - t0 + 1 > WIDE_SPAN {
                    None
                } else {
                    Some((t0, t1))
                }
            }
        }
    }

    fn register(&mut self, idx: u32) {
        let r = EntryRef {
            idx,
            gen: self.slots[idx as usize].gen,
        };
        let bound = dim0(&self.slots[idx as usize].access.as_ref().unwrap().region);
        match self.span(bound) {
            None => self.wide.push(r),
            Some((t0, t1)) => {
                for t in t0..=t1 {
                    self.tiles[t].push(r);
                }
            }
        }
    }

    fn free_slot(&mut self, idx: u32) {
        let slot = &mut self.slots[idx as usize];
        debug_assert!(slot.access.is_some());
        slot.access = None;
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(idx);
        self.live -= 1;
    }

    /// Re-tile over the **tight** range covering `l..=u` and every live
    /// bounded entry (dead and wide entries don't constrain it), with
    /// power-of-two slack so a sliding frontier triggers O(log range)
    /// rebuilds, not one per insert. Recomputing `lo` from the live
    /// entries matters: accesses clustered at high offsets must get
    /// per-cluster tiles, not tiles stretched back to zero.
    fn rebuild_covering(&mut self, l: usize, u: usize) {
        let mut lo = l;
        let mut hi = u + 1;
        for slot in &self.slots {
            if let Some(a) = &slot.access {
                if let RegionBound::Bounds(el, eu) = dim0(&a.region) {
                    lo = lo.min(el);
                    hi = hi.max(eu + 1);
                }
            }
        }
        let extent = (hi - lo).next_power_of_two();
        self.lo = lo;
        self.hi = lo + extent;
        for t in &mut self.tiles {
            t.clear();
        }
        self.wide.clear();
        for idx in 0..self.slots.len() as u32 {
            if self.slots[idx as usize].access.is_some() {
                self.register(idx);
            }
        }
    }

    /// Drop every finished entry and rebuild the tile lists (amortised:
    /// triggered when enough records have happened that untouched tiles
    /// may be full of finished entries).
    fn sweep(&mut self) {
        for idx in 0..self.slots.len() as u32 {
            let finished = matches!(
                &self.slots[idx as usize].access,
                Some(a) if a.node.is_finished()
            );
            if finished {
                self.free_slot(idx);
            }
        }
        for t in &mut self.tiles {
            t.clear();
        }
        self.wide.clear();
        for idx in 0..self.slots.len() as u32 {
            if self.slots[idx as usize].access.is_some() {
                self.register(idx);
            }
        }
        self.since_sweep = 0;
    }

    /// Visit one candidate list (the wide list or one tile), collecting
    /// overlap matches into `self.matches` and lazily removing
    /// stale/finished handles. Read-after-read pairs are filtered here
    /// (they can never emit an edge), so read-heavy queries don't sort
    /// and walk useless matches.
    #[allow(clippy::too_many_arguments)]
    fn scan_list(
        &mut self,
        wide: bool,
        tile: usize,
        region: &Region,
        write: bool,
        me: TaskId,
        prune: bool,
    ) {
        let mut i = 0;
        loop {
            let r = {
                let list = if wide { &self.wide } else { &self.tiles[tile] };
                match list.get(i) {
                    Some(r) => *r,
                    None => break,
                }
            };
            let slot = &mut self.slots[r.idx as usize];
            let stale = slot.gen != r.gen || slot.access.is_none();
            if stale {
                let list = if wide { &mut self.wide } else { &mut self.tiles[tile] };
                list.swap_remove(i);
                continue;
            }
            if slot.stamp == self.query_stamp {
                // Already visited via another tile this query — it may
                // even be in `matches`, so it must not be freed below.
                i += 1;
                continue;
            }
            if prune && slot.access.as_ref().unwrap().node.is_finished() {
                // About to be pruned: an overlapping finished writer is
                // exactly a locality-hint source.
                if self.want_hint {
                    let seq = slot.seq;
                    let a = slot.access.as_ref().unwrap();
                    if a.write && a.node.id() != me && a.region.overlaps(region) {
                        let w = a.node.ran_on();
                        if w != HINT_NONE && self.hint_best.is_none_or(|(s, _)| seq > s) {
                            self.hint_best = Some((seq, w));
                        }
                    }
                }
                self.free_slot(r.idx);
                let list = if wide { &mut self.wide } else { &mut self.tiles[tile] };
                list.swap_remove(i);
                continue;
            }
            slot.stamp = self.query_stamp;
            let a = slot.access.as_ref().unwrap();
            if a.node.id() != me
                && edge_kind(a.write, write).is_some()
                && a.region.overlaps(region)
            {
                self.matches.push((slot.seq, r.idx));
            }
            i += 1;
        }
    }

    /// Analyse one access: emit an edge for every live logged access
    /// of another task that overlaps `region` and conflicts with it (in
    /// insertion order; `me` is the spawning task), free the entries a
    /// write shadows, prune finished entries when `prune`, then append
    /// the access.
    ///
    /// When `hint` is set, the query also harvests a **locality hint**:
    /// the worker that ran the most recently logged overlapping
    /// *finished* writer it saw (`None` when there was none). The hint is
    /// advisory and never influences the emitted edges.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record(
        &mut self,
        region: &Region,
        write: bool,
        me: TaskId,
        node: &Arc<TaskNode>,
        prune: bool,
        hint: bool,
        emit: &mut dyn FnMut(&Arc<TaskNode>, EdgeKind),
    ) -> Option<usize> {
        self.query_stamp += 1;
        self.since_sweep += 1;
        self.want_hint = hint;
        self.hint_best = None;
        if prune && self.since_sweep > 2 * self.slots.len().max(64) {
            self.sweep();
        }

        // Gather candidates: the wide list plus the tiles the query's
        // dim-0 interval spans (a Full query spans them all).
        self.matches.clear();
        self.scan_list(true, 0, region, write, me, prune);
        let span = if self.hi > self.lo {
            match dim0(region) {
                RegionBound::Full => Some((0, TILES - 1)),
                RegionBound::Bounds(l, u) => {
                    // Clamp to the indexed range: coordinates beyond it
                    // cannot host any registered entry.
                    let l = l.max(self.lo);
                    let u = u.min(self.hi - 1);
                    if l <= u {
                        Some((self.tile_of(l), self.tile_of(u)))
                    } else {
                        None
                    }
                }
            }
        } else {
            None
        };
        if let Some((t0, t1)) = span {
            for t in t0..=t1 {
                self.scan_list(false, t, region, write, me, prune);
            }
        }

        // Emit in insertion (program) order.
        self.matches.sort_unstable_by_key(|&(seq, _)| seq);
        let matches = std::mem::take(&mut self.matches);
        for &(seq, idx) in &matches {
            let a = self.slots[idx as usize].access.as_ref().unwrap();
            // Structural-recording mode keeps finished entries in the
            // match set: harvest the hint here (prune mode harvested it
            // on the free path in `scan_list`).
            if hint && a.write && a.node.is_finished() {
                let w = a.node.ran_on();
                if w != HINT_NONE && self.hint_best.is_none_or(|(s, _)| seq > s) {
                    self.hint_best = Some((seq, w));
                }
            }
            if let Some(kind) = edge_kind(a.write, write) {
                emit(&a.node, kind);
            }
            // Write shadowing (module docs): every later access that
            // overlaps `a` conflicts with this write, whose new edge
            // from `a` keeps the ordering; `a` itself is dead weight.
            if write && region.contains(&a.region) {
                self.free_slot(idx);
            }
        }
        self.matches = matches;

        // Insert the new access.
        if let RegionBound::Bounds(l, u) = dim0(region) {
            if self.hi == self.lo || l < self.lo || u >= self.hi {
                self.rebuild_covering(l, u);
            }
        }
        let idx = match self.free.pop() {
            Some(idx) => {
                let slot = &mut self.slots[idx as usize];
                slot.seq = self.next_seq;
                slot.stamp = 0;
                slot.access = Some(Access {
                    region: region.clone(),
                    write,
                    node: Arc::clone(node),
                });
                idx
            }
            None => {
                let idx = self.slots.len() as u32;
                self.slots.push(Slot {
                    gen: 0,
                    seq: self.next_seq,
                    stamp: 0,
                    access: Some(Access {
                        region: region.clone(),
                        write,
                        node: Arc::clone(node),
                    }),
                });
                idx
            }
        };
        self.next_seq += 1;
        self.live += 1;
        self.register(idx);
        self.hint_best.map(|(_, w)| w)
    }

    /// Have all logged accessors finished? (The `with_region` wait.)
    pub(crate) fn all_finished(&self) -> bool {
        self.slots
            .iter()
            .filter_map(|s| s.access.as_ref())
            .all(|a| a.node.is_finished())
    }

    /// Live entries currently held (test observability).
    #[cfg(test)]
    pub(crate) fn live_len(&self) -> usize {
        self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Priority;

    fn node(id: u64) -> Arc<TaskNode> {
        TaskNode::new(TaskId(id), "t", Priority::Normal)
    }

    fn finish(n: &Arc<TaskNode>) {
        n.install_body(|| {});
        n.take_body().run_in_place();
        let _ = n.complete(false, |_| {});
    }

    type Emitted = Vec<(u64, EdgeKind)>;

    /// Record one access of task `n`, returning the emitted
    /// `(producer id, kind)` sequence.
    fn record(
        log: &mut RegionLog,
        region: &Region,
        write: bool,
        n: &Arc<TaskNode>,
        prune: bool,
    ) -> Emitted {
        let mut out = Vec::new();
        log.record(region, write, n.id(), n, prune, true, &mut |p, k| {
            out.push((p.id().0, k))
        });
        out
    }

    /// Same-region accesses per block: shadowing leaves exactly the last
    /// writer and the readers after it, so each access's edges follow
    /// from that per-block state alone.
    #[test]
    fn block_pattern_edges_come_from_the_last_writer() {
        let mut log = RegionLog::default();
        let mut state: Vec<(Option<u64>, Vec<u64>)> = vec![(None, Vec::new()); 8];
        for i in 0..40usize {
            let n = node(i as u64 + 1);
            let b = i % 8;
            let write = i % 3 != 0;
            let got = record(&mut log, &Region::d1(b * 10..=b * 10 + 9), write, &n, false);
            let (last, readers) = &mut state[b];
            let mut want: Emitted = Vec::new();
            if write {
                want.extend(last.map(|w| (w, EdgeKind::Output)));
                want.extend(readers.iter().map(|&r| (r, EdgeKind::Anti)));
                *last = Some(n.id().0);
                readers.clear();
            } else {
                want.extend(last.map(|w| (w, EdgeKind::True)));
                readers.push(n.id().0);
            }
            assert_eq!(got, want, "access {}", i);
            let held: usize = state
                .iter()
                .map(|(w, r)| usize::from(w.is_some()) + r.len())
                .sum();
            assert_eq!(log.live_len(), held, "access {}", i);
        }
    }

    /// Shadowing uses N-D containment with the conservative arity rule:
    /// a 1-D write covers 2-D entries, `Region::all()` covers everything,
    /// and a write that only overlaps an entry keeps it.
    #[test]
    fn full_and_2d_writes_shadow_contained_entries() {
        use EdgeKind::{Anti, Output, True};
        let mut log = RegionLog::default();
        let n: Vec<_> = (0..=8).map(node).collect();
        assert!(record(&mut log, &Region::d2(0..=3, 0..=3), true, &n[1], false).is_empty());
        assert!(record(&mut log, &Region::d2(2..=5, 4..=7), true, &n[2], false).is_empty());
        // Missing dim 1 is full: the 1-D write contains both tiles.
        let got = record(&mut log, &Region::d1(0..=9), true, &n[3], false);
        assert_eq!(got, vec![(1, Output), (2, Output)]);
        assert_eq!(log.live_len(), 1);
        let got = record(&mut log, &Region::d2(0..=0, 0..=0), false, &n[4], false);
        assert_eq!(got, vec![(3, True)]);
        let got = record(&mut log, &Region::all(), true, &n[5], false);
        assert_eq!(got, vec![(3, Output), (4, Anti)]);
        assert_eq!(log.live_len(), 1);
        // A bounded write cannot contain `all()`: both stay live.
        let got = record(&mut log, &Region::d1(0..=1), true, &n[6], false);
        assert_eq!(got, vec![(5, Output)]);
        let got = record(&mut log, &Region::d1(100..=220), false, &n[7], false);
        assert_eq!(got, vec![(5, True)]);
        // Overlapping [0, 1] without containing it keeps task 6's entry.
        let got = record(&mut log, &Region::d1(1..=2), true, &n[8], false);
        assert_eq!(got, vec![(5, Output), (6, Output)]);
        assert_eq!(log.live_len(), 4);
    }

    /// Figure 7's multisort shape: each chunk is rewritten many times by
    /// tasks that never finish, then reads span all chunks. Each read
    /// sees only the last writer of each chunk, and the log holds the
    /// live frontier, not the history — in both pruning modes.
    #[test]
    fn rewritten_chunks_keep_one_writer_per_chunk() {
        const CHUNK: usize = 4096;
        let (chunks, rewrites, readers) = (16usize, 6usize, 3usize);
        for prune in [false, true] {
            let mut log = RegionLog::default();
            let mut ids = 0u64;
            let mut keep = Vec::new(); // the tasks never finish
            let mut last = vec![0u64; chunks];
            for _ in 0..rewrites {
                for (c, last) in last.iter_mut().enumerate() {
                    ids += 1;
                    let n = node(ids);
                    let r = Region::d1(c * CHUNK..=(c + 1) * CHUNK - 1);
                    record(&mut log, &r, true, &n, prune);
                    *last = ids;
                    keep.push(n);
                }
            }
            assert_eq!(log.live_len(), chunks, "prune={}", prune);
            for k in 0..readers {
                ids += 1;
                let n = node(ids);
                let got = record(
                    &mut log,
                    &Region::d1(0..=chunks * CHUNK - 1),
                    false,
                    &n,
                    prune,
                );
                let want: Emitted = last.iter().map(|&w| (w, EdgeKind::True)).collect();
                assert_eq!(got, want, "prune={} reader {}", prune, k);
                assert!(log.live_len() <= chunks + k + 1, "prune={}", prune);
                keep.push(n);
            }
        }
    }

    /// Pruning drops only finished entries: with a trailing completion
    /// frontier, the pruning log emits exactly the recording log's edges
    /// whose producer is still unfinished, in the same order.
    #[test]
    fn pruning_drops_finished_entries_and_preserves_edges() {
        let mut recording = RegionLog::default();
        let mut pruning = RegionLog::default();
        let nodes: Vec<_> = (1..=60).map(node).collect();
        for (i, n) in nodes.iter().enumerate() {
            if i >= 4 {
                finish(&nodes[i - 4]);
            }
            let region = match i % 4 {
                0 => Region::d1((i % 5) * 8..=(i % 5) * 8 + 11),
                1 => Region::d1((i % 7) * 6..=(i % 7) * 6 + 3),
                2 => Region::d2((i % 3) * 10..=(i % 3) * 10 + 14, 0..=3),
                _ => Region::d1(0..=39),
            };
            let write = i % 5 != 2;
            let mut want = Vec::new();
            recording.record(&region, write, n.id(), n, false, false, &mut |p, k| {
                if !p.is_finished() {
                    want.push((p.id().0, k));
                }
            });
            let got = record(&mut pruning, &region, write, n, true);
            assert_eq!(got, want, "access {}", i);
            assert!(pruning.live_len() <= recording.live_len());
        }
    }

    #[test]
    fn self_accesses_do_not_self_depend() {
        let mut log = RegionLog::default();
        let n = node(1);
        assert!(record(&mut log, &Region::d1(0..=9), true, &n, true).is_empty());
        assert!(record(&mut log, &Region::d1(5..=14), true, &n, true).is_empty());
        // A task's own entries are never shadowed by its own writes.
        assert!(record(&mut log, &Region::d1(0..=20), true, &n, true).is_empty());
        assert_eq!(log.live_len(), 3);
    }

    #[test]
    fn all_finished_tracks_completion() {
        let mut log = RegionLog::default();
        let n = node(1);
        record(&mut log, &Region::d1(0..=3), true, &n, true);
        assert!(!log.all_finished());
        finish(&n);
        assert!(log.all_finished());
    }

    #[test]
    fn range_growth_rebuilds_and_keeps_entries_queryable() {
        let mut log = RegionLog::default();
        record(&mut log, &Region::d1(0..=9), true, &node(1), false);
        // Far outside the initial range: forces a rebuild.
        record(
            &mut log,
            &Region::d1(100_000..=100_009),
            true,
            &node(2),
            false,
        );
        // Overlaps the first entry: the rebuilt index must still find it.
        let hit = record(&mut log, &Region::d1(5..=6), false, &node(3), false);
        assert_eq!(hit, vec![(1, EdgeKind::True)]);
    }

    /// For random access sequences — random 1-D/2-D/full regions,
    /// random directions, tasks with one or more accesses, random
    /// completion interleavings, pruning on and off — the tile-indexed
    /// log emits **exactly** the edge sequence (producer id + kind, in
    /// order) of a brute-force scan over every logged access with the
    /// same shadowing rule. The runtime-level oracle over recorded
    /// graphs lives in `tests/regions.rs`.
    mod equivalence {
        use super::*;
        use proptest::prelude::*;

        /// One scripted access: region shape, direction, how many of the
        /// oldest unfinished tasks complete first, and whether it joins
        /// the previous (still unfinished) task.
        type Op = (usize, usize, usize, usize, usize, usize);

        fn op() -> impl Strategy<Value = Op> {
            (
                0..6usize,
                0..90usize,
                1..24usize,
                0..2usize,
                0..3usize,
                0..4usize,
            )
        }

        fn region_of(kind: usize, a: usize, len: usize) -> Region {
            match kind {
                0 => Region::d1(a..=a + len - 1),
                1 => Region::all(),
                2 => Region::d2(a..=a + len - 1, a / 2..=a / 2 + len),
                3 => Region::d2(RegionBound::Full, RegionBound::Bounds(a, a + len)),
                // Far coordinates: exercises range growth/rebuild.
                4 => Region::d1(a * 100..=a * 100 + len),
                _ => Region::d1(a..=a + 2 * len),
            }
        }

        /// The reference: every logged access in insertion order, scanned
        /// in full by each query.
        #[derive(Default)]
        struct BruteLog {
            entries: Vec<Access>,
        }

        impl BruteLog {
            fn record(
                &mut self,
                region: &Region,
                write: bool,
                n: &Arc<TaskNode>,
                prune: bool,
            ) -> Emitted {
                let mut out = Vec::new();
                self.entries.retain(|e| {
                    if prune && e.node.is_finished() {
                        return false;
                    }
                    let Some(kind) = edge_kind(e.write, write) else {
                        return true;
                    };
                    if e.node.id() == n.id() || !e.region.overlaps(region) {
                        return true;
                    }
                    out.push((e.node.id().0, kind));
                    !(write && region.contains(&e.region))
                });
                self.entries.push(Access {
                    region: region.clone(),
                    write,
                    node: Arc::clone(n),
                });
                out
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn indexed_log_emits_exactly_the_brute_force_edge_sequence(
                ops in proptest::collection::vec(op(), 1..80),
                prune in 0..2usize,
            ) {
                let prune = prune == 1;
                let mut brute = BruteLog::default();
                let mut log = RegionLog::default();
                let mut tasks: Vec<Arc<TaskNode>> = Vec::new();
                let mut next_unfinished = 0usize;
                for (i, &(kind, a, len, write, fin, join)) in ops.iter().enumerate() {
                    // Complete `fin` of the oldest unfinished tasks.
                    for _ in 0..fin {
                        if next_unfinished < tasks.len() {
                            finish(&tasks[next_unfinished]);
                            next_unfinished += 1;
                        }
                    }
                    if join != 0 || next_unfinished == tasks.len() {
                        tasks.push(node(i as u64 + 1));
                    }
                    let n = Arc::clone(tasks.last().unwrap());
                    let region = region_of(kind, a, len);
                    let want = brute.record(&region, write == 1, &n, prune);
                    let got = record(&mut log, &region, write == 1, &n, prune);
                    prop_assert_eq!(got, want, "access {} diverged (prune={})", i, prune);
                    if !prune {
                        prop_assert_eq!(log.live_len(), brute.entries.len());
                    }
                }
                prop_assert_eq!(
                    log.all_finished(),
                    brute.entries.iter().all(|e| e.node.is_finished())
                );
            }
        }
    }
}
