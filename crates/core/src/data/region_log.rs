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
//! frontier instead of program history. An entry whose task finished
//! failed or cancelled is the exception: a later conflicting access
//! still links to it and is cancelled, as a late whole-object reader of
//! a failed writer is, until a containing write shadows it or a failure
//! drain ([`Runtime::wait_all`](crate::Runtime::wait_all),
//! `Session::wait`) has reported the failure. A query that meets such
//! an entry asks the linker for the drain count; if a drain has happened
//! since, the log drops every poisoned finished entry and the query runs
//! again. With recording on, only shadowing frees entries: the recorder
//! wants edges from finished producers too.
//!
//! **Read groups:** Figure 7's merge tasks each read both whole source
//! halves, so with k chunk tasks per merge every reader took one edge per
//! chunk writer, and every later chunk writer one edge per reader — k²
//! edges per merge. The object path already stands for "all readers of
//! this version" with one counter ([`ReadWindow`]); this is the region
//! log's counterpart (cf. Pérez, Badia & Labarta, *Handling task
//! dependencies under strided and aliased references*, ICS 2010). A
//! read entry is **open** while no overlapping write has been logged
//! after it. A second read of exactly an open entry's region (same
//! session, another task) turns the entry into a **group** backed by two
//! bodiless joins (`graph::node`):
//!
//! * the **in-join** waits for the writers the opening scan matched, and
//!   every member waits for it;
//! * the **out-join** waits for every member, and stands in for the
//!   entry's task, so a write that overlaps the group takes one edge
//!   from it.
//!
//! Every later identical read joins in O(1): in-join → reader and reader
//! → out-join, no scan and no entry of its own. Joining without a scan
//! is exact because nothing a read conflicts with can appear while the
//! group is open: a later overlapping write seals it, and a write that
//! shadows one of its writers overlaps it too. The first overlapping
//! write **seals** the group and drops the out-join's **guard**, which
//! it holds while open; an open group counts as finished (for pruning
//! and [`RegionLog::all_finished`]) once the out-join holds only that
//! guard. The rules the design keeps:
//!
//! * **Lazily, on the second identical read**, found through a 4-entry
//!   cache of recently logged reads, each checked against its dim-0
//!   bound and then the slot's region and generation: reads that never
//!   repeat a region (stencil bands) pay four bound comparisons and no
//!   allocation.
//! * **Self-membership:** a member that then writes over the group is
//!   ordered after the other members directly — the out-join waits for
//!   the writer itself, so its edge would be a cycle — and its later
//!   writes to the group take no edge. Its containing write shadows the
//!   other members and keeps its own read, as for plain entries: the
//!   group becomes that plain read, at the place in the insertion order
//!   the member's read would have had.
//! * **No other cycles:** a task the in-join waits for (one of the
//!   writers the opening scan matched) does not join, and a read that
//!   conflicts with a write of its own task does not open a group. Both
//!   arise only when two tasks' declarations interleave. A repeated read
//!   by the group's last member is logged as a plain entry.
//! * **Sessions:** a group and its joins belong to the opener's session
//!   and only reads of that session join it, so the walk's session check
//!   gives every edge the direct path's semantics.
//! * **Recorded graph:** groups form with recording on and off; the
//!   recorder gets the task-to-task edges of the direct path (a joining
//!   reader True edges from the group's writers, a write over a group
//!   Anti edges from every member, in join order at the group's place
//!   in the insertion order).
//! * **Poison:** a join linked to a producer that finished poisoned, or
//!   released by a poisoned walk, completes cancelled and poisons its
//!   successors, so cancelled sets stay the recorded graph's
//!   descendants.
//!
//! [`ReadWindow`]: crate::data::version
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

/// How a query's matches become edges. The spawner implements it over
/// the task it is analysing; the unit tests over bare nodes.
pub(crate) trait Linker {
    /// `producer -> task`, recorded and scheduled: the direct path.
    fn edge(&self, producer: &Arc<TaskNode>, kind: EdgeKind);
    /// `producer -> task` in the recorded graph only: a join carries the
    /// scheduler link.
    fn record(&self, producer: TaskId, kind: EdgeKind);
    /// `producer -> join`, scheduled only.
    fn feed_join(&self, producer: &Arc<TaskNode>, join: &Arc<TaskNode>, kind: EdgeKind);
    /// `join -> task`, scheduled only.
    fn await_join(&self, join: &Arc<TaskNode>, kind: EdgeKind);
    /// Failure drains that reported something so far
    /// ([`Runtime::wait_all`](crate::Runtime::wait_all) and
    /// `Session::wait`): pruning keeps poisoned entries until the next.
    fn drains(&self) -> u64;
}

/// What one recorded access did about read groups.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Grouping {
    /// Logged an entry of its own (every write, and most reads).
    None,
    /// Turned an open identical read into a group.
    Opened,
    /// Joined an open group without a scan.
    Joined,
}

/// One logged access. Scans walk these, so a group's state lives in
/// `RegionLog::groups` instead: with it inline, a slot grows from 64 to
/// 72 bytes and no longer fits one cache line.
struct Access {
    region: Region,
    /// The accessing task; the out-join once the entry is a group.
    node: Arc<TaskNode>,
    write: bool,
    /// A read that no overlapping write has followed yet.
    open: bool,
    /// A read group, whose state is `RegionLog::groups[slot]`.
    grouped: bool,
}

/// A read group: see the module docs.
struct Group {
    in_join: Arc<TaskNode>,
    /// In join order, each with the insertion sequence number its read
    /// would have had as an entry of its own; kept for self-membership
    /// and the recorded graph.
    members: Vec<(u64, Arc<TaskNode>)>,
    /// The writers the opening scan matched, in insertion order: what a
    /// joiner records, and the tasks that may not join (the in-join
    /// waits for them).
    writers: Vec<TaskId>,
    /// The newest of `writers`: a task spawned after it is none of them.
    newest_writer: TaskId,
    /// The opening scan's locality hint, the vote of every joiner.
    hint: Option<usize>,
    /// The member a write of its own has already ordered after every
    /// other member.
    ordered: Option<TaskId>,
}

impl Access {
    /// An overlapping write follows this read: close it to new members.
    /// A group drops its out-join's guard, so the out-join completes once
    /// every member has.
    fn seal(&mut self) {
        if std::mem::take(&mut self.open) && self.grouped {
            self.node.release_join_guard();
        }
    }

    /// An open group's out-join still holds its guard.
    fn open_group(&self) -> bool {
        !self.write && self.grouped && self.open
    }

    /// Has every access behind this entry finished?
    fn finished(&self) -> bool {
        if self.open_group() {
            self.node.holds_only_guard()
        } else {
            self.node.is_finished()
        }
    }

    /// Did one of them fail or get cancelled? Meaningful once
    /// [`finished`](Self::finished): pruning keeps such an entry until a
    /// failure drain has reported it (module docs).
    fn poisoned(&self) -> bool {
        if self.open_group() {
            self.node.cancel_requested()
        } else {
            self.node.finished_poisoned()
        }
    }
}

impl Group {
    /// May `node` join? Not a task the in-join waits for (that is a
    /// cycle), and not the last member again: a task's accesses are
    /// declared back to back, so a repeated read of its own stays a
    /// plain entry, as it would be without groups.
    fn admits(&self, node: &Arc<TaskNode>) -> bool {
        let me = node.id();
        !self.members.last().is_some_and(|(_, m)| Arc::ptr_eq(m, node))
            && (me > self.newest_writer || !self.writers.contains(&me))
    }

    /// Order a write of `node` after every member: through the out-join,
    /// or straight from the other members when the writer is a member
    /// itself (module docs). Returns whether it is.
    fn order_writer<L: Linker>(
        &mut self,
        out_join: &Arc<TaskNode>,
        node: &Arc<TaskNode>,
        prune: bool,
        linker: &L,
    ) -> bool {
        if self.members.iter().any(|(_, m)| Arc::ptr_eq(m, node)) {
            let first = self.ordered != Some(node.id());
            for (_, m) in self.members.iter().filter(|(_, m)| !Arc::ptr_eq(m, node)) {
                if first {
                    linker.edge(m, EdgeKind::Anti);
                } else if !prune {
                    // Already waits for them: recorded only, as the
                    // direct path would record it again.
                    linker.record(m.id(), EdgeKind::Anti);
                }
            }
            self.ordered = Some(node.id());
            true
        } else {
            linker.await_join(out_join, EdgeKind::Anti);
            if !prune {
                for (_, m) in &self.members {
                    linker.record(m.id(), EdgeKind::Anti);
                }
            }
            false
        }
    }
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

/// Recently logged reads an identical read may join.
const RECENT: usize = 4;

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
    /// Recently logged reads, round robin: the candidates an identical
    /// read may join, with their dim-0 bound so that a read of another
    /// region is turned away without touching the slot.
    recent: [Option<(EntryRef, RegionBound)>; RECENT],
    recent_next: usize,
    /// The state of the read group at each grouped slot, by slot index.
    groups: Vec<Option<Box<Group>>>,
    /// The current query met a poisoned entry (pruning only).
    poison_seen: bool,
    /// Failure drains seen at the last heal.
    drains: u64,
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
            recent: [None; RECENT],
            recent_next: 0,
            groups: Vec::new(),
            poison_seen: false,
            drains: 0,
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
        let a = slot.access.take().expect("freeing a live slot");
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(idx);
        self.live -= 1;
        if a.grouped {
            self.free_group(idx, a);
        }
    }

    /// Drop the read group at `idx`, whose entry `a` was just freed: an
    /// open group's out-join drops its guard.
    #[cold]
    fn free_group(&mut self, idx: u32, mut a: Access) {
        a.seal();
        self.groups[idx as usize] = None;
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

    /// Drop every prunable entry and rebuild the tile lists (amortised:
    /// triggered when enough records have happened that untouched tiles
    /// may be full of finished entries, and after a failure drain, which
    /// `healed` the poisoned ones).
    fn sweep(&mut self, healed: bool) {
        for idx in 0..self.slots.len() as u32 {
            let prunable = matches!(
                &self.slots[idx as usize].access,
                Some(a) if a.finished() && (healed || !a.poisoned())
            );
            if prunable {
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
    /// stale/prunable handles. Read-after-read pairs are filtered here
    /// (they can never emit an edge), so read-heavy queries don't sort
    /// and walk useless matches. A write seals every read it overlaps,
    /// its own task's included.
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
            let a = slot.access.as_ref().unwrap();
            if prune && a.finished() {
                if a.poisoned() {
                    // Kept for late accessors (module docs); `record`
                    // asks whether a drain has reported it since.
                    self.poison_seen = true;
                } else {
                    // About to be pruned: an overlapping finished writer
                    // is exactly a locality-hint source.
                    if self.want_hint
                        && a.write
                        && a.node.id() != me
                        && a.region.overlaps(region)
                    {
                        let (seq, w) = (slot.seq, a.node.ran_on());
                        if w != HINT_NONE && self.hint_best.is_none_or(|(s, _)| seq > s) {
                            self.hint_best = Some((seq, w));
                        }
                    }
                    self.free_slot(r.idx);
                    let list = if wide { &mut self.wide } else { &mut self.tiles[tile] };
                    list.swap_remove(i);
                    continue;
                }
            }
            slot.stamp = self.query_stamp;
            if edge_kind(a.write, write).is_some() && a.region.overlaps(region) {
                // This task's own entries too: `record` seals them.
                self.matches.push((slot.seq, r.idx));
            }
            i += 1;
        }
    }

    /// The open entry an identical read of `node` may join: a group of
    /// its session, or another task's plain read that a group can open
    /// on. Only recently logged reads are candidates.
    fn joinable(&self, region: &Region, node: &Arc<TaskNode>) -> Option<EntryRef> {
        let bound = dim0(region);
        let candidates = self.recent.iter().flatten().filter(|(_, b)| *b == bound);
        candidates.map(|&(r, _)| r).find(|r| {
            let slot = &self.slots[r.idx as usize];
            slot.gen == r.gen
                && slot.access.as_ref().is_some_and(|a| {
                    a.open
                        && a.region == *region
                        && a.node.same_session(node)
                        && if a.grouped {
                            self.groups[r.idx as usize].as_ref().unwrap().admits(node)
                        } else {
                            !Arc::ptr_eq(&a.node, node)
                        }
                })
        })
    }

    /// Did a query match an entry of task `me`'s own? A read
    /// that conflicts with a write of its own task opens no group: the
    /// in-join, which the task waits for, could not wait for that write.
    fn matched_own(&self, me: TaskId) -> bool {
        let own = |&(_, idx): &(u64, u32)| {
            self.slots[idx as usize].access.as_ref().unwrap().node.id() == me
        };
        self.matches.iter().any(own)
    }

    fn is_live(&self, r: EntryRef) -> bool {
        let slot = &self.slots[r.idx as usize];
        slot.gen == r.gen && slot.access.is_some()
    }

    /// A read joins the open group at `idx`: in-join → reader and reader
    /// → out-join, in O(1). Returns the group's locality hint. A join
    /// fed by a failed writer whose failure a drain has since reported
    /// is healed first, and the read starts over.
    #[cold]
    #[inline(never)]
    fn join_group<L: Linker>(
        &mut self,
        idx: u32,
        region: &Region,
        node: &Arc<TaskNode>,
        prune: bool,
        hint: bool,
        linker: &L,
    ) -> (Option<usize>, Grouping) {
        let g = self.groups[idx as usize].as_mut().unwrap();
        if prune && g.in_join.finished_poisoned() && self.heal(linker) {
            return self.record(region, false, node, prune, hint, linker);
        }
        let a = self.slots[idx as usize].access.as_ref().unwrap();
        let g = self.groups[idx as usize].as_mut().unwrap();
        linker.await_join(&g.in_join, EdgeKind::True);
        if !prune {
            // `admits` keeps this task out of `writers`.
            for &w in &g.writers {
                linker.record(w, EdgeKind::True);
            }
        }
        linker.feed_join(node, &a.node, EdgeKind::Anti);
        g.members.push((self.next_seq, Arc::clone(node)));
        self.next_seq += 1;
        (g.hint, Grouping::Joined)
    }

    /// Turn the plain open read at `idx` into a group: the writers the
    /// current query matched (`self.matches`) feed a new in-join, and
    /// the entry's task and `node` become the members.
    #[cold]
    #[inline(never)]
    fn open_group<L: Linker>(
        &mut self,
        idx: u32,
        node: &Arc<TaskNode>,
        prune: bool,
        hint: bool,
        linker: &L,
    ) -> (Option<usize>, Grouping) {
        let mut g = Group {
            in_join: TaskNode::new_join(node),
            members: Vec::new(),
            writers: Vec::new(),
            newest_writer: TaskId(0),
            hint: None,
            ordered: None,
        };
        // A read matches only writes.
        let matches = std::mem::take(&mut self.matches);
        for &(seq, w) in &matches {
            let a = &self.slots[w as usize].access.as_ref().unwrap().node;
            linker.feed_join(a, &g.in_join, EdgeKind::True);
            if !prune {
                linker.record(a.id(), EdgeKind::True);
            }
            g.writers.push(a.id());
            g.newest_writer = g.newest_writer.max(a.id());
            if hint && a.is_finished() {
                let w = a.ran_on();
                if w != HINT_NONE && self.hint_best.is_none_or(|(s, _)| seq > s) {
                    self.hint_best = Some((seq, w));
                }
            }
        }
        self.matches = matches;
        g.hint = self.hint_best.map(|(_, w)| w);
        g.in_join.release_join_guard();
        linker.await_join(&g.in_join, EdgeKind::True);
        let slot = &mut self.slots[idx as usize];
        let a = slot.access.as_mut().unwrap();
        let first = std::mem::replace(&mut a.node, TaskNode::new_join(node));
        linker.feed_join(&first, &a.node, EdgeKind::Anti);
        linker.feed_join(node, &a.node, EdgeKind::Anti);
        a.grouped = true;
        g.members = vec![(slot.seq, first), (self.next_seq, Arc::clone(node))];
        self.next_seq += 1;
        let hint_w = g.hint;
        let idx = idx as usize;
        if self.groups.len() <= idx {
            self.groups.resize_with(idx + 1, || None);
        }
        self.groups[idx] = Some(Box::new(g));
        (hint_w, Grouping::Opened)
    }

    /// Analyse one access of task `node`: link an edge for every live
    /// logged access of another task that overlaps `region` and
    /// conflicts with it (in insertion order), free the entries a write
    /// shadows, prune prunable entries when `prune`, then append the
    /// access — or open or join a read group instead (module docs).
    /// `prune` also means "no structural recording": the recorded-only
    /// edges of groups are skipped.
    ///
    /// When `hint` is set, the query also harvests a **locality hint**:
    /// the worker that ran the most recently logged overlapping
    /// *finished* writer it saw (`None` when there was none). The hint is
    /// advisory and never influences the emitted edges.
    pub(crate) fn record<L: Linker>(
        &mut self,
        region: &Region,
        write: bool,
        node: &Arc<TaskNode>,
        prune: bool,
        hint: bool,
        linker: &L,
    ) -> (Option<usize>, Grouping) {
        let me = node.id();
        let opener = if write {
            None
        } else {
            match self.joinable(region, node) {
                Some(r) if self.slots[r.idx as usize].access.as_ref().unwrap().grouped => {
                    return self.join_group(r.idx, region, node, prune, hint, linker);
                }
                found => found,
            }
        };
        self.query_stamp += 1;
        self.since_sweep += 1;
        self.want_hint = hint;
        self.hint_best = None;
        self.poison_seen = false;
        if prune && self.since_sweep > 2 * self.slots.len().max(64) {
            self.sweep(false);
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
        if self.poison_seen && self.heal(linker) {
            // Nothing is linked yet: query the healed log afresh.
            return self.record(region, write, node, prune, hint, linker);
        }

        // Emit in insertion (program) order.
        self.matches.sort_unstable_by_key(|&(seq, _)| seq);
        // Pruning may just have dropped the entry a group was to open
        // on, and a write of this task's own cannot feed an in-join.
        if let Some(r) = opener.filter(|&r| self.is_live(r) && !self.matched_own(me)) {
            return self.open_group(r.idx, node, prune, hint, linker);
        }
        let matches = std::mem::take(&mut self.matches);
        for &(seq, idx) in &matches {
            let a = self.slots[idx as usize].access.as_mut().unwrap();
            if write && !a.write {
                // An overlapping write follows this read (module docs),
                // before anything links to its group.
                a.seal();
            }
            if a.node.id() == me {
                continue; // a task never depends on itself
            }
            // Structural-recording mode keeps finished entries in the
            // match set: harvest the hint here (prune mode harvested it
            // on the free path in `scan_list`).
            if hint && a.write && a.node.is_finished() {
                let w = a.node.ran_on();
                if w != HINT_NONE && self.hint_best.is_none_or(|(s, _)| seq > s) {
                    self.hint_best = Some((seq, w));
                }
            }
            let member = if a.grouped {
                let g = self.groups[idx as usize].as_mut().unwrap();
                g.order_writer(&a.node, node, prune, linker)
            } else {
                if let Some(kind) = edge_kind(a.write, write) {
                    linker.edge(&a.node, kind);
                }
                false
            };
            // Write shadowing (module docs): every later access that
            // overlaps `a` conflicts with this write, whose new edge
            // from `a` keeps the ordering; `a` itself is dead weight.
            if write && region.contains(&a.region) {
                if member {
                    self.keep_own_read(idx, node);
                } else {
                    self.free_slot(idx);
                }
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
                    open: !write,
                    grouped: false,
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
                        open: !write,
                        grouped: false,
                    }),
                });
                idx
            }
        };
        self.next_seq += 1;
        self.live += 1;
        self.register(idx);
        if !write {
            let r = EntryRef {
                idx,
                gen: self.slots[idx as usize].gen,
            };
            self.recent[self.recent_next] = Some((r, dim0(region)));
            self.recent_next = (self.recent_next + 1) % RECENT;
        }
        (self.hint_best.map(|(_, w)| w), Grouping::None)
    }

    /// A member's write contains its group's region. Own entries are
    /// never shadowed: of a group, the writer's own read stays and the
    /// other members go, so the sealed group becomes that plain read, at
    /// its place in the insertion order.
    #[cold]
    fn keep_own_read(&mut self, idx: u32, node: &Arc<TaskNode>) {
        let g = self.groups[idx as usize].take().unwrap();
        let own = g.members.iter().find(|(_, m)| Arc::ptr_eq(m, node));
        let slot = &mut self.slots[idx as usize];
        slot.seq = own.unwrap().0;
        let a = slot.access.as_mut().unwrap();
        a.node = Arc::clone(node);
        a.grouped = false;
    }

    /// If a failure drain has happened since the last heal, every failure
    /// behind a poisoned entry has been reported: drop the entries that
    /// kept it (module docs). Returns whether it did.
    #[cold]
    fn heal<L: Linker>(&mut self, linker: &L) -> bool {
        let drains = linker.drains();
        if drains == self.drains {
            return false;
        }
        self.drains = drains;
        self.sweep(true);
        true
    }

    /// Have all logged accessors finished? (The `with_region` wait.) An
    /// open group counts once its out-join holds only its guard.
    pub(crate) fn all_finished(&self) -> bool {
        self.slots
            .iter()
            .filter_map(|s| s.access.as_ref())
            .all(Access::finished)
    }

    /// Live entries currently held (test observability).
    #[cfg(test)]
    pub(crate) fn live_len(&self) -> usize {
        self.live
    }

    /// Accesses the live entries stand for: a group counts its members.
    #[cfg(test)]
    fn held(&self) -> usize {
        let held = |(i, s): (usize, &Slot)| match &s.access {
            None => 0,
            Some(a) if a.grouped => self.groups[i].as_ref().unwrap().members.len(),
            Some(_) => 1,
        };
        self.slots.iter().enumerate().map(held).sum()
    }

    /// Has `node` already been ordered after the other members of a live
    /// read group that `region` overlaps (a repeat write of a member)?
    #[cfg(test)]
    fn orders_member(&self, region: &Region, node: &Arc<TaskNode>) -> bool {
        self.slots.iter().enumerate().any(|(i, s)| {
            s.access.as_ref().is_some_and(|a| {
                a.grouped
                    && a.region.overlaps(region)
                    && self.groups[i].as_ref().unwrap().ordered == Some(node.id())
            })
        })
    }

    /// Does `region` overlap a live read group?
    #[cfg(test)]
    fn overlaps_group(&self, region: &Region) -> bool {
        self.slots
            .iter()
            .filter_map(|s| s.access.as_ref())
            .any(|a| a.grouped && a.region.overlaps(region))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Priority;
    use std::cell::{Cell, RefCell};
    use std::collections::HashMap;

    fn node(id: u64) -> Arc<TaskNode> {
        TaskNode::new(TaskId(id), "t", Priority::Normal)
    }

    fn finish(n: &Arc<TaskNode>) {
        n.install_body(|| {});
        n.take_body().run_in_place();
        let _ = n.complete(false, |_| {});
    }

    type Emitted = Vec<(u64, EdgeKind)>;

    /// `succ` waits for `pred`, the runtime's link protocol minus the
    /// link pool: an already finished producer adds nothing, and one that
    /// finished poisoned cancels the successor.
    fn wait_for(pred: &Arc<TaskNode>, succ: &Arc<TaskNode>) {
        succ.retain_dep();
        if !pred.add_successor(succ) {
            assert!(!succ.release_dep(), "guard must still be held");
            if pred.finished_poisoned() {
                succ.request_cancel();
            }
        }
    }

    /// Each join's producers by address, holding the join so that its
    /// address, the key, is not reused.
    type JoinFeeds = HashMap<usize, (Arc<TaskNode>, Vec<Arc<TaskNode>>)>;

    thread_local! {
        /// What each join was linked to wait for, so a link from a join
        /// can be expanded to the tasks it stands for.
        static JOINS: RefCell<JoinFeeds> = RefCell::new(HashMap::new());
        /// What [`Linker::drains`] reports.
        static DRAINS: Cell<u64> = const { Cell::new(0) };
    }

    /// A linker over bare nodes that links for real (completing nodes
    /// drives the joins) and logs two views of each access: `recorded`,
    /// the structural recorder's task-to-task edges, and `effective`,
    /// the tasks the access's task waits for with each join expanded to
    /// its producers.
    struct TestLinker {
        task: Arc<TaskNode>,
        recorded: RefCell<Emitted>,
        effective: RefCell<Vec<(Arc<TaskNode>, EdgeKind)>>,
        /// Join links made (in either direction).
        join_links: Cell<usize>,
    }

    impl TestLinker {
        fn new(task: &Arc<TaskNode>) -> Self {
            TestLinker {
                task: Arc::clone(task),
                recorded: RefCell::new(Vec::new()),
                effective: RefCell::new(Vec::new()),
                join_links: Cell::new(0),
            }
        }

        fn effective_ids(&self) -> Emitted {
            self.effective
                .borrow()
                .iter()
                .map(|(p, k)| (p.id().0, *k))
                .collect()
        }
    }

    impl Linker for TestLinker {
        fn edge(&self, producer: &Arc<TaskNode>, kind: EdgeKind) {
            self.recorded.borrow_mut().push((producer.id().0, kind));
            self.effective
                .borrow_mut()
                .push((Arc::clone(producer), kind));
            wait_for(producer, &self.task);
        }

        fn record(&self, producer: TaskId, kind: EdgeKind) {
            self.recorded.borrow_mut().push((producer.0, kind));
        }

        fn feed_join(&self, producer: &Arc<TaskNode>, join: &Arc<TaskNode>, _: EdgeKind) {
            assert!(join.is_join() && !producer.is_join());
            self.join_links.set(self.join_links.get() + 1);
            JOINS.with(|j| {
                j.borrow_mut()
                    .entry(Arc::as_ptr(join) as usize)
                    .or_insert_with(|| (Arc::clone(join), Vec::new()))
                    .1
                    .push(Arc::clone(producer))
            });
            wait_for(producer, join);
        }

        fn await_join(&self, join: &Arc<TaskNode>, kind: EdgeKind) {
            assert!(join.is_join());
            self.join_links.set(self.join_links.get() + 1);
            JOINS.with(|j| {
                if let Some((_, producers)) = j.borrow().get(&(Arc::as_ptr(join) as usize)) {
                    let mut eff = self.effective.borrow_mut();
                    eff.extend(producers.iter().map(|p| (Arc::clone(p), kind)));
                }
            });
            wait_for(join, &self.task);
        }

        fn drains(&self) -> u64 {
            DRAINS.with(Cell::get)
        }
    }

    /// Record one access of task `n`, returning the linker and what the
    /// access did about groups.
    fn access(
        log: &mut RegionLog,
        region: &Region,
        write: bool,
        n: &Arc<TaskNode>,
        prune: bool,
    ) -> (TestLinker, Grouping) {
        let linker = TestLinker::new(n);
        let (_, grouping) = log.record(region, write, n, prune, true, &linker);
        (linker, grouping)
    }

    /// Record one access of task `n`, returning the tasks it waits for
    /// (`(producer id, kind)`, joins expanded).
    fn record(
        log: &mut RegionLog,
        region: &Region,
        write: bool,
        n: &Arc<TaskNode>,
        prune: bool,
    ) -> Emitted {
        access(log, region, write, n, prune).0.effective_ids()
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
            let (rec, _) = access(&mut recording, &region, write, n, false);
            let want: Emitted = rec
                .effective
                .borrow()
                .iter()
                .filter(|(p, _)| !p.is_finished())
                .map(|(p, k)| (p.id().0, *k))
                .collect();
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

    fn region_x() -> Region {
        Region::d1(0..=63)
    }

    /// The out-join of the log's only group.
    fn out_join(log: &RegionLog) -> Arc<TaskNode> {
        let a = log.slots.iter().filter_map(|s| s.access.as_ref());
        let mut g = a.filter(|a| a.grouped).map(|a| Arc::clone(&a.node));
        g.next_back().expect("a group")
    }

    /// The second identical read opens a group on the first one's entry;
    /// the third joins it without a scan and without an entry of its
    /// own. Every reader waits for the writer, the later two through the
    /// in-join, and the recorder gets the direct path's edges.
    #[test]
    fn second_identical_read_opens_a_group_and_the_third_joins_it() {
        use EdgeKind::True;
        for prune in [false, true] {
            let mut log = RegionLog::default();
            let n: Vec<_> = (0..=4).map(node).collect();
            record(&mut log, &region_x(), true, &n[1], prune);
            let (l, g) = access(&mut log, &region_x(), false, &n[2], prune);
            assert_eq!((g, l.effective_ids()), (Grouping::None, vec![(1, True)]));
            let (l, g) = access(&mut log, &region_x(), false, &n[3], prune);
            assert_eq!((g, l.effective_ids()), (Grouping::Opened, vec![(1, True)]));
            let want: Emitted = if prune { vec![] } else { vec![(1, True)] };
            assert_eq!(*l.recorded.borrow(), want);
            assert_eq!(log.live_len(), 2, "the group keeps the first read's entry");
            let stamp = log.query_stamp;
            let (l, g) = access(&mut log, &region_x(), false, &n[4], prune);
            assert_eq!((g, l.effective_ids()), (Grouping::Joined, vec![(1, True)]));
            assert_eq!(*l.recorded.borrow(), want);
            assert_eq!(l.join_links.get(), 2, "in-join -> reader -> out-join");
            assert_eq!(log.query_stamp, stamp, "a joining read does not scan");
            assert_eq!((log.live_len(), log.held()), (2, 4), "nor log an entry");
        }
    }

    /// Only exactly the region of a recent open read of another task
    /// opens a group.
    #[test]
    fn groups_open_only_on_a_recent_identical_read_of_another_task() {
        let mut log = RegionLog::default();
        let n: Vec<_> = (0..=9).map(node).collect();
        let read =
            |log: &mut RegionLog, r: &Region, t: &Arc<TaskNode>| access(log, r, false, t, true).1;
        assert_eq!(read(&mut log, &region_x(), &n[1]), Grouping::None);
        assert_eq!(
            read(&mut log, &region_x(), &n[1]),
            Grouping::None,
            "same task"
        );
        assert_eq!(
            read(&mut log, &Region::d1(0..=31), &n[2]),
            Grouping::None,
            "sub-region"
        );
        let same_elements = Region::d2(0..=63, RegionBound::Full);
        assert_eq!(
            read(&mut log, &same_elements, &n[2]),
            Grouping::None,
            "other spelling"
        );
        assert_eq!(read(&mut log, &region_x(), &n[3]), Grouping::Opened);
        // Four other reads push the group out of the recent-reads cache.
        for (i, t) in n[4..8].iter().enumerate() {
            assert_eq!(read(&mut log, &Region::d1(i..=i), t), Grouping::None);
        }
        assert_eq!(read(&mut log, &region_x(), &n[8]), Grouping::None);
        assert_eq!(read(&mut log, &region_x(), &n[9]), Grouping::Opened);
    }

    /// The first overlapping write seals the group: it takes one link,
    /// from the out-join, which stands for every member. An identical
    /// read after it starts afresh, and the out-join completes with its
    /// last member.
    #[test]
    fn an_overlapping_write_seals_the_group() {
        use EdgeKind::{Anti, True};
        let mut log = RegionLog::default();
        let n: Vec<_> = (0..=5).map(node).collect();
        for r in &n[1..=3] {
            record(&mut log, &region_x(), false, r, false);
        }
        let out = out_join(&log);
        let (l, _) = access(&mut log, &Region::d1(10..=20), true, &n[4], false);
        let members: Emitted = vec![(1, Anti), (2, Anti), (3, Anti)];
        assert_eq!(l.effective_ids(), members);
        assert_eq!(*l.recorded.borrow(), members);
        assert_eq!(l.join_links.get(), 1, "one link, from the out-join");
        let (l, g) = access(&mut log, &region_x(), false, &n[5], false);
        assert_eq!((g, l.effective_ids()), (Grouping::None, vec![(4, True)]));
        for m in &n[1..=3] {
            assert!(!out.is_finished());
            finish(m);
        }
        assert!(out.is_finished(), "sealed: no guard left");
    }

    /// An open group's out-join holds a guard, so it cannot complete
    /// while members may still join; `all_finished` counts the group
    /// finished once only the guard is left, and pruning frees it then.
    #[test]
    fn an_open_group_holds_its_guard() {
        let mut log = RegionLog::default();
        let n: Vec<_> = (0..=4).map(node).collect();
        record(&mut log, &region_x(), false, &n[1], true);
        record(&mut log, &region_x(), false, &n[2], true);
        let out = out_join(&log);
        finish(&n[1]);
        assert!(!log.all_finished());
        finish(&n[2]);
        assert!(log.all_finished(), "only the guard is left");
        assert!(!out.is_finished(), "the guard keeps the out-join open");
        let (_, g) = access(&mut log, &region_x(), false, &n[3], true);
        assert_eq!(g, Grouping::Joined);
        assert!(!log.all_finished());
        finish(&n[3]);
        assert!(log.all_finished());
        let (l, _) = access(&mut log, &Region::d1(0..=0), true, &n[4], true);
        assert!(l.effective_ids().is_empty(), "every member had finished");
        assert!(out.is_finished(), "freeing the group dropped the guard");
        assert_eq!(log.live_len(), 1);
    }

    /// A member that then writes over its group is ordered after the
    /// other members directly — the out-join waits for the writer, so
    /// an edge from it would be a cycle. Its later writes take no edge
    /// from the group (the recorder still gets the direct path's), other
    /// writers still take the out-join's, and a containing write of the
    /// member turns the group into the member's own plain read.
    #[test]
    fn a_member_writing_over_its_group_is_ordered_after_the_others() {
        use EdgeKind::{Anti, Output};
        for prune in [false, true] {
            let mut log = RegionLog::default();
            let n: Vec<_> = (0..=5).map(node).collect();
            for r in &n[1..=3] {
                record(&mut log, &region_x(), false, r, prune);
            }
            let out = out_join(&log);
            let (l, _) = access(&mut log, &Region::d1(8..=15), true, &n[2], prune);
            assert_eq!(l.effective_ids(), [(1, Anti), (3, Anti)]);
            assert_eq!(l.join_links.get(), 0, "no link from the out-join");
            let (l, _) = access(&mut log, &Region::d1(16..=23), true, &n[2], prune);
            assert!(l.effective_ids().is_empty(), "already ordered");
            let want: Emitted = if prune { vec![] } else { vec![(1, Anti), (3, Anti)] };
            assert_eq!(*l.recorded.borrow(), want);
            let (l, _) = access(&mut log, &Region::d1(0..=3), true, &n[4], prune);
            assert_eq!(l.effective_ids(), [(1, Anti), (2, Anti), (3, Anti)]);
            let (l, _) = access(&mut log, &region_x(), true, &n[3], prune);
            assert_eq!(l.join_links.get(), 0);
            assert_eq!(log.held(), 2, "n3's own read and its write shadow the rest");
            assert!(!log.overlaps_group(&region_x()), "the group is n3's read");
            let (l, _) = access(&mut log, &region_x(), true, &n[5], prune);
            assert_eq!(l.effective_ids(), [(3, Anti), (3, Output)]);
            // No cycle: once the other members finish, n2 waits on
            // nothing but its spawn guard, and the out-join completes
            // with the last member.
            finish(&n[1]);
            assert!(!n[2].holds_only_guard());
            finish(&n[3]);
            assert!(n[2].holds_only_guard(), "n2 does not wait for the out-join");
            finish(&n[2]);
            assert!(out.is_finished());
        }
    }

    /// Pruning keeps an entry whose task finished poisoned until a
    /// containing write shadows it: a late conflicting access still
    /// links to it and is cancelled, and so is a group whose in-join the
    /// failed writer feeds, with every reader that joins it.
    #[test]
    fn pruning_keeps_poisoned_entries_until_shadowed() {
        use EdgeKind::True;
        let mut log = RegionLog::default();
        let n: Vec<_> = (0..=5).map(node).collect();
        record(&mut log, &region_x(), true, &n[1], true);
        n[1].stamp_failed();
        finish(&n[1]);
        let part = Region::d1(4..=5);
        let (l, _) = access(&mut log, &part, false, &n[2], true);
        assert_eq!(l.effective_ids(), [(1, True)]);
        assert!(n[2].cancel_requested());
        let (_, g) = access(&mut log, &part, false, &n[3], true);
        assert_eq!(g, Grouping::Opened);
        assert!(n[3].cancel_requested(), "through the cancelled in-join");
        let (_, g) = access(&mut log, &part, false, &n[4], true);
        assert_eq!(g, Grouping::Joined);
        assert!(n[4].cancel_requested());
        let (l, _) = access(&mut log, &region_x(), true, &n[5], true);
        assert!(l.effective_ids().contains(&(1, EdgeKind::Output)));
        assert_eq!(log.live_len(), 1, "the containing write shadowed both");
    }

    /// A failure drain heals the log: the next pruning query frees the
    /// poisoned entries it kept, so a write over the buffer and the
    /// reads after it run, and repeated late reads leave the log at the
    /// live frontier.
    #[test]
    fn a_failure_drain_frees_poisoned_entries() {
        let mut log = RegionLog::default();
        let bad = node(1);
        record(&mut log, &region_x(), true, &bad, true);
        bad.stamp_failed();
        finish(&bad);
        let mut next = 2;
        let mut late_read = |log: &mut RegionLog| {
            let n = node(next);
            next += 1;
            record(log, &Region::d1(4..=5), false, &n, true);
            // Run it as the runtime would: cancelled, a poisoned walk.
            let cancelled = n.cancel_requested();
            if cancelled {
                n.stamp_cancelled();
            }
            let _ = n.complete(cancelled, |_| {});
            n
        };
        for _ in 0..3 {
            assert!(late_read(&mut log).finished_poisoned());
        }
        assert_eq!(
            log.live_len(),
            2,
            "the failed writer, and its cancelled readers' group"
        );
        DRAINS.with(|d| d.set(d.get() + 1));
        let w = node(100);
        let (l, _) = access(&mut log, &region_x(), true, &w, true);
        assert!(l.effective_ids().is_empty() && !w.cancel_requested());
        assert_eq!(log.live_len(), 1, "only the new write");
        finish(&w);
        for _ in 0..200 {
            assert!(!late_read(&mut log).finished_poisoned());
            assert!(log.live_len() <= 2);
        }
        DRAINS.with(|d| d.set(0));
    }

    /// Joins never close a cycle: a read whose task already wrote into
    /// the group's region neither opens a group (its own write could not
    /// feed the in-join) nor joins one whose in-join waits for it. Both
    /// arise only when two tasks' accesses interleave.
    #[test]
    fn a_task_the_in_join_waits_for_does_not_group() {
        use EdgeKind::True;
        let mut log = RegionLog::default();
        let n: Vec<_> = (0..=4).map(node).collect();
        record(&mut log, &Region::d1(0..=7), true, &n[1], true);
        record(&mut log, &region_x(), false, &n[2], true);
        let (l, g) = access(&mut log, &region_x(), false, &n[1], true);
        assert_eq!((g, l.effective_ids()), (Grouping::None, vec![]));
        let (l, g) = access(&mut log, &region_x(), false, &n[3], true);
        assert_eq!((g, l.effective_ids()), (Grouping::Opened, vec![(1, True)]));
        let (_, g) = access(&mut log, &region_x(), false, &n[1], true);
        assert_eq!(g, Grouping::None, "the in-join waits for n1");
        let (l, g) = access(&mut log, &region_x(), false, &n[4], true);
        assert_eq!((g, l.effective_ids()), (Grouping::Joined, vec![(1, True)]));
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

    /// For random access sequences — random 1-D/2-D/full regions, repeated
    /// regions, random directions, tasks with one or more accesses,
    /// random completion interleavings, pruning on and off — the
    /// tile-indexed log with read groups orders every access exactly as a
    /// brute-force scan over every logged access with the same shadowing
    /// rule does. Compared are the recorded edges with recording on, and
    /// with pruning the tasks each access waits for, joins expanded to
    /// the tasks behind them and finished producers dropped:
    ///
    /// * every read, and every write that touches no read group, emits
    ///   **exactly** the brute-force edge sequence (producer id + kind, in
    ///   order), grouped reads included;
    /// * a write over a group links through the out-join, or, from a
    ///   member, straight from the other members, both at the group's
    ///   place in the insertion order: its edges must equal the brute
    ///   force's as a multiset. The one exception is a member's repeat
    ///   write under pruning, which takes no new link: its edges must be a
    ///   sub-multiset, and what it leaves out the task already waits for;
    /// * with recording on, the accesses the live entries stand for
    ///   (a group counts its members) equal the brute force's live count
    ///   after every access.
    ///
    /// The runtime-level oracle over recorded graphs lives in
    /// `tests/regions.rs`.
    mod equivalence {
        use super::*;
        use proptest::prelude::*;
        use std::collections::{BTreeMap, BTreeSet};

        /// One scripted access: region shape, direction, how many of the
        /// oldest unfinished tasks complete first, and whether it joins
        /// the previous (still unfinished) task.
        type Op = (usize, usize, usize, usize, usize, usize);

        fn op() -> impl Strategy<Value = Op> {
            (
                0..7usize,
                0..90usize,
                1..24usize,
                0..2usize,
                0..3usize,
                0..4usize,
            )
        }

        /// Shape 6 repeats the previous access's region: the reads that
        /// open and join groups.
        fn region_of(kind: usize, a: usize, len: usize, prev: Option<&Region>) -> Region {
            match kind {
                0 => Region::d1(a..=a + len - 1),
                1 => Region::all(),
                2 => Region::d2(a..=a + len - 1, a / 2..=a / 2 + len),
                3 => Region::d2(RegionBound::Full, RegionBound::Bounds(a, a + len)),
                // Far coordinates: exercises range growth/rebuild.
                4 => Region::d1(a * 100..=a * 100 + len),
                6 if prev.is_some() => prev.unwrap().clone(),
                _ => Region::d1(a..=a + 2 * len),
            }
        }

        /// The group-heavy mix: most accesses name one of three regions
        /// (whole buffer, a 2-D block, a 1-D range), so identical reads
        /// of different tasks open and join groups, and writes over them
        /// — of members and of other tasks, of part of a region or of all
        /// of it — seal, order and shadow them.
        fn pooled(op: Op) -> (Region, bool) {
            let (kind, a, len, write, _, join) = op;
            let pool = [
                Region::all(),
                Region::d2(0..=31, 0..=15),
                Region::d1(16..=47),
            ];
            let region = match kind {
                0..=4 => pool[a % 5 / 2].clone(),
                5 => Region::d1(a % 40..=a % 40 + len),
                _ => Region::d2(a % 32..=a % 32 + len / 4, 0..=7),
            };
            // A task's later accesses (`join == 0`) write more often:
            // members writing over their own group.
            (region, write == 1 && (join == 0 || len % 3 == 0))
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
                    open: false,
                    grouped: false,
                });
                out
            }
        }

        /// `edges` sorted: the multiset view.
        fn sorted(edges: &Emitted) -> Vec<(u64, u8)> {
            let mut v: Vec<_> = edges.iter().map(|&(p, k)| (p, k as u8)).collect();
            v.sort_unstable();
            v
        }

        /// Run `ops` through the log and the brute force, checking what
        /// the module docs of this test promise.
        fn check(ops: &[Op], prune: bool, pool: bool) {
            let mut brute = BruteLog::default();
            let mut log = RegionLog::default();
            let mut tasks: Vec<Arc<TaskNode>> = Vec::new();
            let mut next_unfinished = 0usize;
            let mut prev: Option<Region> = None;
            // Every producer each task has been linked to wait for.
            let mut waits: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
            for (i, &op) in ops.iter().enumerate() {
                let (kind, a, len, write, fin, join) = op;
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
                let (region, write) = if pool {
                    pooled(op)
                } else {
                    (region_of(kind, a, len, prev.as_ref()), write == 1)
                };
                let touches_group = write && log.overlaps_group(&region);
                let repeat = write && log.orders_member(&region, &n);
                let want = brute.record(&region, write, &n, prune);
                let (l, _) = access(&mut log, &region, write, &n, prune);
                let got: Emitted = if prune {
                    l.effective
                        .borrow()
                        .iter()
                        .filter(|(p, _)| !p.is_finished())
                        .map(|(p, k)| (p.id().0, *k))
                        .collect()
                } else {
                    l.recorded.borrow().clone()
                };
                if !touches_group {
                    assert_eq!(&got, &want, "access {} diverged (prune={})", i, prune);
                } else if !(prune && repeat) {
                    assert_eq!(
                        sorted(&got),
                        sorted(&want),
                        "write {} over a group (prune={})",
                        i,
                        prune
                    );
                } else {
                    let mut left = sorted(&want);
                    for e in sorted(&got) {
                        let at = left.iter().position(|&w| w == e);
                        assert!(at.is_some(), "repeat write {} linked {:?}", i, e);
                        left.remove(at.unwrap());
                    }
                    let waited = waits.entry(n.id().0).or_default();
                    for (p, _) in left {
                        assert!(waited.contains(&p), "repeat write {} lost {}", i, p);
                    }
                }
                let linked = l.effective_ids().into_iter().map(|(p, _)| p);
                waits.entry(n.id().0).or_default().extend(linked);
                if !prune {
                    assert_eq!(log.held(), brute.entries.len(), "access {}", i);
                }
                prev = Some(region);
            }
            assert_eq!(
                log.all_finished(),
                brute.entries.iter().all(|e| e.node.is_finished())
            );
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn indexed_log_emits_exactly_the_brute_force_edge_sequence(
                ops in proptest::collection::vec(op(), 1..80),
                prune in 0..2usize,
            ) {
                check(&ops, prune == 1, false);
            }

            #[test]
            fn grouped_accesses_emit_exactly_the_brute_force_edges(
                ops in proptest::collection::vec(op(), 1..80),
                prune in 0..2usize,
            ) {
                check(&ops, prune == 1, true);
            }
        }
    }
}
