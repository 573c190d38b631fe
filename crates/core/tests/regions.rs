//! Black-box tests of the array-region extension (§V.A) and its
//! equivalence with the representant workaround (§V.B).

use smpss::{region, Region, Runtime};

/// Sort-free miniature of the Figure 7 pattern: write four quarters
/// independently, then merge pairs, then merge the result.
#[test]
fn quarters_then_merges() {
    let rt = Runtime::builder().threads(4).build();
    let n = 64usize;
    let data = rt.region_data(vec![0i64; n]);
    let q = n / 4;
    // Four independent writers (disjoint regions -> no edges, can run in
    // any order / in parallel).
    for k in 0..4 {
        let (lo, hi) = (k * q, (k + 1) * q - 1);
        let mut sp = rt.task("fill_quarter");
        let mut w = sp.write_region(&data, region![lo..=hi]);
        sp.submit(move || {
            for (off, v) in w.slice_mut(lo, hi).iter_mut().enumerate() {
                *v = (k * q + off) as i64;
            }
        });
    }
    // Two half-sums reading two quarters each.
    let sums = rt.region_data(vec![0i64; 2]);
    for half in 0..2 {
        let (lo, hi) = (half * 2 * q, (half + 1) * 2 * q - 1);
        let mut sp = rt.task("sum_half");
        let mut r = sp.read_region(&data, region![lo..=hi]);
        let mut w = sp.write_region(&sums, region![half..=half]);
        sp.submit(move || {
            let s: i64 = r.slice(lo, hi).iter().sum();
            w.slice_mut(half, half)[0] = s;
        });
    }
    rt.barrier();
    let expected: i64 = (0..n as i64).sum();
    let got = rt.with_region(&sums, |v| v[0] + v[1]);
    assert_eq!(got, expected);
}

#[test]
fn overlapping_writes_serialise() {
    let rt = Runtime::builder().threads(4).build();
    let data = rt.region_data(vec![0i64; 10]);
    // 100 tasks incrementing an overlapping window; all overlap index 5,
    // so every task is serialised against every other: final value exact.
    for i in 0..100usize {
        let lo = (i % 5).min(5);
        let mut sp = rt.task("bump");
        let mut w = sp.inout_region(&data, region![lo..=9]);
        sp.submit(move || {
            w.slice_mut(5, 5)[0] += 1;
        });
    }
    rt.barrier();
    assert_eq!(rt.with_region(&data, |v| v[5]), 100);
}

#[test]
fn disjoint_writes_have_no_edges() {
    let rt = Runtime::builder()
        .threads(1)
        .record_graph(true)
        .build();
    let data = rt.region_data(vec![0u8; 100]);
    for k in 0..10usize {
        let (lo, hi) = (k * 10, k * 10 + 9);
        let mut sp = rt.task("disjoint");
        let mut w = sp.write_region(&data, region![lo..=hi]);
        sp.submit(move || {
            w.slice_mut(lo, hi).fill(k as u8);
        });
    }
    rt.barrier();
    let g = rt.graph().unwrap();
    assert_eq!(g.node_count(), 10);
    assert_eq!(g.edge_count(), 0, "disjoint regions must not serialise");
    rt.with_region(&data, |v| {
        for (i, &b) in v.iter().enumerate() {
            assert_eq!(b as usize, i / 10);
        }
    });
}

#[test]
fn read_write_edge_kinds_are_recorded() {
    use smpss::graph::record::EdgeKind;
    let rt = Runtime::builder()
        .threads(1)
        .record_graph(true)
        .build();
    let data = rt.region_data(vec![0i64; 8]);
    // T1 writes [0..=7]; T2 reads [0..=3] (true); T3 writes [2..=5]
    // (anti on T2, output on T1).
    {
        let mut sp = rt.task("w1");
        let mut w = sp.write_region(&data, region![0..=7]);
        sp.submit(move || w.slice_mut(0, 7).fill(1));
    }
    {
        let mut sp = rt.task("r2");
        let mut r = sp.read_region(&data, region![0..=3]);
        sp.submit(move || {
            let _ = r.slice(0, 3);
        });
    }
    {
        let mut sp = rt.task("w3");
        let mut w = sp.write_region(&data, region![2..=5]);
        sp.submit(move || w.slice_mut(2, 5).fill(2));
    }
    rt.barrier();
    let g = rt.graph().unwrap();
    use smpss::TaskId;
    let kinds: Vec<_> = g.edges().to_vec();
    assert!(kinds.contains(&(TaskId(1), TaskId(2), EdgeKind::True)));
    assert!(kinds.contains(&(TaskId(2), TaskId(3), EdgeKind::Anti)));
    assert!(kinds.contains(&(TaskId(1), TaskId(3), EdgeKind::Output)));
}

#[test]
fn update_region_from_main() {
    let rt = Runtime::builder().threads(2).build();
    let data = rt.region_data(vec![1i64; 4]);
    {
        let mut sp = rt.task("double");
        let mut w = sp.inout_region(&data, Region::all());
        sp.submit(move || {
            for v in w.slice_mut(0, 3) {
                *v *= 2;
            }
        });
    }
    rt.update_region(&data, |v| v.push(99));
    rt.barrier();
    rt.with_region(&data, |v| assert_eq!(v, &[2, 2, 2, 2, 99]));
}

/// §V.B: for non-overlapping regions, one representant per region plus an
/// opaque pointer reproduces the region behaviour. Check the two
/// formulations give the same dependency counts on the quarter/merge shape.
#[test]
fn representants_equal_regions_for_disjoint_sets() {
    use smpss::Opaque;

    // Region formulation.
    let rt1 = Runtime::builder().threads(1).record_graph(true).build();
    {
        let data = rt1.region_data(vec![0i64; 16]);
        for k in 0..4usize {
            let (lo, hi) = (k * 4, k * 4 + 3);
            let mut sp = rt1.task("fill");
            let mut w = sp.write_region(&data, region![lo..=hi]);
            sp.submit(move || w.slice_mut(lo, hi).fill(k as i64));
        }
        // One reader per adjacent pair.
        for k in 0..3usize {
            let (lo, hi) = (k * 4, k * 4 + 7);
            let mut sp = rt1.task("pair");
            let mut r = sp.read_region(&data, region![lo..=hi]);
            sp.submit(move || {
                let _ = r.slice(lo, hi);
            });
        }
        rt1.barrier();
    }
    let g1 = rt1.graph().unwrap();

    // Representant formulation: one representant per quarter.
    let rt2 = Runtime::builder().threads(1).record_graph(true).build();
    {
        let flat = Opaque::new(vec![0i64; 16]);
        let reps: Vec<_> = (0..4).map(|_| rt2.representant()).collect();
        for (k, rep) in reps.iter().enumerate() {
            let mut sp = rt2.task("fill");
            let _w = sp.write(rep);
            let flat = flat.clone();
            sp.submit(move || unsafe {
                flat.with_mut(|v| v[k * 4..k * 4 + 4].fill(k as i64));
            });
        }
        for k in 0..3usize {
            let mut sp = rt2.task("pair");
            let _r1 = sp.read(&reps[k]);
            let _r2 = sp.read(&reps[k + 1]);
            let flat = flat.clone();
            sp.submit(move || unsafe {
                flat.with(|v| {
                    let _ = &v[k * 4..k * 4 + 8];
                });
            });
        }
        rt2.barrier();
    }
    let g2 = rt2.graph().unwrap();

    assert_eq!(g1.node_count(), g2.node_count());
    // Same dependency structure: every pair-reader depends on exactly the
    // two producers of its quarters.
    for id in 5..=7u64 {
        assert_eq!(
            g1.predecessors(smpss::TaskId(id)),
            g2.predecessors(smpss::TaskId(id)),
            "region and representant formulations must induce the same deps"
        );
    }
}

#[test]
fn two_dimensional_regions_track_submatrices() {
    // A 4x4 logical matrix stored row-major in a Vec; regions are 2-D.
    let rt = Runtime::builder().threads(1).record_graph(true).build();
    let m = rt.region_data(vec![0i64; 16]);
    // Top-left and bottom-right 2x2 blocks: disjoint in both dims? No —
    // disjoint overall because rows AND cols both disjoint.
    {
        let mut sp = rt.task("tl");
        let mut w = sp.write_region(&m, Region::d2(0..=1, 0..=1));
        sp.submit(move || {
            // Row-major manual addressing; region guards only check dim 0
            // bounds for the slice API, so use per-row slices of dim-0
            // flattened index space. For 2-D we write within the declared
            // rows only. (Access checked against dim 0 of the region: the
            // slice API is 1-D; see module docs.)
            let _ = &mut w;
        });
    }
    {
        let mut sp = rt.task("br");
        let _w = sp.write_region(&m, Region::d2(2..=3, 2..=3));
        sp.submit(move || {});
    }
    {
        let mut sp = rt.task("row0");
        let _r = sp.read_region(&m, Region::d2(0..=0, 0..=3));
        sp.submit(move || {});
    }
    rt.barrier();
    let g = rt.graph().unwrap();
    use smpss::TaskId;
    // row0 overlaps tl (row 0, cols 0..=1) but not br.
    assert_eq!(g.predecessors(TaskId(3)), [TaskId(1)].into_iter().collect());
    assert_eq!(g.predecessors(TaskId(2)).len(), 0);
}

/// An independent reference for region analysis. It sees only the
/// access sequence — task, buffer, region, direction — and does its own
/// interval arithmetic, so it shares no code with the runtime's log.
mod reference {
    use smpss::graph::record::EdgeKind;
    use smpss::{Region, RegionBound};
    use std::collections::BTreeSet;

    /// Buffer 0 is a 64-element vector; buffer 1 is 8 x 8, row-major.
    pub const SIDE: usize = 8;
    pub const LEN: usize = SIDE * SIDE;

    /// One dimension's inclusive interval; `None` is the whole extent.
    /// A missing trailing dimension is whole too.
    pub type Dim = Option<(usize, usize)>;

    #[derive(Clone, Debug)]
    pub struct Access {
        pub buf: usize,
        pub dims: Vec<Dim>,
        pub write: bool,
    }

    /// Each task's accesses, in declaration order; task `t` is the
    /// runtime's `TaskId(t + 1)`.
    pub type Program = Vec<Vec<Access>>;

    fn dim(d: &[Dim], i: usize) -> Dim {
        d.get(i).copied().flatten()
    }

    fn overlaps(a: &[Dim], b: &[Dim]) -> bool {
        (0..a.len().max(b.len())).all(|i| match (dim(a, i), dim(b, i)) {
            (Some((l1, u1)), Some((l2, u2))) => l1 <= u2 && l2 <= u1,
            _ => true,
        })
    }

    fn contains(outer: &[Dim], inner: &[Dim]) -> bool {
        (0..outer.len().max(inner.len())).all(|i| match (dim(outer, i), dim(inner, i)) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some((l1, u1)), Some((l2, u2))) => l1 <= l2 && u2 <= u1,
        })
    }

    pub fn region(a: &Access) -> Region {
        let bound = |d: &Dim| match *d {
            None => RegionBound::Full,
            Some((l, u)) => RegionBound::Bounds(l, u),
        };
        Region::new(a.dims.iter().map(bound).collect())
    }

    /// The flat ranges an access covers, as `(row, lo, hi)` with
    /// inclusive `lo..=hi` inside `row` (always row 0 for buffer 0).
    pub fn segments(a: &Access) -> Vec<(usize, usize, usize)> {
        let whole = |d: Dim, n: usize| d.unwrap_or((0, n - 1));
        if a.buf == 0 {
            let (l, u) = whole(dim(&a.dims, 0), LEN);
            vec![(0, l, u)]
        } else {
            let (r0, r1) = whole(dim(&a.dims, 0), SIDE);
            let (c0, c1) = whole(dim(&a.dims, 1), SIDE);
            (r0..=r1).map(|r| (r, c0, c1)).collect()
        }
    }

    fn elements(a: &Access) -> impl Iterator<Item = usize> {
        let stride = if a.buf == 0 { 0 } else { SIDE };
        segments(a)
            .into_iter()
            .flat_map(move |(r, l, u)| (l..=u).map(move |c| r * stride + c))
    }

    /// The dependency an (earlier, later) conflicting pair induces.
    pub fn kind(earlier_write: bool, write: bool) -> EdgeKind {
        match (earlier_write, write) {
            (true, false) => EdgeKind::True,
            (true, true) => EdgeKind::Output,
            _ => EdgeKind::Anti,
        }
    }

    /// The program as one access sequence of `(task, access)`.
    pub fn sequence(p: &Program) -> Vec<(usize, &Access)> {
        p.iter()
            .enumerate()
            .flat_map(|(t, accs)| accs.iter().map(move |a| (t, a)))
            .collect()
    }

    /// Do two accesses of different tasks conflict?
    pub fn conflict(a: &Access, b: &Access) -> bool {
        a.buf == b.buf && (a.write || b.write) && overlaps(&a.dims, &b.dims)
    }

    /// Is access `i` of `seq` shadowed before access `j`: did a write of
    /// another task contain it in between?
    pub fn shadowed(seq: &[(usize, &Access)], i: usize, j: usize) -> bool {
        let (ti, ai) = seq[i];
        seq[i + 1..j].iter().any(|&(tk, ak)| {
            ak.write && tk != ti && ak.buf == ai.buf && contains(&ak.dims, &ai.dims)
        })
    }

    /// The full conflict relation between tasks: every `(earlier,
    /// later)` pair with a conflicting access pair.
    pub fn conflict_pairs(p: &Program) -> BTreeSet<(usize, usize)> {
        let seq = sequence(p);
        let mut pairs = BTreeSet::new();
        for (j, &(tj, aj)) in seq.iter().enumerate() {
            for &(ti, ai) in &seq[..j] {
                if ti != tj && conflict(ai, aj) {
                    pairs.insert((ti, tj));
                }
            }
        }
        pairs
    }

    /// Descendants of every task under a forward-pointing edge set.
    pub fn descendants(n: usize, edges: &BTreeSet<(usize, usize)>) -> Vec<BTreeSet<usize>> {
        let mut desc = vec![BTreeSet::new(); n];
        for t in (0..n).rev() {
            let mut d = BTreeSet::new();
            for &(_, s) in edges.range((t, 0)..(t + 1, 0)) {
                d.insert(s);
                d.extend(desc[s].iter().copied());
            }
            desc[t] = d;
        }
        desc
    }

    /// Sequential execution: writes stamp `task + 1` into their
    /// elements. Returns, per task and access, what each read sees
    /// (empty for writes), and the final contents of both buffers.
    pub fn replay(p: &Program) -> (Vec<Vec<Vec<u32>>>, [Vec<u32>; 2]) {
        let mut mem = [vec![0u32; LEN], vec![0u32; LEN]];
        let mut seen = Vec::new();
        for (t, accs) in p.iter().enumerate() {
            let mut per_task = Vec::new();
            for a in accs {
                if a.write {
                    for e in elements(a) {
                        mem[a.buf][e] = t as u32 + 1;
                    }
                    per_task.push(Vec::new());
                } else {
                    per_task.push(elements(a).map(|e| mem[a.buf][e]).collect());
                }
            }
            seen.push(per_task);
        }
        (seen, mem)
    }
}

mod random_programs {
    use super::reference::{self, Access, Dim, Program, LEN, SIDE};
    use proptest::prelude::*;
    use smpss::data::region_handle::{RegionReadBinding, RegionWriteBinding};
    use smpss::{RegionHandle, Runtime};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    /// `(buffer, shape, a, b, len, write)`.
    type Raw = (usize, usize, usize, usize, usize, usize);

    /// Turn raw draws into an access. Chunk- and quadrant-aligned shapes
    /// make containment (and so shadowing) common; free-form intervals
    /// make partial overlaps common.
    fn access((buf, shape, a, b, len, write): Raw) -> Access {
        let last = SIDE - 1;
        let dims: Vec<Dim> = match (buf, shape) {
            (0, 0) => vec![Some((a, (a + len).min(LEN - 1)))],
            (0, 1) => {
                let c = a % SIDE;
                vec![Some((
                    c * SIDE,
                    ((c + 1 + len % 3) * SIDE - 1).min(LEN - 1),
                ))]
            }
            (0, 2) => vec![Some(((a % SIDE) * SIDE, (a % SIDE) * SIDE + last))],
            (1, 0) => {
                let (r, c) = (a % SIDE, b % SIDE);
                vec![
                    Some((r, (r + len % 4).min(last))),
                    Some((c, (c + len / 4).min(last))),
                ]
            }
            (1, 1) => vec![Some((a % SIDE, a % SIDE)), None],
            (1, 2) => {
                let (r, c) = ((a % 2) * 4, (b % 2) * 4);
                vec![Some((r, r + 3)), Some((c, c + 3))]
            }
            _ => vec![None], // Region::all()
        };
        Access {
            buf,
            dims,
            write: write == 1,
        }
    }

    pub fn program() -> impl Strategy<Value = Program> {
        let raw = (
            0..2usize,
            0..4usize,
            0..64usize,
            0..64usize,
            0..16usize,
            0..2usize,
        );
        proptest::collection::vec(proptest::collection::vec(raw.prop_map(access), 1..4), 1..40)
    }

    enum Binding {
        Read(RegionReadBinding<Vec<u32>>, Access, Vec<u32>),
        Write(RegionWriteBinding<Vec<u32>>, Access),
    }

    /// Spawn `p` on `rt`. A body replays its accesses in declaration
    /// order: a write stamps the task id into its elements, a read
    /// compares with `seen` (the sequential replay) and counts
    /// mismatches. Task `fail`, if given, waits for `gate` and panics.
    pub fn spawn(
        rt: &Runtime,
        bufs: &[RegionHandle<Vec<u32>>; 2],
        p: &Program,
        seen: &[Vec<Vec<u32>>],
        mismatches: &Arc<AtomicUsize>,
        fail: Option<(usize, &Arc<AtomicBool>)>,
    ) {
        for (t, accs) in p.iter().enumerate() {
            let mut sp = rt.task("acc");
            let mut binds = Vec::new();
            for (a, want) in accs.iter().zip(&seen[t]) {
                let h = &bufs[a.buf];
                binds.push(if a.write {
                    Binding::Write(sp.write_region(h, reference::region(a)), a.clone())
                } else {
                    let r = sp.read_region(h, reference::region(a));
                    Binding::Read(r, a.clone(), want.clone())
                });
            }
            if let Some((f, gate)) = fail.filter(|&(f, _)| f == t) {
                drop(binds); // declared for the analysis; never touched
                let gate = Arc::clone(gate);
                sp.submit(move || {
                    while !gate.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    panic!("task {} fails on purpose", f + 1);
                });
                continue;
            }
            let stamp = t as u32 + 1;
            let mismatches = Arc::clone(mismatches);
            sp.submit(move || {
                for b in binds {
                    match b {
                        Binding::Write(mut w, a) => {
                            for (r, l, u) in reference::segments(&a) {
                                let s = if a.buf == 0 {
                                    w.slice_mut(l, u)
                                } else {
                                    w.row_slice_mut(SIDE, r, l, u)
                                };
                                s.fill(stamp);
                            }
                        }
                        Binding::Read(mut rd, a, want) => {
                            let mut got = Vec::new();
                            for (r, l, u) in reference::segments(&a) {
                                let s = if a.buf == 0 {
                                    rd.slice(l, u)
                                } else {
                                    rd.row_slice(SIDE, r, l, u)
                                };
                                got.extend_from_slice(s);
                            }
                            if got != want {
                                mismatches.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            });
        }
    }
}

/// Worker-thread panics are the subject of the cancellation test: keep
/// their backtraces out of the test output.
fn quiet_worker_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let in_worker = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("smpss-worker"));
            if !in_worker {
                prev(info);
            }
        }));
    });
}

mod oracle {
    use super::random_programs::{program, spawn};
    use super::reference::{self, Program};
    use proptest::prelude::*;
    use smpss::Runtime;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn check(p: &Program) {
        let rt = Runtime::builder().threads(1).record_graph(true).build();
        let bufs = [
            rt.region_data(vec![0u32; reference::LEN]),
            rt.region_data(vec![0u32; reference::LEN]),
        ];
        let (seen, _) = reference::replay(p);
        let mismatches = Arc::new(AtomicUsize::new(0));
        spawn(&rt, &bufs, p, &seen, &mismatches, None);
        rt.barrier();
        assert_eq!(
            mismatches.load(Ordering::Relaxed),
            0,
            "reads match the sequential replay"
        );
        let g = rt.graph().expect("recording on");
        let seq = reference::sequence(p);

        // (a) and (c): every recorded edge has a witness — an earlier
        // access of its source conflicting with a later access of its
        // target with the edge's kind — and some witness is not
        // shadowed by a containing write of another task in between.
        let mut edges = BTreeSet::new();
        for &(f, t, kind) in g.edges() {
            let (f, t) = (f.0 as usize - 1, t.0 as usize - 1);
            edges.insert((f, t));
            let witnesses: Vec<(usize, usize)> = (0..seq.len())
                .flat_map(|j| (0..j).map(move |i| (i, j)))
                .filter(|&(i, j)| {
                    let ((ti, ai), (tj, aj)) = (seq[i], seq[j]);
                    ti == f
                        && tj == t
                        && reference::conflict(ai, aj)
                        && reference::kind(ai.write, aj.write) == kind
                })
                .collect();
            assert!(
                !witnesses.is_empty(),
                "(a) edge {} -> {} ({:?}) joins no conflicting access pair",
                f + 1,
                t + 1,
                kind
            );
            assert!(
                witnesses
                    .iter()
                    .any(|&(i, j)| !reference::shadowed(&seq, i, j)),
                "(c) edge {} -> {} ({:?}) comes only from shadowed accesses",
                f + 1,
                t + 1,
                kind
            );
        }

        // (b) every conflicting pair is ordered by a path.
        let desc = reference::descendants(p.len(), &edges);
        for (a, b) in reference::conflict_pairs(p) {
            assert!(
                desc[a].contains(&b),
                "(b) task {} conflicts with later task {} but does not reach it",
                a + 1,
                b + 1
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The recorded region graph against the reference: edges only
        /// between conflicting accesses with the right kind, never from a
        /// shadowed access, and every conflict ordered by a path.
        #[test]
        fn region_graph_matches_the_access_oracle(p in program()) {
            check(&p);
        }
    }
}

/// Pruning mode (`record_graph(false)`) on several workers: reads see the
/// sequential program's values, and a panicking writer cancels exactly
/// its descendants under the reference's full conflict relation.
mod prune_mode {
    use super::quiet_worker_panics;
    use super::random_programs::{program, spawn};
    use super::reference::{self, Program};
    use proptest::prelude::*;
    use smpss::{Runtime, TaskId};
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    fn run(p: &Program, threads: usize, fail: Option<usize>) {
        let rt = Runtime::builder().threads(threads).build();
        let bufs = [
            rt.region_data(vec![0u32; reference::LEN]),
            rt.region_data(vec![0u32; reference::LEN]),
        ];
        let (seen, expect) = reference::replay(p);
        let mismatches = Arc::new(AtomicUsize::new(0));
        // The failing task holds until every task is spawned, so each of
        // its descendants links while it is still pending.
        let gate = Arc::new(AtomicBool::new(false));
        spawn(&rt, &bufs, p, &seen, &mismatches, fail.map(|f| (f, &gate)));
        gate.store(true, Ordering::Release);
        let result = rt.wait_all();
        let ctx = format!("threads={} fail={:?}", threads, fail.map(|f| f + 1));
        assert_eq!(mismatches.load(Ordering::Relaxed), 0, "reads ({})", ctx);
        let lost: BTreeSet<usize> = match fail {
            None => {
                assert!(result.is_ok(), "{}", ctx);
                BTreeSet::new()
            }
            Some(f) => {
                let err = result.expect_err("one task panics");
                let failed: Vec<TaskId> = err.failed.iter().map(|e| e.id).collect();
                assert_eq!(failed, [TaskId(f as u64 + 1)], "{}", ctx);
                let desc = reference::descendants(p.len(), &reference::conflict_pairs(p));
                let cancelled: BTreeSet<usize> =
                    err.cancelled.iter().map(|c| c.id.0 as usize - 1).collect();
                assert_eq!(cancelled, desc[f], "cancelled = descendants ({})", ctx);
                desc[f].iter().copied().chain([f]).collect()
            }
        };
        // A replayed value is the stamp of the element's last writer:
        // where that task ran, the buffer holds the same value.
        for (b, buf) in bufs.iter().enumerate() {
            rt.with_region(buf, |v| {
                for (e, &want) in expect[b].iter().enumerate() {
                    if want == 0 || !lost.contains(&(want as usize - 1)) {
                        assert_eq!(v[e], want, "buffer {} element {} ({})", b, e, ctx);
                    }
                }
            });
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn pruning_runs_match_the_sequential_replay(p in program(), pick in 0..64usize) {
            quiet_worker_panics();
            let writers: Vec<usize> =
                (0..p.len()).filter(|&t| p[t].iter().any(|a| a.write)).collect();
            for threads in [2, 4] {
                run(&p, threads, None);
                if !writers.is_empty() {
                    run(&p, threads, Some(writers[pick % writers.len()]));
                }
            }
        }
    }
}

/// Read groups under execution (`record_graph(false)`, several workers):
/// programs built to repeat identical reads — 1-D, 2-D and
/// `Region::all()` regions over two buffers, tasks that read a region
/// and then write part of it — run every conflicting pair in order, never
/// deadlock, and a failing writer that feeds a group cancels exactly its
/// descendants.
mod group_order {
    use super::quiet_worker_panics;
    use super::reference::{self, Access, Dim, Program, LEN, SIDE};
    use proptest::prelude::*;
    use smpss::{Runtime, TaskId};
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    /// A few regions per buffer, so that reads repeat exactly.
    fn pool(buf: usize, pick: usize) -> Vec<Dim> {
        match (buf, pick) {
            (0, 0) => vec![Some((0, 31))],
            (0, 1) => vec![Some((32, LEN - 1))],
            (0, 2) => vec![Some((16, 47))],
            (1, 0) => vec![Some((0, 3)), Some((0, 3))],
            (1, 1) => vec![Some((4, SIDE - 1)), None],
            (1, 2) => vec![Some((0, SIDE - 1)), Some((2, 5))],
            _ => vec![None], // Region::all()
        }
    }

    /// Quarter `q` of `dims` along dimension 0.
    fn part(buf: usize, dims: &[Dim], q: usize) -> Vec<Dim> {
        let extent = if buf == 0 { LEN } else { SIDE };
        let (l, u) = dims[0].unwrap_or((0, extent - 1));
        let step = (u - l + 1).div_ceil(4);
        let lo = (l + q * step).min(u);
        let mut out = dims.to_vec();
        out[0] = Some((lo, (lo + step - 1).min(u)));
        out
    }

    /// `(buffer, region pick, shape, quarter)`; shapes 0-3 read one pool
    /// region, 4 writes it, 5 reads it and then writes a quarter of it,
    /// 6 reads it and the next one, 7 writes a quarter.
    fn task((buf, pick, shape, q): (usize, usize, usize, usize)) -> Vec<Access> {
        let dims = pool(buf, pick);
        let acc = |dims: Vec<Dim>, write| Access { buf, dims, write };
        match shape {
            0..=3 => vec![acc(dims, false)],
            4 => vec![acc(dims, true)],
            5 => vec![acc(dims.clone(), false), acc(part(buf, &dims, q), true)],
            6 => vec![acc(dims, false), acc(pool(buf, (pick + 1) % 4), false)],
            _ => vec![acc(part(buf, &dims, q), true)],
        }
    }

    fn program() -> impl Strategy<Value = Program> {
        let raw = (0..2usize, 0..4usize, 0..8usize, 0..4usize);
        proptest::collection::vec(raw.prop_map(task), 1..40)
    }

    /// Start and end tickets of every task, from one clock.
    struct Tickets {
        clock: AtomicU64,
        start: Vec<AtomicU64>,
        end: Vec<AtomicU64>,
    }

    /// Run `p` and return each task's tickets (0: never ran) and the ids
    /// `wait_all` reports cancelled. Task `fail`, if given, waits until
    /// every task is spawned and panics.
    fn run(p: &Program, threads: usize, fail: Option<usize>) -> (Arc<Tickets>, BTreeSet<usize>) {
        let rt = Runtime::builder().threads(threads).build();
        let bufs = [
            rt.region_data(vec![0u32; LEN]),
            rt.region_data(vec![0u32; LEN]),
        ];
        let t = Arc::new(Tickets {
            clock: AtomicU64::new(1),
            start: (0..p.len()).map(|_| AtomicU64::new(0)).collect(),
            end: (0..p.len()).map(|_| AtomicU64::new(0)).collect(),
        });
        let gate = Arc::new(AtomicBool::new(false));
        for (i, accs) in p.iter().enumerate() {
            let mut sp = rt.task("acc");
            let mut reads = Vec::new();
            let mut writes = Vec::new();
            for a in accs {
                let (h, r) = (&bufs[a.buf], reference::region(a));
                if a.write {
                    writes.push(sp.write_region(h, r));
                } else {
                    reads.push(sp.read_region(h, r));
                }
            }
            let (t, gate) = (Arc::clone(&t), Arc::clone(&gate));
            let fails = fail == Some(i);
            sp.submit(move || {
                let _ = (&reads, &writes);
                t.start[i].store(t.clock.fetch_add(1, Ordering::SeqCst), Ordering::SeqCst);
                if fails {
                    while !gate.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    panic!("task {} fails on purpose", i + 1);
                }
                t.end[i].store(t.clock.fetch_add(1, Ordering::SeqCst), Ordering::SeqCst);
            });
        }
        gate.store(true, Ordering::Release);
        let cancelled = match rt.wait_all() {
            Ok(()) => BTreeSet::new(),
            Err(e) => {
                let failed: Vec<TaskId> = e.failed.iter().map(|f| f.id).collect();
                assert_eq!(
                    failed,
                    fail.map(|f| TaskId(f as u64 + 1))
                        .into_iter()
                        .collect::<Vec<_>>()
                );
                e.cancelled.iter().map(|c| c.id.0 as usize - 1).collect()
            }
        };
        (t, cancelled)
    }

    /// `run` on a watchdog thread: a dependency cycle fails the case
    /// instead of hanging the test.
    fn run_watched(
        p: &Program,
        threads: usize,
        fail: Option<usize>,
    ) -> (Arc<Tickets>, BTreeSet<usize>) {
        let (tx, rx) = mpsc::channel();
        let p2 = p.clone();
        std::thread::spawn(move || {
            let _ = tx.send(run(&p2, threads, fail));
        });
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(out) => out,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                panic!(
                    "threads={} fail={:?}: no progress in 60 s (dependency cycle?)",
                    threads, fail
                )
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => panic!("the run panicked"),
        }
    }

    /// A writer whose write a later read group waits for: some region it
    /// overlaps is read by at least two later tasks. Any writer if none.
    fn failing_writer(p: &Program, pick: usize) -> Option<usize> {
        let writers: Vec<usize> = (0..p.len())
            .filter(|&t| p[t].iter().any(|a| a.write))
            .collect();
        let feeds_group = |w: usize| {
            p[w].iter().filter(|a| a.write).any(|a| {
                let reads =
                    |t: &Vec<Access>| t.iter().any(|r| !r.write && reference::conflict(a, r));
                p[w + 1..].iter().filter(|t| reads(t)).count() >= 2
            })
        };
        let feeding: Vec<usize> = writers
            .iter()
            .copied()
            .filter(|&w| feeds_group(w))
            .collect();
        let from = if feeding.is_empty() {
            &writers
        } else {
            &feeding
        };
        (!from.is_empty()).then(|| from[pick % from.len()])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn grouped_reads_run_every_conflicting_pair_in_order(p in program(), pick in 0..64usize) {
            quiet_worker_panics();
            let pairs = reference::conflict_pairs(&p);
            let fail = failing_writer(&p, pick);
            for threads in [2, 4] {
                for fail in [None, fail] {
                    let (t, cancelled) = run_watched(&p, threads, fail);
                    let ctx = format!("threads={} fail={:?}", threads, fail.map(|f| f + 1));
                    for &(i, j) in &pairs {
                        let (end_i, start_j) = (t.end[i].load(Ordering::SeqCst), t.start[j].load(Ordering::SeqCst));
                        if end_i != 0 && start_j != 0 {
                            prop_assert!(end_i < start_j, "task {} must finish before task {} starts ({})", i + 1, j + 1, ctx);
                        }
                    }
                    let want = match fail {
                        Some(f) => reference::descendants(p.len(), &pairs)[f].clone(),
                        None => BTreeSet::new(),
                    };
                    prop_assert_eq!(&cancelled, &want, "cancelled = descendants ({})", ctx);
                    for (i, s) in t.start.iter().enumerate() {
                        let ran = s.load(Ordering::SeqCst) != 0;
                        prop_assert_eq!(ran, !want.contains(&i), "task {} ran iff not cancelled ({})", i + 1, ctx);
                    }
                }
            }
        }
    }
}
