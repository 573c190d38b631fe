//! `multisort`: the paper's region multisort (Figure 7,
//! `smpss_apps::sort::multisort_range`) on seeded `i64`s. It drives the
//! dependency layer through array regions rather than renamed objects.

use std::collections::BTreeMap;

use smpss::{region, RegionHandle, Runtime};
use smpss_apps::sort::{
    merge_partition, multisort_range, seq_merge, seq_sort, sequential_multisort, Elm, SortParams,
};

use crate::measure::{run_rep, Decls, Rep, Workload};
use crate::trace::{now_ns, Probe, Spans};
use crate::SplitMix64;

const KINDS: &[&str] = &["seqquick", "seqmerge"];

/// One task of Figure 7 with §VI.D's chunked merge, as
/// `multisort_range` issues it. Ranges are inclusive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SortTask {
    /// `seqquick`: sort `data[lo..=hi]` in place.
    Quick { lo: usize, hi: usize },
    /// `seqmerge`: merge ranks `k0..k1` of `src[a]` and `src[b]` into
    /// `dst[d]`; `src` is `tmp` when `from_tmp`, else `data`.
    Merge {
        from_tmp: bool,
        a: (usize, usize),
        b: (usize, usize),
        d: (usize, usize),
        k0: usize,
        k1: usize,
    },
}

/// The task sequence `multisort_range(lo, hi)` spawns.
pub fn plan(lo: usize, hi: usize, p: SortParams, out: &mut Vec<SortTask>) {
    let size = hi - lo + 1;
    if size <= p.quick_size.max(4) {
        out.push(SortTask::Quick { lo, hi });
        return;
    }
    let q = size / 4;
    let (i1, j1, i2, j2) = (lo, lo + q - 1, lo + q, lo + 2 * q - 1);
    let (i3, j3, i4, j4) = (lo + 2 * q, lo + 3 * q - 1, lo + 3 * q, hi);
    for (l, h) in [(i1, j1), (i2, j2), (i3, j3), (i4, j4)] {
        plan(l, h, p, out);
    }
    merge_plan(false, (i1, j1), (i2, j2), i1, p.merge_chunk, out);
    merge_plan(false, (i3, j3), (i4, j4), i3, p.merge_chunk, out);
    merge_plan(true, (i1, j2), (i3, j4), i1, p.merge_chunk, out);
}

fn merge_plan(
    from_tmp: bool,
    a: (usize, usize),
    b: (usize, usize),
    d_lo: usize,
    chunk: usize,
    out: &mut Vec<SortTask>,
) {
    let total = (a.1 - a.0 + 1) + (b.1 - b.0 + 1);
    let chunk = chunk.max(1);
    let mut k0 = 0;
    while k0 < total {
        let k1 = (k0 + chunk).min(total);
        let d = (d_lo + k0, d_lo + k1 - 1);
        out.push(SortTask::Merge {
            from_tmp,
            a,
            b,
            d,
            k0,
            k1,
        });
        k0 = k1;
    }
}

/// Last writer of each written element range of one buffer: disjoint
/// inclusive ranges keyed by their start.
#[derive(Default)]
struct Writers(BTreeMap<usize, (usize, u32)>);

impl Writers {
    /// Tasks that last wrote some element of `lo..=hi`.
    fn read(&self, lo: usize, hi: usize, out: &mut Vec<u32>) {
        for (_, &(end, w)) in self.0.range(..=hi).rev() {
            if end < lo {
                break;
            }
            if !out.contains(&w) {
                out.push(w);
            }
        }
    }

    fn write(&mut self, lo: usize, hi: usize, w: u32) {
        let hit: Vec<(usize, (usize, u32))> = self
            .0
            .range(..=hi)
            .rev()
            .take_while(|(_, &(end, _))| end >= lo)
            .map(|(&s, &v)| (s, v))
            .collect();
        for (s, (e, old)) in hit {
            self.0.remove(&s);
            if s < lo {
                self.0.insert(s, (lo - 1, old));
            }
            if e > hi {
                self.0.insert(hi + 1, (e, old));
            }
        }
        self.0.insert(lo, (hi, w));
    }
}

/// True producers of each task under region semantics (CSR).
fn region_producers(tasks: &[SortTask]) -> (Vec<u32>, Vec<u32>) {
    let mut bufs = [Writers::default(), Writers::default()];
    let (mut off, mut prod) = (vec![0u32], Vec::new());
    for (i, &t) in tasks.iter().enumerate() {
        let mut mine = Vec::new();
        match t {
            SortTask::Quick { lo, hi } => {
                bufs[0].read(lo, hi, &mut mine);
                bufs[0].write(lo, hi, i as u32);
            }
            SortTask::Merge {
                from_tmp, a, b, d, ..
            } => {
                let (src, dst) = if from_tmp { (1, 0) } else { (0, 1) };
                bufs[src].read(a.0, a.1, &mut mine);
                bufs[src].read(b.0, b.1, &mut mine);
                bufs[dst].write(d.0, d.1, i as u32);
            }
        }
        prod.extend(mine);
        off.push(prod.len() as u32);
    }
    (off, prod)
}

pub struct Multisort {
    input: Vec<Elm>,
    params: SortParams,
    tasks: Vec<SortTask>,
    /// `sequential_multisort`'s output.
    expected: Vec<Elm>,
    seq_s: f64,
}

impl Multisort {
    /// `len` seeded elements; `chunk` is both the `seqquick` cutoff and
    /// the merge chunk.
    pub fn new(seed: u64, len: usize, chunk: usize) -> Self {
        assert!(len > 1);
        let mut rng = SplitMix64::new(seed);
        let input: Vec<Elm> = (0..len).map(|_| rng.next_u64() as Elm).collect();
        let params = SortParams {
            quick_size: chunk,
            merge_chunk: chunk,
        };
        let mut tasks = Vec::new();
        plan(0, len - 1, params, &mut tasks);
        let mut expected = input.clone();
        let t = now_ns();
        sequential_multisort(&mut expected, params);
        let seq_s = (now_ns() - t) as f64 * 1e-9;
        Multisort {
            input,
            params,
            tasks,
            expected: std::hint::black_box(expected),
            seq_s,
        }
    }

    /// The output must equal the sequential program's.
    pub fn check(&self, out: &[Elm]) -> Result<(), String> {
        if out.len() != self.expected.len() {
            return Err(format!(
                "{} elements, expected {}",
                out.len(),
                self.expected.len()
            ));
        }
        match out.iter().zip(&self.expected).position(|(a, b)| a != b) {
            None => Ok(()),
            Some(i) => Err(format!(
                "element {i} is {} not {}",
                out[i], self.expected[i]
            )),
        }
    }

    /// `multisort_range` spawned task by task through the public spawner
    /// API, stamping each boundary through `p`.
    pub fn spawn<P: Probe>(
        &self,
        rt: &Runtime,
        data: &RegionHandle<Vec<Elm>>,
        tmp: &RegionHandle<Vec<Elm>>,
        p: P,
    ) {
        let mut t0 = p.now();
        for (i, &t) in self.tasks.iter().enumerate() {
            let (t1, t2);
            match t {
                SortTask::Quick { lo, hi } => {
                    let mut sp = rt.task("seqquick");
                    t1 = p.now();
                    let mut w = sp.inout_region(data, region![lo..=hi]);
                    t2 = p.now();
                    sp.submit(move || {
                        let s = p.now();
                        seq_sort(w.slice_mut(lo, hi));
                        p.ran(i, s);
                    });
                }
                SortTask::Merge {
                    from_tmp,
                    a,
                    b,
                    d,
                    k0,
                    k1,
                } => {
                    let (src, dst) = if from_tmp { (tmp, data) } else { (data, tmp) };
                    let mut sp = rt.task("seqmerge");
                    t1 = p.now();
                    let mut ra = sp.read_region(src, region![a.0..=a.1]);
                    let mut rb = sp.read_region(src, region![b.0..=b.1]);
                    let mut w = sp.write_region(dst, region![d.0..=d.1]);
                    t2 = p.now();
                    sp.submit(move || {
                        let s = p.now();
                        let a = ra.slice(a.0, a.1);
                        let b = rb.slice(b.0, b.1);
                        let (ia0, ib0) = merge_partition(a, b, k0);
                        let (ia1, ib1) = merge_partition(a, b, k1);
                        seq_merge(&a[ia0..ia1], &b[ib0..ib1], w.slice_mut(d.0, d.1));
                        p.ran(i, s);
                    });
                }
            }
            let t3 = p.now();
            p.spawned(i, [t0, t1, t2, t3]);
            t0 = t3;
        }
    }

    #[cfg(test)]
    pub(crate) fn expected(&self) -> &[Elm] {
        &self.expected
    }
}

impl Workload for Multisort {
    fn tasks(&self) -> usize {
        self.tasks.len()
    }
    fn decls(&self) -> Decls {
        let region = self
            .tasks
            .iter()
            .map(|t| match t {
                SortTask::Quick { .. } => 1,
                SortTask::Merge { .. } => 3,
            })
            .sum();
        Decls {
            object: 0,
            region,
            object_writes: 0,
        }
    }
    fn kind_names(&self) -> &'static [&'static str] {
        KINDS
    }
    fn kinds(&self) -> Vec<u8> {
        self.tasks
            .iter()
            .map(|t| match t {
                SortTask::Quick { .. } => 0,
                SortTask::Merge { .. } => 1,
            })
            .collect()
    }
    fn producers(&self) -> (Vec<u32>, Vec<u32>) {
        region_producers(&self.tasks)
    }
    fn seq_s(&self) -> f64 {
        self.seq_s
    }
    fn rep(&self, threads: usize, spans: Option<&'static Spans>) -> Rep {
        let n = self.input.len();
        run_rep(
            self.tasks(),
            // The repetition's runtime gets a copy of the input, and a
            // temporary that starts as another copy: every element of it
            // is written before it is read, and a copy, unlike a zeroed
            // allocation, is resident before the repetition starts
            // whatever the allocator reuses. Registration does not read
            // or size the buffers, so the set-ups whose runtime is
            // dropped unused register empty ones and follow each other
            // back to back.
            |last| {
                if last {
                    (self.input.clone(), self.input.clone())
                } else {
                    (Vec::new(), Vec::new())
                }
            },
            |(input, tmp)| {
                let rt = Runtime::builder().threads(threads).build();
                let data = rt.region_data(input);
                let tmp = rt.region_data(tmp);
                (rt, (data, tmp))
            },
            |rt, (data, tmp)| match spans {
                None => multisort_range(rt, data, tmp, 0, n - 1, self.params),
                Some(s) => self.spawn(rt, data, tmp, s),
            },
            |rt, (data, _)| rt.with_region(&data, |v| self.check(v)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::NoProbe;

    fn small() -> Multisort {
        Multisort::new(5, 1 << 12, 64)
    }

    #[test]
    fn check_accepts_the_runtime_result() {
        let w = small();
        for spans in [None, Some(Spans::leak(w.tasks()))] {
            let rep = w.rep(2, spans);
            assert!(rep.correct);
            assert_eq!(rep.stats.tasks_executed as usize, w.tasks());
        }
    }

    #[test]
    fn check_rejects_a_swapped_pair() {
        let w = small();
        let mut out = w.expected().to_vec();
        assert!(w.check(&out).is_ok());
        out.swap(100, 2000);
        assert!(w.check(&out).is_err());
    }

    #[test]
    fn check_rejects_a_flipped_element() {
        let w = small();
        let mut out = w.expected().to_vec();
        out[77] ^= 1;
        assert!(w.check(&out).is_err());
    }

    #[test]
    fn reference_is_sorted_input() {
        let w = small();
        let mut v = w.input.clone();
        v.sort_unstable();
        assert_eq!(v, w.expected());
    }

    /// The instrumented spawn code issues exactly the graph the
    /// application's `multisort_range` issues.
    #[test]
    fn spawn_matches_the_application() {
        let w = small();
        let n = w.input.len();
        let graph = |app: bool| {
            let rt = Runtime::builder().threads(1).record_graph(true).build();
            let data = rt.region_data(w.input.clone());
            let tmp = rt.region_data(vec![0 as Elm; n]);
            if app {
                multisort_range(&rt, &data, &tmp, 0, n - 1, w.params);
            } else {
                w.spawn(&rt, &data, &tmp, NoProbe);
            }
            rt.barrier();
            rt.graph().expect("graph recording is on").to_text()
        };
        assert_eq!(graph(true), graph(false));
    }

    #[test]
    fn producers_are_the_last_overlapping_writers() {
        let mut w = Writers::default();
        w.write(0, 9, 1);
        w.write(3, 5, 2);
        let mut out = Vec::new();
        w.read(0, 9, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![1, 2]);
        out.clear();
        w.read(4, 4, &mut out);
        assert_eq!(out, vec![2]);
        out.clear();
        w.read(10, 20, &mut out);
        assert!(out.is_empty());
    }
}
