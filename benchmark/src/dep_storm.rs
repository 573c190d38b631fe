//! `dep_storm`: a seeded sequence of fine-grain tasks with trivial bodies
//! over a few hundred `u64` objects, under the §III graph-size and
//! renamed-bytes throttles.
//! The runtime layers do all the work and the bodies none; writes next to
//! in-flight reads drive renaming and the version slab.

use std::sync::atomic::{AtomicU64, Ordering};

use smpss::{Handle, Runtime};

use crate::measure::{run_rep, Decls, Rep, Workload};
use crate::trace::{now_ns, object_producers, NoProbe, Probe, Spans};
use crate::SplitMix64;

/// One generated task. `Read` carries the value the sequential program
/// sees at that point, so every read is checked too.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// `input a`: the body compares the value against `expect`.
    Read { a: u16, expect: u64 },
    /// `output a`: the body stores `val`.
    Write { a: u16, val: u64 },
    /// `inout a`: `a = mix(a, k)`.
    Update { a: u16, k: u64 },
    /// `input src` + `inout dst`: `dst = mix(dst, src)`.
    ReadUpdate { src: u16, dst: u16 },
}

/// The order-sensitive update every writing body applies.
#[inline]
pub fn mix(x: u64, k: u64) -> u64 {
    (x ^ k).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29)
}

const KINDS: &[&str] = &["read", "write", "update", "read_update"];

/// Percent of tasks whose first object is the object the previous task
/// wrote or read last. It puts writes right next to reads of the same
/// object, which the renamer serves with a fresh version while the read
/// is in flight, so renaming does not hinge on rare scheduling delays.
const LOCALITY_PCT: u64 = 30;

/// The §III renamed-bytes throttle: 32Ki versions of 8 bytes. The
/// runtime parks dead versions for reuse up to this many payload bytes
/// (64 MiB without a limit), and each parked 8-byte version holds about
/// 190 bytes resident. Unbounded, resident memory follows the number of
/// renames, which follows thread timing (a median peak of 27 to 44 MiB
/// across five 45-second runs on a 2-vCPU host). The sequence renames
/// far more than this limit allows to stay live, so the throttle stays
/// engaged and the peak stays put.
const RENAMED_BYTES_LIMIT: usize = 256 << 10;

/// The seeded task sequence, generated as it is consumed so that no
/// table of it stays resident. It tracks the sequential program's
/// object values to give each `Read` its expected value.
pub struct Ops {
    rng: SplitMix64,
    vals: Vec<u64>,
    left: usize,
    /// The object the previous task accessed last.
    last: u16,
}

impl Iterator for Ops {
    type Item = Op;

    #[inline]
    fn next(&mut self) -> Option<Op> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let objects = self.vals.len() as u16;
        let rng = &mut self.rng;
        let a = if rng.below(100) < LOCALITY_PCT {
            self.last
        } else {
            rng.below(u64::from(objects)) as u16
        };
        let op = match rng.below(20) {
            0..=6 => Op::Read {
                a,
                expect: self.vals[a as usize],
            },
            7..=9 => Op::Write {
                a,
                val: rng.next_u64(),
            },
            10..=15 => Op::Update {
                a,
                k: rng.next_u64(),
            },
            _ => {
                let b = rng.below(u64::from(objects)) as u16;
                let dst = (a + 1 + b % (objects - 1)) % objects;
                Op::ReadUpdate { src: a, dst }
            }
        };
        apply(&mut self.vals, op);
        self.last = match op {
            Op::Read { a, .. } | Op::Write { a, .. } | Op::Update { a, .. } => a,
            Op::ReadUpdate { dst, .. } => dst,
        };
        Some(op)
    }
}

pub struct DepStorm {
    tasks: usize,
    initial: Vec<u64>,
    /// The generator's state where the task sequence starts.
    start: SplitMix64,
    /// Final object values of the sequential replay.
    expected: Vec<u64>,
    graph_limit: usize,
    /// Reads that saw another value than the sequential program.
    mismatches: &'static AtomicU64,
    decls: Decls,
    seq_s: f64,
}

impl DepStorm {
    /// `tasks` tasks over `objects` objects, at most `graph_limit` tasks
    /// in flight.
    pub fn new(seed: u64, tasks: usize, objects: usize, graph_limit: usize) -> Self {
        assert!((2..=usize::from(u16::MAX / 2)).contains(&objects));
        let mut rng = SplitMix64::new(seed);
        let initial: Vec<u64> = (0..objects).map(|_| rng.next_u64()).collect();
        let mut w = DepStorm {
            tasks,
            initial,
            start: rng,
            expected: Vec::new(),
            graph_limit,
            mismatches: Box::leak(Box::new(AtomicU64::new(0))),
            decls: Decls::default(),
            seq_s: 0.0,
        };
        for op in w.ops() {
            w.decls.object += 1 + matches!(op, Op::ReadUpdate { .. }) as u64;
            w.decls.object_writes += !matches!(op, Op::Read { .. }) as u64;
        }
        let t = now_ns();
        w.expected = replay(&w.initial, w.ops());
        w.seq_s = (now_ns() - t) as f64 * 1e-9;
        w
    }

    /// The task sequence, from its start.
    pub fn ops(&self) -> Ops {
        Ops {
            rng: self.start.clone(),
            vals: self.initial.clone(),
            left: self.tasks,
            last: 0,
        }
    }

    /// Check final object values (and the reads seen on the way).
    pub fn check(&self, finals: &[u64]) -> Result<(), String> {
        let bad_reads = self.mismatches.swap(0, Ordering::Relaxed);
        if bad_reads != 0 {
            return Err(format!("{bad_reads} reads saw a stale or future value"));
        }
        match finals.iter().zip(&self.expected).position(|(a, b)| a != b) {
            None if finals.len() == self.expected.len() => Ok(()),
            None => Err("wrong number of objects".into()),
            Some(i) => Err(format!(
                "object {i} is {} not {}",
                finals[i], self.expected[i]
            )),
        }
    }

    /// Spawn the whole sequence, stamping each boundary through `p`.
    pub fn spawn<P: Probe>(&self, rt: &Runtime, objs: &[Handle<u64>], p: P) {
        let bad = self.mismatches;
        let mut t0 = p.now();
        for (i, op) in self.ops().enumerate() {
            let t1;
            let t2;
            match op {
                Op::Read { a, expect } => {
                    let mut sp = rt.task("read");
                    t1 = p.now();
                    let mut r = sp.read(&objs[a as usize]);
                    t2 = p.now();
                    sp.submit(move || {
                        let s = p.now();
                        if *r.get() != expect {
                            bad.fetch_add(1, Ordering::Relaxed);
                        }
                        p.ran(i, s);
                    });
                }
                Op::Write { a, val } => {
                    let mut sp = rt.task("write");
                    t1 = p.now();
                    let mut w = sp.write(&objs[a as usize]);
                    t2 = p.now();
                    sp.submit(move || {
                        let s = p.now();
                        *w.get_mut() = val;
                        p.ran(i, s);
                    });
                }
                Op::Update { a, k } => {
                    let mut sp = rt.task("update");
                    t1 = p.now();
                    let mut w = sp.inout(&objs[a as usize]);
                    t2 = p.now();
                    sp.submit(move || {
                        let s = p.now();
                        let x = w.get_mut();
                        *x = mix(*x, k);
                        p.ran(i, s);
                    });
                }
                Op::ReadUpdate { src, dst } => {
                    let mut sp = rt.task("read_update");
                    t1 = p.now();
                    let mut r = sp.read(&objs[src as usize]);
                    let mut w = sp.inout(&objs[dst as usize]);
                    t2 = p.now();
                    sp.submit(move || {
                        let s = p.now();
                        let x = w.get_mut();
                        *x = mix(*x, *r.get());
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
    pub(crate) fn expected(&self) -> &[u64] {
        &self.expected
    }
}

fn apply(vals: &mut [u64], op: Op) {
    match op {
        Op::Read { .. } => {}
        Op::Write { a, val } => vals[a as usize] = val,
        Op::Update { a, k } => vals[a as usize] = mix(vals[a as usize], k),
        Op::ReadUpdate { src, dst } => {
            vals[dst as usize] = mix(vals[dst as usize], vals[src as usize])
        }
    }
}

/// The sequential program: the task sequence run in order, no runtime.
pub fn replay(initial: &[u64], ops: impl IntoIterator<Item = Op>) -> Vec<u64> {
    let mut vals = initial.to_vec();
    for op in ops {
        apply(&mut vals, op);
    }
    std::hint::black_box(vals)
}

/// `(object, reads, writes)` of each parameter of `op`.
fn accesses(op: Op) -> Vec<(usize, bool, bool)> {
    match op {
        Op::Read { a, .. } => vec![(a as usize, true, false)],
        Op::Write { a, .. } => vec![(a as usize, false, true)],
        Op::Update { a, .. } => vec![(a as usize, true, true)],
        Op::ReadUpdate { src, dst } => {
            vec![(src as usize, true, false), (dst as usize, true, true)]
        }
    }
}

impl Workload for DepStorm {
    fn tasks(&self) -> usize {
        self.tasks
    }
    fn decls(&self) -> Decls {
        self.decls
    }
    fn kind_names(&self) -> &'static [&'static str] {
        KINDS
    }
    fn kinds(&self) -> Vec<u8> {
        self.ops()
            .map(|op| match op {
                Op::Read { .. } => 0,
                Op::Write { .. } => 1,
                Op::Update { .. } => 2,
                Op::ReadUpdate { .. } => 3,
            })
            .collect()
    }
    fn producers(&self) -> (Vec<u32>, Vec<u32>) {
        object_producers(self.initial.len(), self.ops().map(accesses))
    }
    fn seq_s(&self) -> f64 {
        self.seq_s
    }
    fn rep(&self, threads: usize, spans: Option<&'static Spans>) -> Rep {
        run_rep(
            self.tasks(),
            |_| (),
            |()| {
                let rt = Runtime::builder()
                    .threads(threads)
                    .graph_size_limit(self.graph_limit)
                    .memory_limit(RENAMED_BYTES_LIMIT)
                    .build();
                let objs: Vec<Handle<u64>> = self.initial.iter().map(|&v| rt.data(v)).collect();
                (rt, objs)
            },
            |rt, objs| match spans {
                None => self.spawn(rt, objs, NoProbe),
                Some(s) => self.spawn(rt, objs, s),
            },
            |rt, objs| self.check(&objs.iter().map(|h| rt.read(h)).collect::<Vec<_>>()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_accepts_the_runtime_result() {
        let w = DepStorm::new(7, 5000, 16, 64);
        for spans in [None, Some(Spans::leak(w.tasks()))] {
            let rep = w.rep(2, spans);
            assert!(rep.correct);
            assert_eq!(rep.failed, 0);
            assert_eq!(rep.stats.tasks_executed, 5000);
        }
    }

    #[test]
    fn check_rejects_a_flipped_value() {
        let w = DepStorm::new(7, 5000, 16, 64);
        let mut finals = w.expected().to_vec();
        assert!(w.check(&finals).is_ok());
        finals[3] ^= 1 << 17;
        assert!(w.check(&finals).is_err());
    }

    #[test]
    fn check_rejects_a_wrong_read() {
        let w = DepStorm::new(7, 5000, 16, 64);
        w.mismatches.fetch_add(1, Ordering::Relaxed);
        assert!(w.check(w.expected()).is_err());
        assert!(w.check(w.expected()).is_ok(), "the count resets per check");
    }

    #[test]
    fn same_seed_same_sequence() {
        let (a, b) = (DepStorm::new(3, 1000, 8, 32), DepStorm::new(3, 1000, 8, 32));
        assert_eq!(a.expected(), b.expected());
        assert_ne!(a.expected(), DepStorm::new(4, 1000, 8, 32).expected());
    }
}
