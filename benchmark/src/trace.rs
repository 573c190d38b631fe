//! Spans recorded around the calls into the runtime's public API.
//!
//! A traced repetition records four spans per task: three on the
//! spawning thread — `task` (`Runtime::task`), `declare` (the
//! `TaskSpawner` access declarations), `submit` (`TaskSpawner::submit`,
//! throttle stalls included) — and one `body` span on whichever thread
//! ran the task. A
//! task's spans are keyed by its index in the generated task sequence:
//! `task` is the root, `declare` and `submit` are its children, and the
//! `body` span's parent is the same task's `submit` span. All stamps go
//! into one preallocated table that is reduced (and optionally written
//! out) after the repetition ends.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// A raw timestamp: the time-stamp counter where there is one (a few
/// nanoseconds to read, against tens for `Instant::now`), else
/// nanoseconds since the clock's epoch.
#[inline(always)]
pub fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: RDTSC has no preconditions; every x86-64 CPU has it.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        clock().epoch.elapsed().as_nanos() as u64
    }
}

struct Clock {
    #[cfg_attr(target_arch = "x86_64", allow(dead_code))]
    epoch: Instant,
    ticks0: u64,
    ns_per_tick: f64,
}

/// The tick rate, measured once against `Instant` over 20 ms.
fn clock() -> &'static Clock {
    static CLOCK: OnceLock<Clock> = OnceLock::new();
    CLOCK.get_or_init(|| {
        let epoch = Instant::now();
        if cfg!(not(target_arch = "x86_64")) {
            return Clock {
                epoch,
                ticks0: 0,
                ns_per_tick: 1.0,
            };
        }
        let ticks0 = ticks();
        while epoch.elapsed().as_millis() < 20 {
            std::hint::spin_loop();
        }
        let (ns, t) = (epoch.elapsed().as_nanos() as f64, ticks());
        Clock {
            epoch,
            ticks0,
            ns_per_tick: ns / (t - ticks0) as f64,
        }
    })
}

/// Convert a [`ticks`] stamp to nanoseconds since the clock's epoch.
pub fn to_ns(t: u64) -> u64 {
    let c = clock();
    (t.saturating_sub(c.ticks0) as f64 * c.ns_per_tick) as u64
}

/// Nanoseconds since the clock's epoch.
#[inline]
pub fn now_ns() -> u64 {
    to_ns(ticks())
}

thread_local! {
    static ON_MAIN: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Mark the calling thread as the spawning (main) thread, so body spans
/// record whether the main thread ran them.
pub fn mark_main_thread() {
    ON_MAIN.with(|m| m.set(true));
}

/// Stamps written by the spawning thread. Atomics (all `Relaxed`) only
/// so the table can be shared; `Runtime::wait_all` returning orders every
/// write before the reduction reads them.
#[derive(Default)]
struct SpawnRec {
    task: AtomicU64,
    declare: AtomicU64,
    submit: AtomicU64,
    submitted: AtomicU64,
}

/// Stamps written by the thread that ran the body, kept apart from the
/// spawn stamps so the two threads do not share cache lines.
#[derive(Default)]
struct BodyRec {
    start: AtomicU64,
    end: AtomicU64,
    on_main: AtomicBool,
}

/// One task's stamps, read back after the repetition.
#[derive(Clone, Copy, Debug)]
pub struct Stamps {
    pub task: u64,
    pub declare: u64,
    pub submit: u64,
    pub submitted: u64,
    pub body_start: u64,
    pub body_end: u64,
    pub body_on_main: bool,
}

/// The preallocated span table, one record per task of a repetition.
pub struct Spans {
    spawn: Vec<SpawnRec>,
    body: Vec<BodyRec>,
}

impl Spans {
    /// A table for up to `tasks` tasks, leaked so task bodies can hold a
    /// plain `&'static` reference (no per-task reference counting).
    pub fn leak(tasks: usize) -> &'static Spans {
        Box::leak(Box::new(Spans {
            spawn: (0..tasks).map(|_| SpawnRec::default()).collect(),
            body: (0..tasks).map(|_| BodyRec::default()).collect(),
        }))
    }

    /// Read back the first `n` records, in nanoseconds.
    pub fn read(&self, n: usize) -> Vec<Stamps> {
        let ns = |a: &AtomicU64| to_ns(a.load(Ordering::Relaxed));
        self.spawn[..n]
            .iter()
            .zip(&self.body[..n])
            .map(|(s, b)| Stamps {
                task: ns(&s.task),
                declare: ns(&s.declare),
                submit: ns(&s.submit),
                submitted: ns(&s.submitted),
                body_start: ns(&b.start),
                body_end: ns(&b.end),
                body_on_main: b.on_main.load(Ordering::Relaxed),
            })
            .collect()
    }
}

/// What the spawn code calls at each boundary. [`NoProbe`] compiles to
/// nothing; `&'static Spans` records.
pub trait Probe: Copy + Send + Sync + 'static {
    /// A [`ticks`] timestamp, or 0 when not tracing.
    fn now(self) -> u64;
    /// Task `i` was spawned: `[task, declare, submit, submitted]` stamps.
    /// The spawn loops pass the previous task's `submitted` as `task`,
    /// so a task span also covers the loop step that leads to it.
    fn spawned(self, i: usize, t: [u64; 4]);
    /// Task `i`'s body ran from `start` until now.
    fn ran(self, i: usize, start: u64);
}

/// The untraced probe.
#[derive(Clone, Copy)]
pub struct NoProbe;

impl Probe for NoProbe {
    #[inline(always)]
    fn now(self) -> u64 {
        0
    }
    #[inline(always)]
    fn spawned(self, _: usize, _: [u64; 4]) {}
    #[inline(always)]
    fn ran(self, _: usize, _: u64) {}
}

impl Probe for &'static Spans {
    #[inline]
    fn now(self) -> u64 {
        ticks()
    }
    #[inline]
    fn spawned(self, i: usize, t: [u64; 4]) {
        let r = &self.spawn[i];
        r.task.store(t[0], Ordering::Relaxed);
        r.declare.store(t[1], Ordering::Relaxed);
        r.submit.store(t[2], Ordering::Relaxed);
        r.submitted.store(t[3], Ordering::Relaxed);
    }
    #[inline]
    fn ran(self, i: usize, start: u64) {
        let end = ticks();
        let r = &self.body[i];
        r.start.store(start, Ordering::Relaxed);
        r.end.store(end, Ordering::Relaxed);
        r.on_main
            .store(ON_MAIN.with(|m| m.get()), Ordering::Relaxed);
    }
}

/// Write the spans of one repetition as CSV
/// (`span,task,kind,parent,start_ns,end_ns`). `task` is the task's index
/// and `kind` its name (`names[task]`); `parent` names the parent span of
/// the same task.
pub fn write_spans(
    path: &str,
    stamps: &[Stamps],
    names: &[&str],
    wait: (u64, u64),
) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "span,task,kind,parent,start_ns,end_ns")?;
    for (i, s) in stamps.iter().enumerate() {
        let kind = names[i];
        writeln!(out, "task,{i},{kind},,{},{}", s.task, s.declare)?;
        writeln!(out, "declare,{i},{kind},task,{},{}", s.declare, s.submit)?;
        writeln!(out, "submit,{i},{kind},task,{},{}", s.submit, s.submitted)?;
        writeln!(
            out,
            "body,{i},{kind},submit,{},{}",
            s.body_start, s.body_end
        )?;
    }
    writeln!(out, "wait_all,,,,{},{}", wait.0, wait.1)?;
    out.flush()
}

/// For each task, the tasks that last wrote what it reads (its true
/// producers), given each task's `(object, reads, writes)` accesses in
/// spawn order. Returned as CSR: producers of task `i` are
/// `prod[off[i]..off[i + 1]]`.
pub fn object_producers<I>(objects: usize, tasks: I) -> (Vec<u32>, Vec<u32>)
where
    I: IntoIterator,
    I::Item: IntoIterator<Item = (usize, bool, bool)>,
{
    let mut last_writer = vec![u32::MAX; objects];
    let (mut off, mut prod) = (vec![0u32], Vec::new());
    for (i, accesses) in tasks.into_iter().enumerate() {
        let start = prod.len();
        let accesses: Vec<_> = accesses.into_iter().collect();
        for &(o, reads, _) in &accesses {
            let w = last_writer[o];
            if reads && w != u32::MAX && !prod[start..].contains(&w) {
                prod.push(w);
            }
        }
        for &(o, _, writes) in &accesses {
            if writes {
                last_writer[o] = i as u32;
            }
        }
        off.push(prod.len() as u32);
    }
    (off, prod)
}
