//! The repetition loop shared by every workload, and the reduction of
//! repetitions to end-to-end and per-layer metrics.

use std::collections::BTreeMap;

use smpss::{Runtime, StatsSnapshot};

use crate::trace::{now_ns, write_spans, Spans, Stamps};

/// Declarations one repetition makes, by kind.
#[derive(Clone, Copy, Debug, Default)]
pub struct Decls {
    /// `read` / `write` / `inout` on whole objects.
    pub object: u64,
    /// `read_region` / `write_region` / `inout_region`.
    pub region: u64,
    /// `output` and `inout` declarations on whole objects (the ones the
    /// renamer may serve with a fresh version).
    pub object_writes: u64,
}

/// A seeded, output-checked workload.
pub trait Workload {
    /// Tasks one repetition spawns.
    fn tasks(&self) -> usize;
    /// Flops per repetition (`n³/3` for Cholesky), for the workloads
    /// whose tasks do floating-point work; `gflops` is reported only for
    /// those.
    fn flops(&self) -> Option<f64> {
        None
    }
    /// Declarations per repetition.
    fn decls(&self) -> Decls;
    /// Task-kind names, indexed by the values [`kinds`](Self::kinds)
    /// returns.
    fn kind_names(&self) -> &'static [&'static str];
    /// The kind of every task, in spawn order. Built for traced runs
    /// only.
    fn kinds(&self) -> Vec<u8>;
    /// Flops of one `sgemm_t` task, 0 where there are none.
    fn gemm_flops(&self) -> f64 {
        0.0
    }
    /// True producers of each task, as CSR (see
    /// [`object_producers`](crate::trace::object_producers)). Built for
    /// traced runs only, so untraced runs do not hold it in memory.
    fn producers(&self) -> (Vec<u32>, Vec<u32>);
    /// Seconds the sequential reference took, with no runtime.
    fn seq_s(&self) -> f64;
    /// One repetition on `threads` runtime threads. With `spans`, the
    /// benchmark's instrumented spawn code runs and records into it;
    /// without, the plain (application) spawn code runs.
    fn rep(&self, threads: usize, spans: Option<&'static Spans>) -> Rep;
}

/// What traced runs know about the task sequence besides the spans.
pub struct Shape {
    pub kinds: Vec<u8>,
    pub producers: (Vec<u32>, Vec<u32>),
}

/// What one repetition measured.
#[derive(Clone, Debug)]
pub struct Rep {
    /// Median of the repetition's [`SETUP_SAMPLES`] set-ups.
    pub setup_s: f64,
    pub wall_s: f64,
    /// `now_ns` stamps: first spawn, `wait_all` entry, `wait_all` exit.
    pub spawn_start: u64,
    pub wait: (u64, u64),
    /// Tasks counted failed: failed + cancelled as `wait_all` reports
    /// them, or every task when the output check failed.
    pub failed: u64,
    pub correct: bool,
    pub stats: StatsSnapshot,
    /// How far the process's resident memory rose over this repetition
    /// above what it held when the repetition started, with its input
    /// already made: the program's own peak memory, not the benchmark's.
    pub peak_rss_mib: f64,
}

/// Set-ups timed per repetition. A set-up takes tens of microseconds,
/// and the first of a repetition several times that, so a single one is
/// mostly noise; `setup_s` is the median of these.
pub const SETUP_SAMPLES: usize = 25;

/// Time one repetition. `prepare(last)` makes the input of one set-up,
/// untimed; `last` is false for the set-ups whose runtime is dropped
/// unused, which may get stand-ins that register the same way. `setup`
/// builds the runtime and registers that input, `spawn` issues every
/// task, `check` verifies the output after `wait_all`. Set-up runs
/// [`SETUP_SAMPLES`] times back to back, the last one for real. Setup
/// ends and the wall clock starts at the first spawn. The
/// resident-memory high-water mark is reset once the last input is made,
/// so each repetition reports its own peak.
pub fn run_rep<I, D>(
    tasks: usize,
    mut prepare: impl FnMut(bool) -> I,
    mut setup: impl FnMut(I) -> (Runtime, D),
    spawn: impl FnOnce(&Runtime, &D),
    check: impl FnOnce(&Runtime, D) -> Result<(), String>,
) -> Rep {
    let mut setup_s = Vec::with_capacity(SETUP_SAMPLES);
    let mut timed_setup = |input: I| {
        let t0 = now_ns();
        let built = setup(input);
        let t1 = now_ns();
        setup_s.push((t1 - t0) as f64 * 1e-9);
        (built, t1)
    };
    for _ in 1..SETUP_SAMPLES {
        let input = prepare(false);
        drop(timed_setup(input));
    }
    let input = prepare(true);
    let base_mib = reset_peak_rss();
    let ((rt, data), t1) = timed_setup(input);
    spawn(&rt, &data);
    let t2 = now_ns();
    let res = rt.wait_all();
    let t3 = now_ns();
    let stats = rt.stats();
    let failed = match check(&rt, data) {
        Ok(()) => res.map_or_else(|e| (e.failed.len() + e.cancelled.len()) as u64, |()| 0),
        Err(msg) => {
            eprintln!("output check failed: {msg}");
            tasks as u64
        }
    };
    drop(rt);
    Rep {
        setup_s: median(setup_s.into_iter()),
        wall_s: (t3 - t1) as f64 * 1e-9,
        spawn_start: t1,
        wait: (t2, t3),
        failed,
        correct: failed == 0,
        stats,
        peak_rss_mib: status_mib("VmHWM:") - base_mib,
    }
}

/// A metric value with its unit.
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// The result of one benchmark invocation.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub reps: usize,
    pub traced_reps: usize,
    pub metrics: Metrics,
}

/// Repetitions below which a run does not stop, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// Run `w` for about `seconds` after one unmeasured warm-up repetition.
/// Untraced, report the end-to-end metrics. Traced, alternate untraced
/// and traced repetitions and report the per-layer metrics.
pub fn measure<W: Workload>(
    w: &W,
    threads: usize,
    seconds: f64,
    trace: bool,
    spans_out: Option<&str>,
) -> Outcome {
    let spans = trace.then(|| Spans::leak(w.tasks()));
    let shape = trace.then(|| Shape {
        kinds: w.kinds(),
        producers: w.producers(),
    });
    let mut all = vec![w.rep(threads, None)];
    let start = now_ns();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut last_stamps = Vec::new();
    loop {
        let t = now_ns();
        let rep = w.rep(threads, None);
        plain.push(rep.clone());
        all.push(rep);
        if let Some(s) = spans {
            let rep = w.rep(threads, Some(s));
            last_stamps = s.read(w.tasks());
            let shape = shape.as_ref().expect("built when tracing");
            traced.push((
                rep.clone(),
                layer_metrics(w, threads, &rep, &last_stamps, shape),
            ));
            all.push(rep);
        }
        let took = (now_ns() - t) as f64 * 1e-9;
        let elapsed = (now_ns() - start) as f64 * 1e-9;
        if plain.len() >= MIN_REPS && elapsed + took > seconds {
            break;
        }
    }
    if let (Some(path), Some((rep, _)), Some(shape)) = (spans_out, traced.last(), &shape) {
        let names: Vec<&str> = shape
            .kinds
            .iter()
            .map(|&k| w.kind_names()[k as usize])
            .collect();
        if let Err(e) = write_spans(path, &last_stamps, &names, rep.wait) {
            eprintln!("could not write spans to {path}: {e}");
        }
    }

    let attempted = (all.len() * w.tasks()) as u64;
    let failed: u64 = all.iter().map(|r| r.failed).sum();
    let correct = all.iter().all(|r| r.correct);
    let plain_wall = median(plain.iter().map(|r| r.wall_s));
    let mut metrics = Metrics::new();
    if trace {
        for key in traced[0].1.keys() {
            let v = median(traced.iter().map(|(_, m)| m[key].0));
            metrics.insert(key, (v, traced[0].1[key].1));
        }
        let traced_wall = median(traced.iter().map(|(r, _)| r.wall_s));
        let seq = w.seq_s();
        let speedup = seq / plain_wall;
        metrics.insert("trace.overhead", (traced_wall / plain_wall, "ratio"));
        metrics.insert("ref.seq_s", (seq, "s"));
        metrics.insert("ref.speedup", (speedup, "ratio"));
        metrics.insert("sched.parallel_eff", (speedup / threads as f64, "ratio"));
        metrics.insert("failed_frac", (failed as f64 / attempted as f64, "ratio"));
    } else {
        let med = |f: &dyn Fn(&Rep) -> f64| median(plain.iter().map(f));
        metrics.insert("setup_s", (med(&|r| r.setup_s), "s"));
        metrics.insert("wall_s", (plain_wall, "s"));
        metrics.insert(
            "tasks_per_s",
            (med(&|r| r.stats.tasks_executed as f64 / r.wall_s), "1/s"),
        );
        if let Some(flops) = w.flops() {
            metrics.insert("gflops", (med(&|r| flops / r.wall_s * 1e-9), "Gflop/s"));
        }
        metrics.insert("peak_rss_mib", (med(&|r| r.peak_rss_mib), "MiB"));
        metrics.insert("ok_frac", (1.0 - failed as f64 / attempted as f64, "ratio"));
    }
    Outcome {
        correct,
        attempted,
        failed,
        reps: all.len(),
        traced_reps: traced.len(),
        metrics,
    }
}

/// Reduce one traced repetition's spans and counters to the per-layer
/// metrics. Metrics a workload has no samples for read 0.
pub fn layer_metrics<W: Workload>(
    w: &W,
    threads: usize,
    rep: &Rep,
    s: &[Stamps],
    shape: &Shape,
) -> Metrics {
    let n = s.len();
    let ns = |a: u64, b: u64| b.saturating_sub(a) as f64;
    let sum = |f: &dyn Fn(&Stamps) -> f64| s.iter().map(f).sum::<f64>();
    let wall_ns = ns(rep.spawn_start, rep.wait.1);
    let decls = w.decls();

    let task_ns = sum(&|x| ns(x.task, x.declare));
    let declare_ns = sum(&|x| ns(x.declare, x.submit));
    let mut submit: Vec<f64> = s.iter().map(|x| ns(x.submit, x.submitted)).collect();
    let spawn_ns = sum(&|x| ns(x.task, x.submitted));
    let busy_ns = sum(&|x| ns(x.body_start, x.body_end));
    // Bodies the main thread ran from inside a task/declare/submit call
    // (throttle help), so spawn self time does not count them twice.
    let last_submit = s.iter().map(|x| x.submitted).max().unwrap_or(0);
    let helped_ns = sum(&|x| {
        if x.body_on_main && x.body_end <= last_submit {
            ns(x.body_start, x.body_end)
        } else {
            0.0
        }
    });

    // Start lag: body start minus the later of submit return and the
    // end of the task's last-ending true producer.
    let (off, prod) = &shape.producers;
    let mut lag: Vec<f64> = (0..n)
        .map(|i| {
            let ready = prod[off[i] as usize..off[i + 1] as usize]
                .iter()
                .map(|&p| s[p as usize].body_end)
                .fold(s[i].submitted, u64::max);
            ns(ready, s[i].body_start)
        })
        .collect();

    let kinds = w.kind_names();
    let mut body_ns = vec![0.0; kinds.len()];
    let mut count = vec![0u64; kinds.len()];
    for (x, &k) in s.iter().zip(&shape.kinds) {
        body_ns[k as usize] += ns(x.body_start, x.body_end);
        count[k as usize] += 1;
    }
    let kind = |name: &str| {
        kinds
            .iter()
            .position(|k| *k == name)
            .map_or((0.0, 0), |k| (body_ns[k], count[k]))
    };
    let per = |t: f64, c: f64| if c == 0.0 { 0.0 } else { t / c };
    let mean = |(t, c): (f64, u64)| per(t, c as f64);
    // A task's declarations share one span, and no workload mixes
    // object and region declarations.
    let (object_ns, region_ns) = if decls.region == 0 {
        (declare_ns, 0.0)
    } else {
        (0.0, declare_ns)
    };

    let st = &rep.stats;
    let mut m = Metrics::new();
    m.insert("runtime.task_ns", (task_ns / n as f64, "ns"));
    m.insert("runtime.spawn_share", (spawn_ns / wall_ns, "ratio"));
    m.insert(
        "dep.declare_ns",
        (per(object_ns, decls.object as f64), "ns"),
    );
    m.insert(
        "dep.region_declare_ns",
        (per(region_ns, decls.region as f64), "ns"),
    );
    m.insert("dep.true_edges", (st.true_edges as f64, "count"));
    m.insert(
        "dep.ns_per_edge",
        (per(declare_ns, st.true_edges as f64), "ns"),
    );
    m.insert("data.renames", (st.renames as f64, "count"));
    m.insert(
        "data.rename_frac",
        (per(st.renames as f64, decls.object_writes as f64), "ratio"),
    );
    m.insert("data.slab_hits", (st.slab_hits as f64, "count"));
    m.insert(
        "data.version_bytes_peak",
        (st.version_bytes_peak as f64, "B"),
    );
    m.insert(
        "sched.submit_ns",
        (submit.iter().sum::<f64>() / n as f64, "ns"),
    );
    m.insert("sched.submit_p99_ns", (percentile(&mut submit, 0.99), "ns"));
    m.insert("sched.submit_samples", (n as f64, "count"));
    m.insert(
        "sched.throttle_blocks",
        (st.throttle_blocks as f64, "count"),
    );
    m.insert(
        "sched.start_lag_p50_us",
        (percentile(&mut lag, 0.50) * 1e-3, "us"),
    );
    m.insert(
        "sched.start_lag_p99_us",
        (percentile(&mut lag, 0.99) * 1e-3, "us"),
    );
    m.insert("sched.start_lag_samples", (n as f64, "count"));
    m.insert("sched.barrier_s", (ns(rep.wait.0, rep.wait.1) * 1e-9, "s"));
    m.insert("sched.own_pops", (st.own_pops as f64, "count"));
    m.insert("sched.main_pops", (st.main_pops as f64, "count"));
    m.insert("sched.steals", (st.steals as f64, "count"));
    m.insert("sched.batch_steals", (st.batch_steals as f64, "count"));
    m.insert("sched.handoffs", (st.handoffs as f64, "count"));
    m.insert(
        "sched.idle_frac",
        (
            1.0 - (busy_ns + spawn_ns - helped_ns) / (threads as f64 * wall_ns),
            "ratio",
        ),
    );
    // The BLAS metrics only where there are BLAS tasks (`cholesky`).
    if kinds.contains(&"sgemm_t") {
        let (gemm_ns, gemms) = kind("sgemm_t");
        m.insert(
            "blas.gemm_gflops",
            (per(gemms as f64 * w.gemm_flops(), gemm_ns), "Gflop/s"),
        );
        for (key, name) in [
            ("blas.sgemm_t.body_s", "sgemm_t"),
            ("blas.ssyrk_t.body_s", "ssyrk_t"),
            ("blas.spotrf_t.body_s", "spotrf_t"),
            ("blas.strsm_t.body_s", "strsm_t"),
        ] {
            m.insert(key, (kind(name).0 * 1e-9, "s"));
        }
    }
    m.insert("sort.seqquick_ns", (mean(kind("seqquick")), "ns"));
    m.insert("sort.seqmerge_ns", (mean(kind("seqmerge")), "ns"));
    m.insert("body.busy_s", (busy_ns * 1e-9, "s"));
    m
}

/// Median of a non-empty sequence.
pub fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    percentile(&mut v, 0.5)
}

/// Nearest-rank percentile (`q` in `[0, 1]`); 0 for an empty slice.
pub fn percentile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Reset the process's resident-memory high-water mark to its current
/// resident size (Linux `clear_refs` code 5), after handing the heap's
/// free memory back to the system so that the mark starts from live
/// data, not from what earlier repetitions left cached in the allocator.
/// Returns the resident size the mark starts from, in MiB. Where the
/// reset is refused the mark covers the whole process life.
fn reset_peak_rss() -> f64 {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` only returns free heap pages to
        // the kernel; it takes the allocator's own locks.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    status_mib("VmRSS:")
}

/// A memory field of `/proc/self/status` (`VmHWM:`, `VmRSS:`), in MiB;
/// 0 where there is none.
fn status_mib(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::Cholesky;
    use crate::dep_storm::DepStorm;
    use crate::multisort::Multisort;

    /// `(name, unit)` of every metric in one section of BENCHMARK.json.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits next to the benchmark");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        let field = |s: &str, key: &str| {
            let at = s.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
            s[at..at + s[at..].find('"').expect("closing quote")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    fn emitted<W: Workload>(w: &W, trace: bool) -> Vec<(String, String)> {
        let out = measure(w, 2, 1e-3, trace, None);
        assert!(out.correct);
        let tasks = w.tasks() as u64;
        assert_eq!((out.attempted, out.failed), (out.reps as u64 * tasks, 0));
        out.metrics
            .iter()
            .map(|(k, (_, u))| (k.to_string(), u.to_string()))
            .collect()
    }

    fn with(mut v: Vec<(String, String)>, extra: &[(&str, &str)]) -> Vec<(String, String)> {
        v.extend(extra.iter().map(|(k, u)| (k.to_string(), u.to_string())));
        v.sort();
        v
    }

    /// The gated workloads emit exactly what BENCHMARK.json declares;
    /// `cholesky`, which is not gated, adds its flop rates.
    #[test]
    fn untraced_run_emits_exactly_the_end_to_end_metrics() {
        let want = with(declared("end_to_end"), &[]);
        assert_eq!(emitted(&DepStorm::new(1, 2000, 8, 32), false), want);
        assert_eq!(emitted(&Multisort::new(1, 1 << 10, 64), false), want);
        let want = with(declared("end_to_end"), &[("gflops", "Gflop/s")]);
        assert_eq!(emitted(&Cholesky::new(1, 64, 16), false), want);
    }

    #[test]
    fn traced_run_emits_exactly_the_per_layer_metrics() {
        let want = with(declared("per_layer"), &[]);
        assert_eq!(emitted(&DepStorm::new(1, 2000, 8, 32), true), want);
        assert_eq!(emitted(&Multisort::new(1, 1 << 10, 64), true), want);
        let blas = [
            ("blas.gemm_gflops", "Gflop/s"),
            ("blas.sgemm_t.body_s", "s"),
            ("blas.ssyrk_t.body_s", "s"),
            ("blas.spotrf_t.body_s", "s"),
            ("blas.strsm_t.body_s", "s"),
        ];
        let want = with(declared("per_layer"), &blas);
        assert_eq!(emitted(&Cholesky::new(1, 64, 16), true), want);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
        assert_eq!(median([3.0, 1.0, 2.0].into_iter()), 2.0);
    }
}
