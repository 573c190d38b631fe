//! The repository benchmark: three seeded, output-checked workloads run on
//! the SMPSs runtime with one runtime thread per CPU (the main thread
//! counts), in one process and with no other threads.
//!
//! ```text
//! smpss-repo-benchmark --workload <cholesky|dep_storm|multisort> --seed <n>
//!                      --seconds <s> --trace <0|1> [--spans <file.csv>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of untraced repetitions;
//! `--trace 1` alternates untraced and traced repetitions and prints the
//! per-layer metrics. The last stdout line is the result as JSON; the
//! line before it names the seed, CPU count, runtime threads and CPU
//! model. See README.md.

mod cholesky;
mod dep_storm;
mod measure;
mod multisort;
mod trace;

use std::process::ExitCode;

use measure::{measure, Outcome, Workload};

/// `cholesky`: a 3072 x 3072 matrix in 128 x 128 tiles (2,600 tasks).
const CHOLESKY_DIM: usize = 3072;
const CHOLESKY_TILE: usize = 128;
/// `dep_storm`: 2M tasks over 256 objects, at most 1024 in flight.
const STORM_TASKS: usize = 2_000_000;
const STORM_OBJECTS: usize = 256;
const STORM_GRAPH_LIMIT: usize = 1024;
/// `multisort`: 2^22 elements, 4096-element sort and merge chunks
/// (11,264 tasks).
const SORT_LEN: usize = 1 << 22;
const SORT_CHUNK: usize = 4096;

/// SplitMix64: the seeded generator behind every workload's input.
#[derive(Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans,
    })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn run<W: Workload>(w: &W, threads: usize, a: &Args) -> Outcome {
    measure(w, threads, a.seconds, a.trace, a.spans.as_deref())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <cholesky|dep_storm|multisort> --seed <n> --seconds <s> --trace <0|1> [--spans <file.csv>]"
            );
            return ExitCode::from(2);
        }
    };
    trace::mark_main_thread();
    // Calibrate the span clock before any input is generated.
    trace::now_ns();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc;
    let out = match args.workload.as_str() {
        "cholesky" => run(
            &cholesky::Cholesky::new(args.seed, CHOLESKY_DIM, CHOLESKY_TILE),
            threads,
            &args,
        ),
        "dep_storm" => run(
            &dep_storm::DepStorm::new(args.seed, STORM_TASKS, STORM_OBJECTS, STORM_GRAPH_LIMIT),
            threads,
            &args,
        ),
        "multisort" => run(
            &multisort::Multisort::new(args.seed, SORT_LEN, SORT_CHUNK),
            threads,
            &args,
        ),
        other => {
            eprintln!("error: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"nproc\": {nproc}, \"threads\": {threads}, \"cpu\": {}, \"trace\": {}, \"reps\": {}, \"traced_reps\": {}}}",
        json_str(&args.workload),
        args.seed,
        json_str(&cpu_model()),
        args.trace as u8,
        out.reps,
        out.traced_reps,
    );
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, (v, unit))| {
            let v = if v.is_finite() {
                *v
            } else {
                eprintln!("warning: {name} is not finite ({v}); reported as 0");
                0.0
            };
            format!(
                "{}: {{\"value\": {v:?}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: an output check failed");
        ExitCode::FAILURE
    }
}
