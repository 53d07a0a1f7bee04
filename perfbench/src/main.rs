//! The workspace's benchmark: three workloads, each driven from outside
//! through the public functions of the layer it exercises.
//!
//! ```text
//! perfbench --workload solve-batch|serve-mixed|lockstep-pair
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics of the chosen workload.
//! `--trace 1` measures the per-layer metrics: the workload runs once
//! untraced and once with the extra timed sub-calls (input builds,
//! verifiers, in-process twins of served requests, local replays), and the
//! layers the workload does not reach are filled in by a short traced pass
//! of the other two workloads. The last line of stdout is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! records the host.

mod lockstep;
mod serve;
mod solve;
mod stats;

use stats::{overhead_pct, Metrics, Phase, Tally};
use std::process::{exit, Command, Stdio};

/// Which measurement a workload pass makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end metrics, no timed sub-calls.
    EndToEnd,
    /// Untraced then traced phase of the chosen workload: per-layer
    /// metrics plus `trace.overhead_pct`.
    Traced,
    /// One short traced phase, filling in layers the chosen workload does
    /// not reach.
    Census,
    /// One setup and nothing else: a child process's sample of `setup_s`.
    Setup,
}

/// Set in the environment of the child processes that time one setup each.
const SETUP_ONLY_ENV: &str = "PERFBENCH_SETUP_ONLY";

/// Times one setup of the same workload and seed in a child process (this
/// binary, run again with the same arguments and [`SETUP_ONLY_ENV`] set).
///
/// The end-to-end run takes all but one of its `setup_s` samples this way
/// so that the repeated setups leave nothing in the measuring process: the
/// undirected graph build leaks its parallel sort's merge scratch (about
/// 12.5 MB per 200k-node graph), and in-process repeats would pile that
/// into `peak_rss_mb`. Each sample is then a first setup in a fresh
/// process, as a CLI run makes it.
fn setup_in_child() -> f64 {
    let exe = std::env::current_exe().expect("perfbench: own executable path");
    let out = Command::new(exe)
        .args(std::env::args().skip(1))
        .env(SETUP_ONLY_ENV, "1")
        .stderr(Stdio::inherit())
        .output()
        .expect("perfbench: spawning a setup child");
    assert!(
        out.status.success(),
        "perfbench: setup child exited with {}",
        out.status
    );
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .parse()
        .unwrap_or_else(|e| panic!("perfbench: setup child printed {text:?}: {e}"))
}

pub const WORKLOADS: [&str; 3] = ["solve-batch", "serve-mixed", "lockstep-pair"];

/// One workload: its setup, its timed phase and what it reports.
pub trait Workload: Sized {
    /// Setups per run; `setup_s` is their median.
    const SETUP_REPS: usize;
    /// Sets the workload up `reps` times, timing each, and keeps the last.
    fn setup(seed: u64, reps: usize, setup_s: &mut Vec<f64>) -> Self;
    /// Runs whole rounds of the workload's ops until `seconds` have passed
    /// (at least one); a traced phase also makes the timed sub-calls.
    fn phase(&mut self, seconds: f64, traced: bool, tally: &mut Tally) -> Phase;
    /// A separate loop of g-n ops after the timed phase, for workloads
    /// whose own ops all run g-d.
    fn spec_phase(&mut self, seconds: f64, tally: &mut Tally) -> Option<Phase>;
    /// The workload's `ops_per_s` over a phase.
    fn ops_per_s(phase: &Phase) -> f64;
    /// The per-layer metrics, from the traced phases' samples.
    fn layer_metrics(&self, m: &mut Metrics, tally: &mut Tally);
}

fn run<W: Workload>(seed: u64, seconds: f64, mode: Mode, tally: &mut Tally) -> Metrics {
    let mut m = Metrics::default();
    let mut setup_s = Vec::new();
    let reps = match mode {
        Mode::Traced => W::SETUP_REPS,
        Mode::EndToEnd => {
            setup_s.extend((1..W::SETUP_REPS).map(|_| setup_in_child()));
            1
        }
        Mode::Census | Mode::Setup => 1,
    };
    let mut w = W::setup(seed, reps, &mut setup_s);
    stats::release_free_memory();
    match mode {
        Mode::EndToEnd => {
            let p = w.phase(seconds, false, tally);
            let spec = w.spec_phase(seconds, tally);
            p.end_to_end(
                W::ops_per_s(&p),
                spec.as_ref().unwrap_or(&p),
                &setup_s,
                &mut m,
            );
        }
        Mode::Traced => {
            let plain = w.phase(seconds / 2.0, false, tally);
            let traced = w.phase(seconds / 2.0, true, tally);
            overhead_pct(W::ops_per_s(&plain), W::ops_per_s(&traced), &mut m);
            w.layer_metrics(&mut m, tally);
        }
        Mode::Census => {
            w.phase(seconds, true, tally);
            w.layer_metrics(&mut m, tally);
        }
        Mode::Setup => println!("{}", setup_s[0]),
    }
    m
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Worker threads the workloads use: one per available core, so no
/// measurement here is oversubscribed.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run_workload(name: &str, seed: u64, seconds: f64, mode: Mode, tally: &mut Tally) -> Metrics {
    match name {
        "solve-batch" => run::<solve::SolveBatch>(seed, seconds, mode, tally),
        "serve-mixed" => run::<serve::ServeMixed>(seed, seconds, mode, tally),
        "lockstep-pair" => run::<lockstep::LockstepPair>(seed, seconds, mode, tally),
        _ => unreachable!("workload names are checked in parse_args"),
    }
}

/// First line of a command's stdout, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn host_line(threads: usize) -> String {
    let n = nproc();
    format!(
        "{{\"nproc\":{n},\"profile\":\"{}\",\"git_rev\":\"{}\",\"rustc\":\"{}\",\
         \"max_threads_used\":{threads},\"oversubscribed\":{}}}",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        stats::escape(&command_line("git", &["rev-parse", "HEAD"])),
        stats::escape(&command_line("rustc", &["-V"])),
        threads > n
    )
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        exit(2);
    });
    let mut tally = Tally::default();
    if std::env::var_os(SETUP_ONLY_ENV).is_some() {
        run_workload(&args.workload, args.seed, 0.0, Mode::Setup, &mut tally);
        return;
    }
    let metrics = if args.trace {
        let mut m = run_workload(
            &args.workload,
            args.seed,
            args.seconds,
            Mode::Traced,
            &mut tally,
        );
        for other in WORKLOADS.iter().filter(|w| **w != args.workload) {
            m.extend(run_workload(
                other,
                args.seed,
                0.0,
                Mode::Census,
                &mut tally,
            ));
        }
        m
    } else {
        let mut m = run_workload(
            &args.workload,
            args.seed,
            args.seconds,
            Mode::EndToEnd,
            &mut tally,
        );
        m.set("peak_rss_mb", stats::peak_rss_mb(), "MB");
        m
    };
    for problem in &tally.incorrect {
        eprintln!("perfbench: incorrect: {problem}");
    }
    println!("spec-stalls {}", tally.spec_stalls);
    println!("host {}", host_line(nproc()));
    println!("{}", tally.result_json(&metrics));
}
