//! `galois` — command-line driver for the benchmark applications.
//!
//! Mirrors how the paper's artifact is used: pick an application, an input
//! size, a thread count, and — the point of the paper — a scheduler, on the
//! command line.
//!
//! ```text
//! galois <app> [--variant seq|g-n|g-d|pbbs] [--threads N] [--size N] [--seed N] [--verify]
//!        [--round-log FILE] [--chaos-seed N] [--cache-dir DIR]
//! galois record <app> --out FILE [--threads N] [--size N] [--seed N]
//!        [--chaos-seed N] [--cache-dir DIR]
//! galois replay FILE [--threads N] [--cache-dir DIR]
//!        [--lockstep T1,T2[,..]] [--lockstep-chaos S1,S2[,..]]
//! galois serve [--addr HOST:PORT] [--workers N] [--cache-dir DIR]
//! galois lockstep FILE --replicas N [--spawn] [--window W] [--threads T1,T2[,..]]
//! galois replicate --join ADDR [--threads N]
//!
//! apps: bfs, mis, dt, dmr, pfp
//! ```
//!
//! Graph inputs are built with the parallel generators on `--threads`
//! threads — byte-identical to a one-thread build at any thread count.
//! `--cache-dir DIR` additionally caches generated graph and flow-network
//! inputs on disk (keyed by generator + parameters + seed), so repeated
//! runs load instead of regenerating.
//!
//! `--round-log FILE` (executor variants only) writes the per-round schedule
//! log as canonical JSONL: for `g-d` the file is byte-identical at any
//! thread count, so two runs can be diffed to find the first divergent
//! round.
//!
//! `--chaos-seed N` (executor variants only) installs a seeded
//! schedule-chaos policy: thread start skew, barrier jitter, shuffled
//! worklist chunk traffic and forced spurious aborts. `g-d` output and
//! round logs must be byte-identical regardless of the seed — that is the
//! invariance the flag exists to stress.
//!
//! `--chaos-panics N` (executor variants only) additionally injects seeded
//! operator panics at the failsafe point, exercising the fault-containment
//! layer; `--max-stalled-rounds N` overrides the stall watchdog threshold.
//! Executor faults map to distinct exit codes: operator panic = 10,
//! stall/livelock = 11, quarantine overflow = 12, replay divergence = 13.
//!
//! `galois record` runs an app deterministically and writes a versioned,
//! checksummed [`RunManifest`] capturing the input identity, executor
//! configuration, per-round hash chain, and final fingerprint. `galois
//! replay FILE` re-executes the manifest — at `--threads N`, which may
//! differ from the recording — and verifies every round hash; the first
//! divergent round is reported with exit code 13. `--lockstep T1,T2[,..]`
//! instead runs N in-process replicas at the given thread counts
//! (optionally with per-replica `--lockstep-chaos` seeds) and judges their
//! round chains against the recording by the same rules, events and exit
//! codes as `galois lockstep`: 0 agreed, 13 a divergent minority evicted,
//! 14 refused.
//!
//! `galois serve` starts the resident compute service (`galois-serve`): a
//! blocking HTTP/1.1+JSON server that keeps inputs warm across requests,
//! quarantines faulting runs into structured error responses, and streams
//! round logs and replayable manifests back to clients. It runs until
//! `POST /shutdown` (or the process is killed).
//!
//! [`RunManifest`]: deterministic_galois::core::RunManifest

use deterministic_galois::apps::{bfs, dmr, dt, mis, mm, pfp};
use deterministic_galois::core::manifest::EXIT_DIVERGENCE;
use deterministic_galois::core::{
    DetOptions, ExecError, Executor, LockstepOutcome, LockstepReport, RoundLog, RunReport,
    Schedule, WorklistPolicy,
};
use deterministic_galois::geometry::point::random_points;
use deterministic_galois::graph::cache::{load_or_build_flow, load_or_build_graph, CacheOutcome};
use deterministic_galois::graph::{gen, CsrGraph, FlowNetwork};
use deterministic_galois::mesh::check;
use std::path::PathBuf;
use std::process::exit;

#[derive(Debug)]
struct Args {
    app: String,
    variant: String,
    threads: usize,
    size: usize,
    seed: u64,
    verify: bool,
    round_log: Option<String>,
    chaos_seed: Option<u64>,
    chaos_panics: Option<u64>,
    max_stalled_rounds: Option<u64>,
    cache_dir: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: galois <bfs|mis|mm|dt|dmr|pfp> [--variant seq|g-n|g-d|pbbs] \
         [--threads N] [--size N] [--seed N] [--verify] [--round-log FILE] \
         [--chaos-seed N] [--chaos-panics N] [--max-stalled-rounds N] \
         [--cache-dir DIR]\n       \
         galois record <app> --out FILE [--threads N] [--size N] [--seed N] \
         [--chaos-seed N] [--cache-dir DIR]\n       \
         galois replay FILE [--threads N] [--cache-dir DIR] \
         [--lockstep T1,T2[,..]] [--lockstep-chaos S1,S2[,..]]\n       \
         galois serve [--addr HOST:PORT] [--workers N] [--cache-dir DIR]\n       \
         galois lockstep FILE --replicas N [--spawn] [--window W] \
         [--threads T1,T2[,..]] [--timeout-ms T] [--addr HOST:PORT] \
         [--report FILE] [--emit-manifest FILE] [--perturb i:SPREAD] \
         [--throttle i:MS]\n       \
         galois replicate --join ADDR [--threads N] [--perturb-spread N] \
         [--throttle-ms MS]"
    );
    exit(2);
}

/// Parses a thread count: a positive integer, else usage and exit 2.
fn thread_count(v: &str) -> usize {
    match v.parse() {
        Ok(n) if n > 0 => n,
        _ => usage(),
    }
}

/// Prints a lockstep session's event log and verdict; returns its exit
/// code. Shared by `galois replay --lockstep` and `galois lockstep`.
fn print_lockstep(report: &LockstepReport) -> i32 {
    for event in &report.events {
        eprintln!(
            "  [{}] round {} replica {}: {}",
            event.kind.name(),
            event.round,
            event
                .replica
                .map(|r| r.to_string())
                .unwrap_or_else(|| "-".to_string()),
            event.detail,
        );
    }
    match report.outcome {
        LockstepOutcome::Agreed => println!(
            "lockstep ok: {} replicas agreed on all {} rounds, fingerprint {:016x}",
            report.replicas, report.rounds, report.final_fingerprint,
        ),
        LockstepOutcome::Diverged => eprintln!(
            "lockstep DIVERGED: survivors {:?} agreed, fingerprint {:016x}",
            report.survivors, report.final_fingerprint,
        ),
        LockstepOutcome::NoQuorum => eprintln!("lockstep REFUSED: no quorum (see events above)"),
    }
    report.outcome.exit_code()
}

/// `galois record <app> --out FILE ...` — run deterministically, capture a
/// replayable manifest.
fn cmd_record(argv: &[String]) -> ! {
    use deterministic_galois::harness::{record_run, App, InputConfig};
    let mut it = argv.iter().cloned();
    let Some(app) = it.next() else { usage() };
    let Some(app) = App::from_name(&app) else {
        eprintln!("unknown app {app}");
        usage();
    };
    let mut threads = 2usize;
    let mut input = InputConfig::default();
    let mut chaos_seed = None;
    let mut out: Option<PathBuf> = None;
    while let Some(flag) = it.next() {
        let mut val = |a: &mut dyn FnMut(String)| match it.next() {
            Some(v) => a(v),
            None => usage(),
        };
        match flag.as_str() {
            "--threads" => val(&mut |v| threads = thread_count(&v)),
            "--size" => val(&mut |v| input.size = Some(v.parse().unwrap_or_else(|_| usage()))),
            "--seed" => val(&mut |v| input.seed = v.parse().unwrap_or_else(|_| usage())),
            "--chaos-seed" => {
                val(&mut |v| chaos_seed = Some(v.parse().unwrap_or_else(|_| usage())))
            }
            "--cache-dir" => val(&mut |v| input.cache_dir = Some(v.into())),
            "--out" => val(&mut |v| out = Some(v.into())),
            _ => usage(),
        }
    }
    let Some(out) = out else {
        eprintln!("record requires --out FILE");
        usage();
    };
    input.build_threads = threads;
    let t0 = std::time::Instant::now();
    let manifest = match record_run(app, threads, chaos_seed, &input) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("record failed: {e}");
            exit(1);
        }
    };
    if let Err(e) = manifest.save(&out) {
        eprintln!("{e}");
        exit(1);
    }
    println!(
        "recorded {app} ({}): {} rounds, fingerprint {:016x} -> {} in {:?}",
        manifest.input_key,
        manifest.round_hashes.len(),
        manifest.final_fingerprint,
        out.display(),
        t0.elapsed(),
    );
    exit(0);
}

/// `galois replay FILE ...` — re-execute a manifest and verify every round
/// hash, or cross-check N lockstep replicas.
fn cmd_replay(argv: &[String]) -> ! {
    use deterministic_galois::core::RunManifest;
    use deterministic_galois::harness::{
        replay_run, run_lockstep, unperturbed, LockstepReplica, ReplayError,
    };
    let mut it = argv.iter().cloned();
    let Some(path) = it.next() else { usage() };
    let manifest = match RunManifest::load(path.as_ref()) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("cannot load manifest {path}: {e}");
            exit(1);
        }
    };
    let mut threads = manifest.exec.threads;
    let mut cache_dir: Option<PathBuf> = None;
    let mut lockstep: Option<Vec<usize>> = None;
    let mut lockstep_chaos: Vec<u64> = Vec::new();
    while let Some(flag) = it.next() {
        let mut val = |a: &mut dyn FnMut(String)| match it.next() {
            Some(v) => a(v),
            None => usage(),
        };
        match flag.as_str() {
            "--threads" => val(&mut |v| threads = thread_count(&v)),
            "--cache-dir" => val(&mut |v| cache_dir = Some(v.into())),
            "--lockstep" => val(&mut |v| {
                lockstep = Some(v.split(',').map(|t| thread_count(t.trim())).collect());
            }),
            "--lockstep-chaos" => val(&mut |v| {
                lockstep_chaos = v
                    .split(',')
                    .map(|t| t.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
            }),
            _ => usage(),
        }
    }
    let t0 = std::time::Instant::now();
    if let Some(replica_threads) = lockstep {
        if replica_threads.len() < 2 {
            eprintln!("--lockstep needs at least two replica thread counts");
            exit(2);
        }
        let replicas: Vec<LockstepReplica> = replica_threads
            .iter()
            .enumerate()
            .map(|(i, &t)| LockstepReplica {
                threads: t,
                chaos_seed: lockstep_chaos.get(i).copied(),
            })
            .collect();
        match run_lockstep(&manifest, &replicas, &unperturbed) {
            Ok(report) => exit(print_lockstep(&report)),
            Err(e) => {
                eprintln!("lockstep failed: {e}");
                exit(1);
            }
        }
    }
    match replay_run(&manifest, threads, cache_dir) {
        Ok(out) => {
            println!(
                "replay ok: {} at {threads} threads, {} rounds, fingerprint {:016x} \
                 matches the recording in {:?}",
                manifest.app,
                out.rounds,
                out.fingerprint,
                t0.elapsed(),
            );
            exit(0);
        }
        Err(ReplayError::Divergence(d)) => {
            eprintln!("replay DIVERGED: {d}");
            exit(EXIT_DIVERGENCE);
        }
        Err(e) => {
            eprintln!("replay failed: {e}");
            exit(1);
        }
    }
}

/// `galois serve ...` — run the resident compute service until shutdown.
fn cmd_serve(argv: &[String]) -> ! {
    use deterministic_galois::serve::{ServeConfig, Server};
    let mut config = ServeConfig {
        addr: "127.0.0.1:7423".to_string(),
        ..ServeConfig::default()
    };
    let mut it = argv.iter().cloned();
    while let Some(flag) = it.next() {
        let mut val = |a: &mut dyn FnMut(String)| match it.next() {
            Some(v) => a(v),
            None => usage(),
        };
        match flag.as_str() {
            "--addr" => val(&mut |v| config.addr = v),
            "--workers" => val(&mut |v| config.workers = v.parse().unwrap_or_else(|_| usage())),
            "--cache-dir" => val(&mut |v| config.cache_dir = Some(v.into())),
            _ => usage(),
        }
    }
    if config.workers == 0 {
        eprintln!("--workers must be positive");
        exit(2);
    }
    let handle = match Server::start(config.clone()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", config.addr);
            exit(1);
        }
    };
    println!(
        "galois-serve listening on {} ({} workers, cache {})",
        handle.addr(),
        config.workers,
        config
            .cache_dir
            .as_deref()
            .map(|p| p.display().to_string())
            .unwrap_or_else(|| "off".to_string()),
    );
    handle.wait();
    println!("galois-serve stopped");
    exit(0);
}

/// `galois replicate --join ADDR ...` — join a lockstep coordinator, re-run
/// its job, and stream per-round prefix hashes back over the wire.
fn cmd_replicate(argv: &[String]) -> ! {
    use deterministic_galois::serve::lockstep::{run_replica, ReplicaOptions};
    let mut it = argv.iter().cloned();
    let mut join: Option<String> = None;
    let mut opts = ReplicaOptions::default();
    while let Some(flag) = it.next() {
        let mut val = |a: &mut dyn FnMut(String)| match it.next() {
            Some(v) => a(v),
            None => usage(),
        };
        match flag.as_str() {
            "--join" => val(&mut |v| join = Some(v)),
            "--threads" => val(&mut |v| opts.threads = Some(thread_count(&v))),
            "--perturb-spread" => val(&mut |v| {
                opts.perturb_spread = Some(v.parse().unwrap_or_else(|_| usage()));
            }),
            "--throttle-ms" => {
                val(&mut |v| opts.throttle_ms = v.parse().unwrap_or_else(|_| usage()))
            }
            _ => usage(),
        }
    }
    let Some(addr) = join else {
        eprintln!("replicate requires --join ADDR");
        usage();
    };
    match run_replica(&addr, opts) {
        Ok(code) => exit(code),
        Err(e) => {
            eprintln!("replicate failed: {e}");
            exit(1);
        }
    }
}

/// `galois lockstep FILE ...` — coordinate N replica processes re-executing
/// a recorded manifest, cross-checking per-round hashes over the wire.
fn cmd_lockstep(argv: &[String]) -> ! {
    use deterministic_galois::core::RunManifest;
    use deterministic_galois::serve::lockstep::{Coordinator, LockstepConfig};
    use std::process::{Child, Command, Stdio};
    use std::time::Duration;
    let mut it = argv.iter().cloned();
    let Some(path) = it.next() else { usage() };
    let manifest = match RunManifest::load(path.as_ref()) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("cannot load manifest {path}: {e}");
            exit(1);
        }
    };
    let mut config = LockstepConfig::default();
    let mut spawn = false;
    let mut addr = "127.0.0.1:0".to_string();
    let mut report_path: Option<PathBuf> = None;
    let mut emit_manifest: Option<PathBuf> = None;
    // Per-replica-index overrides, "i:VALUE" pairs.
    let mut perturb: Vec<(usize, usize)> = Vec::new();
    let mut throttle: Vec<(usize, u64)> = Vec::new();
    let parse_pair = |v: &str| -> Option<(usize, u64)> {
        let (i, x) = v.split_once(':')?;
        Some((i.trim().parse().ok()?, x.trim().parse().ok()?))
    };
    while let Some(flag) = it.next() {
        let mut val = |a: &mut dyn FnMut(String)| match it.next() {
            Some(v) => a(v),
            None => usage(),
        };
        match flag.as_str() {
            "--replicas" => val(&mut |v| config.replicas = v.parse().unwrap_or_else(|_| usage())),
            "--window" => val(&mut |v| config.window = v.parse().unwrap_or_else(|_| usage())),
            "--threads" => val(&mut |v| {
                config.threads = v.split(',').map(|t| thread_count(t.trim())).collect();
            }),
            "--timeout-ms" => val(&mut |v| {
                config.timeout = Duration::from_millis(v.parse().unwrap_or_else(|_| usage()));
            }),
            "--spawn" => spawn = true,
            "--addr" => val(&mut |v| addr = v),
            "--report" => val(&mut |v| report_path = Some(v.into())),
            "--emit-manifest" => val(&mut |v| emit_manifest = Some(v.into())),
            "--perturb" => val(&mut |v| {
                let Some((i, s)) = parse_pair(&v) else {
                    usage()
                };
                perturb.push((i, s as usize));
            }),
            "--throttle" => val(&mut |v| {
                let Some((i, ms)) = parse_pair(&v) else {
                    usage()
                };
                throttle.push((i, ms));
            }),
            _ => usage(),
        }
    }
    if config.replicas == 0 || config.window == 0 || config.timeout.is_zero() {
        eprintln!("--replicas, --window and --timeout-ms must be positive");
        usage();
    }
    let manifest_text = manifest.to_json();
    let coordinator = match Coordinator::bind(manifest, config.clone(), &addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            exit(1);
        }
    };
    let bound = coordinator.addr();
    println!(
        "lockstep coordinator on {bound} awaiting {} replicas",
        config.replicas
    );
    let mut children: Vec<Child> = Vec::new();
    if spawn {
        let bin = std::env::current_exe().unwrap_or_else(|e| {
            eprintln!("cannot find own binary: {e}");
            exit(1);
        });
        for i in 0..config.replicas {
            let mut cmd = Command::new(&bin);
            cmd.arg("replicate").arg("--join").arg(bound.to_string());
            if let Some(&(_, s)) = perturb.iter().find(|&&(j, _)| j == i) {
                cmd.arg("--perturb-spread").arg(s.to_string());
            }
            if let Some(&(_, ms)) = throttle.iter().find(|&&(j, _)| j == i) {
                cmd.arg("--throttle-ms").arg(ms.to_string());
            }
            cmd.stdin(Stdio::null());
            match cmd.spawn() {
                Ok(child) => children.push(child),
                Err(e) => {
                    eprintln!("cannot spawn replica {i}: {e}");
                    for mut c in children {
                        let _ = c.kill();
                        let _ = c.wait();
                    }
                    exit(1);
                }
            }
        }
    }
    let result = coordinator.run();
    for mut c in children {
        let _ = c.kill();
        let _ = c.wait();
    }
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lockstep failed: {e}");
            exit(1);
        }
    };
    if let Some(out) = report_path {
        if let Err(e) = result.report.save(&out) {
            eprintln!("cannot write report: {e}");
            exit(1);
        }
    }
    let code = print_lockstep(&result.report);
    if result.report.outcome != LockstepOutcome::NoQuorum {
        if let Some(out) = emit_manifest {
            if let Err(e) = std::fs::write(&out, &manifest_text) {
                eprintln!("cannot emit manifest: {e}");
                exit(1);
            }
        }
    }
    exit(code);
}

fn parse_args() -> Args {
    {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        match argv.first().map(String::as_str) {
            Some("record") => cmd_record(&argv[1..]),
            Some("replay") => cmd_replay(&argv[1..]),
            Some("serve") => cmd_serve(&argv[1..]),
            Some("replicate") => cmd_replicate(&argv[1..]),
            Some("lockstep") => cmd_lockstep(&argv[1..]),
            _ => {}
        }
    }
    let mut args = Args {
        app: String::new(),
        variant: "g-d".into(),
        threads: 2,
        size: 0,
        seed: 42,
        verify: false,
        round_log: None,
        chaos_seed: None,
        chaos_panics: None,
        max_stalled_rounds: None,
        cache_dir: None,
    };
    let mut it = std::env::args().skip(1);
    let Some(app) = it.next() else { usage() };
    args.app = app;
    while let Some(flag) = it.next() {
        let mut val = |a: &mut dyn FnMut(String)| match it.next() {
            Some(v) => a(v),
            None => usage(),
        };
        match flag.as_str() {
            "--variant" => val(&mut |v| args.variant = v),
            "--threads" => val(&mut |v| args.threads = thread_count(&v)),
            "--size" => val(&mut |v| args.size = v.parse().unwrap_or_else(|_| usage())),
            "--seed" => val(&mut |v| args.seed = v.parse().unwrap_or_else(|_| usage())),
            "--verify" => args.verify = true,
            "--round-log" => val(&mut |v| args.round_log = Some(v)),
            "--chaos-seed" => {
                val(&mut |v| args.chaos_seed = Some(v.parse().unwrap_or_else(|_| usage())))
            }
            "--chaos-panics" => {
                val(&mut |v| args.chaos_panics = Some(v.parse().unwrap_or_else(|_| usage())))
            }
            "--max-stalled-rounds" => val(&mut |v| {
                args.max_stalled_rounds = Some(v.parse().unwrap_or_else(|_| usage()));
            }),
            "--cache-dir" => val(&mut |v| args.cache_dir = Some(v.into())),
            _ => usage(),
        }
    }
    args
}

fn executor(args: &Args, spread: usize, fifo: bool) -> Executor {
    let schedule = match args.variant.as_str() {
        "seq" => Schedule::Serial,
        "g-n" => Schedule::Speculative,
        "g-d" => Schedule::Deterministic(DetOptions {
            locality_spread: spread,
            ..Default::default()
        }),
        other => {
            eprintln!("variant {other} is not executor-based here");
            exit(2);
        }
    };
    let mut exec = Executor::new()
        .threads(args.threads)
        .schedule(schedule)
        .worklist(if fifo {
            WorklistPolicy::Fifo
        } else {
            WorklistPolicy::Lifo
        })
        .record_rounds(args.round_log.is_some());
    if let Some(seed) = args.chaos_seed {
        exec = exec.chaos(seed);
    }
    if let Some(seed) = args.chaos_panics {
        exec = exec.chaos_panics(seed);
    }
    if let Some(rounds) = args.max_stalled_rounds {
        exec = exec.max_stalled_rounds(rounds);
    }
    exec
}

/// Reports an executor fault and exits with its distinct code
/// (operator panic = 10, stall = 11, quarantine overflow = 12).
fn fault_exit(err: ExecError) -> ! {
    eprintln!("fault: {err}");
    exit(err.exit_code());
}

/// Builds (or loads from `--cache-dir`) a graph input with the parallel
/// generators on `--threads` threads, reporting where it came from.
fn input_graph(args: &Args, key: String, build: impl FnOnce() -> CsrGraph) -> CsrGraph {
    let t0 = std::time::Instant::now();
    let (g, cached) = load_or_build_graph(args.cache_dir.as_deref(), &key, build);
    report_input(&key, cached, t0);
    g
}

/// Flow-network counterpart of [`input_graph`].
fn input_flow(args: &Args, key: String, build: impl FnOnce() -> FlowNetwork) -> FlowNetwork {
    let t0 = std::time::Instant::now();
    let (net, cached) = load_or_build_flow(args.cache_dir.as_deref(), &key, build);
    report_input(&key, cached, t0);
    net
}

fn report_input(key: &str, cached: CacheOutcome, t0: std::time::Instant) {
    if cached != CacheOutcome::Disabled {
        println!("input {key}: cache {cached} in {:?}", t0.elapsed());
    }
}

/// Extracts a run's round log (if `--round-log` asked for one) and returns
/// the stats line to print.
fn finish_report(args: &Args, report: &mut RunReport) -> String {
    if args.round_log.is_some() {
        write_round_log(args, report.take_round_log().into_iter().collect());
    }
    report.stats.to_string()
}

/// Writes the canonical JSONL round log, renumbering rounds across
/// multi-pass runs (pfp bouts) into one monotone sequence.
fn write_round_log(args: &Args, logs: Vec<RoundLog>) {
    let Some(path) = &args.round_log else { return };
    let mut out = String::new();
    let mut next = 0u64;
    for log in logs {
        for mut rec in log.into_records() {
            rec.round = next;
            next += 1;
            out.push_str(&rec.canonical_json());
            out.push('\n');
        }
    }
    if let Err(e) = std::fs::write(path, &out) {
        eprintln!("cannot write round log {path}: {e}");
        exit(1);
    }
    println!("round log: {next} rounds -> {path}");
}

fn main() {
    let args = parse_args();
    if args.round_log.is_some() && !matches!(args.variant.as_str(), "g-d" | "g-n") {
        eprintln!("--round-log requires an executor variant (g-d or g-n)");
        exit(2);
    }
    if args.chaos_seed.is_some() && !matches!(args.variant.as_str(), "g-d" | "g-n") {
        eprintln!("--chaos-seed requires an executor variant (g-d or g-n)");
        exit(2);
    }
    if args.chaos_panics.is_some() && !matches!(args.variant.as_str(), "g-d" | "g-n") {
        eprintln!("--chaos-panics requires an executor variant (g-d or g-n)");
        exit(2);
    }
    if args.max_stalled_rounds == Some(0) {
        eprintln!("--max-stalled-rounds must be positive");
        exit(2);
    }
    let t0 = std::time::Instant::now();
    match args.app.as_str() {
        "bfs" => {
            let n = if args.size == 0 { 200_000 } else { args.size };
            let g = input_graph(&args, format!("uniform-n{n}-d5-s{}", args.seed), || {
                gen::uniform_random_parallel(n, 5, args.seed, args.threads)
            });
            println!("bfs: {n} nodes x 5 edges, variant {}", args.variant);
            let (dist, stats) = match args.variant.as_str() {
                "pbbs" => {
                    let (d, _, s) = bfs::pbbs(&g, 0, args.threads, false);
                    (
                        d,
                        format!("rounds={} atomics={}", s.rounds, s.atomic_updates),
                    )
                }
                _ => {
                    let exec = executor(&args, 1, true);
                    let (d, mut r) =
                        bfs::try_galois(&g, 0, &exec).unwrap_or_else(|e| fault_exit(e));
                    let stats = finish_report(&args, &mut r);
                    (d, stats)
                }
            };
            println!("done in {:?} ({stats})", t0.elapsed());
            if args.verify {
                bfs::verify(&g, 0, &dist).expect("bfs verification");
                println!("verified: distances exact");
            }
        }
        "mis" => {
            let n = if args.size == 0 { 200_000 } else { args.size };
            let g = input_graph(&args, format!("uniform-und-n{n}-d4-s{}", args.seed), || {
                gen::uniform_random_undirected_parallel(n, 4, args.seed, args.threads)
            });
            println!("mis: {n} nodes, variant {}", args.variant);
            let (flags, stats) = match args.variant.as_str() {
                "pbbs" => {
                    let (f, s) = mis::pbbs(&g, args.threads, false);
                    (f, format!("rounds={} committed={}", s.rounds, s.committed))
                }
                _ => {
                    let exec = executor(&args, 1, false);
                    let (f, mut r) = mis::try_galois(&g, &exec).unwrap_or_else(|e| fault_exit(e));
                    let stats = finish_report(&args, &mut r);
                    (f, stats)
                }
            };
            let in_count = flags.iter().filter(|&&f| f == mis::state::IN).count();
            println!("done in {:?}: |MIS| = {in_count} ({stats})", t0.elapsed());
            if args.verify {
                mis::verify(&g, &flags).expect("mis verification");
                println!("verified: independent and maximal");
            }
        }
        "dt" => {
            let n = if args.size == 0 { 25_000 } else { args.size };
            let pts = random_points(n, args.seed);
            println!("dt: {n} points, variant {}", args.variant);
            let (mesh, stats) = match args.variant.as_str() {
                "pbbs" => {
                    let (m, s) = dt::pbbs(&pts, args.seed, args.threads, false);
                    (m, format!("rounds={} aborted={}", s.rounds, s.aborted))
                }
                "seq" => (dt::seq(&pts, args.seed), "sequential".to_string()),
                _ => {
                    let exec = executor(&args, 16, false);
                    let (m, mut r) =
                        dt::try_galois(&pts, args.seed, &exec).unwrap_or_else(|e| fault_exit(e));
                    let stats = finish_report(&args, &mut r);
                    (m, stats)
                }
            };
            println!(
                "done in {:?}: {} triangles ({stats})",
                t0.elapsed(),
                mesh.num_tris_alive()
            );
            if args.verify {
                check::validate(&mesh).expect("structure");
                check::check_delaunay(&mesh).expect("Delaunay property");
                println!("verified: valid Delaunay triangulation");
            }
        }
        "dmr" => {
            let n = if args.size == 0 { 3_000 } else { args.size };
            println!("dmr: mesh of {n} points, variant {}", args.variant);
            let mesh = dmr::make_input(n, args.seed);
            let before = check::quality(&mesh);
            let stats = match args.variant.as_str() {
                "pbbs" => {
                    let s = dmr::pbbs(&mesh, args.threads, false);
                    format!("rounds={} committed={}", s.rounds, s.committed)
                }
                _ => {
                    let exec = executor(&args, 16, false);
                    let mut r = dmr::try_galois(&mesh, &exec).unwrap_or_else(|e| fault_exit(e));
                    finish_report(&args, &mut r)
                }
            };
            let after = check::quality(&mesh);
            println!(
                "done in {:?}: {} -> {} triangles, bad {} -> {} ({stats})",
                t0.elapsed(),
                before.triangles,
                after.triangles,
                before.bad,
                after.bad
            );
            if args.verify {
                check::validate(&mesh).expect("structure");
                check::check_delaunay(&mesh).expect("Delaunay property");
                assert_eq!(after.bad, 0);
                println!("verified: conforming refined Delaunay mesh");
            }
        }
        "mm" => {
            let n = if args.size == 0 { 200_000 } else { args.size };
            let g = input_graph(&args, format!("uniform-und-n{n}-d4-s{}", args.seed), || {
                gen::uniform_random_undirected_parallel(n, 4, args.seed, args.threads)
            });
            println!("mm: {n} nodes, variant {}", args.variant);
            let (mate, stats) = match args.variant.as_str() {
                "seq" => (mm::seq(&g), "sequential".to_string()),
                "pbbs" => {
                    let (m, s) = mm::pbbs(&g, args.threads, false);
                    (m, format!("rounds={} committed={}", s.rounds, s.committed))
                }
                _ => {
                    let exec = executor(&args, 1, false);
                    let (m, mut r) = mm::try_galois(&g, &exec).unwrap_or_else(|e| fault_exit(e));
                    let stats = finish_report(&args, &mut r);
                    (m, stats)
                }
            };
            let matched = mate.iter().filter(|&&m| m != mm::UNMATCHED).count() / 2;
            println!("done in {:?}: |M| = {matched} ({stats})", t0.elapsed());
            if args.verify {
                mm::verify(&g, &mate).expect("matching verification");
                println!("verified: valid maximal matching");
            }
        }
        "pfp" => {
            let n = if args.size == 0 { 8_192 } else { args.size };
            let net = input_flow(
                &args,
                format!("flowrand-n{n}-d4-c1000-s{}", args.seed),
                || FlowNetwork::random_parallel(n, 4, 1_000, args.seed, args.threads),
            );
            println!("pfp: {n} nodes x 4 edges, variant {}", args.variant);
            let (flow, stats) = match args.variant.as_str() {
                "seq" => {
                    let (f, s) = pfp::seq(&net);
                    (f, format!("pushes={} relabels={}", s.pushes, s.relabels))
                }
                "pbbs" => {
                    eprintln!("pfp has no PBBS variant (§4.1)");
                    exit(2);
                }
                _ => {
                    let exec = executor(&args, 1, true);
                    let (f, mut r) = pfp::try_galois(&net, &exec).unwrap_or_else(|e| fault_exit(e));
                    if args.round_log.is_some() {
                        let logs = r
                            .reports
                            .iter_mut()
                            .filter_map(|b| b.take_round_log())
                            .collect();
                        write_round_log(&args, logs);
                    }
                    (f, format!("bouts={} {}", r.bouts, r.stats))
                }
            };
            println!("done in {:?}: max flow = {flow} ({stats})", t0.elapsed());
            if args.verify {
                net.verify_flow().expect("flow conservation");
                println!("verified: valid flow assignment");
            }
        }
        _ => usage(),
    }
}
