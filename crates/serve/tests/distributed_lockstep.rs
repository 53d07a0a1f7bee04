//! Cross-process divergence-and-failover battery for distributed lockstep
//! replication (`galois_serve::lockstep`).
//!
//! Every scenario here runs *real* `galois replicate` subprocesses against
//! a coordinator — either an in-process [`Coordinator`] (so the test can
//! kill children mid-run and inspect the report object directly) or the
//! `galois lockstep --spawn` CLI (so the exit-code contract is proven at
//! the process boundary):
//!
//! - clean N-process agreement is byte-identical to a local run at mixed
//!   thread budgets;
//! - a perturbed replica is caught at an exact first divergent round,
//!   stable across repeats;
//! - a SIGKILL'd replica degrades the session to the remaining quorum,
//!   whose result still matches the serial oracle;
//! - a doctored *majority* makes the coordinator refuse (exit 14) rather
//!   than vote against the recording;
//! - a slow replica cannot balloon coordinator memory past the window;
//! - the TCP coordinator and the in-process `harness::run_lockstep` reach
//!   the same verdict, event for event, on the same perturbed replicas.

use galois_core::manifest::{LockstepEventKind, LockstepOutcome, LockstepReport};
use galois_core::RunManifest;
use galois_harness::subprocess::{galois_bin, spawn_replica, ReplicaSpec};
use galois_harness::{
    record_run, run_app, run_lockstep, unperturbed, App, InputConfig, LockstepReplica, Variant,
};
use galois_serve::lockstep::{
    run_replica_on, Coordinator, LockstepConfig, ReplicaOptions, EXIT_DIVERGENCE, EXIT_NO_QUORUM,
};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::Child;
use std::time::Duration;

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("galois-lockstep-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Records the default bfs run (the battery's reference workload) once per
/// call — recording is itself deterministic, so every call agrees.
fn record_bfs() -> RunManifest {
    record_run(App::Bfs, 2, None, &InputConfig::from_seed(42)).expect("record bfs")
}

/// Persists a scenario's report where CI can pick it up as an artifact.
fn persist_report(name: &str, report: &LockstepReport) {
    let Ok(dir) = std::env::var("GALOIS_LOCKSTEP_REPORT_DIR") else {
        return;
    };
    std::fs::create_dir_all(&dir).ok();
    report
        .save(&Path::new(&dir).join(format!("{name}.json")))
        .ok();
}

/// Binds an in-process coordinator, spawns `specs.len()` real replica
/// subprocesses against it, and runs the session to completion. Children
/// are killed/reaped on every path.
fn run_session(
    manifest: RunManifest,
    config: LockstepConfig,
    specs: &[ReplicaSpec],
    kill_after: Option<(usize, Duration)>,
) -> galois_serve::lockstep::LockstepRunResult {
    let coordinator = Coordinator::bind(manifest, config, "127.0.0.1:0").expect("bind");
    let addr = coordinator.addr().to_string();
    let bin = galois_bin();
    let mut children: Vec<Child> = specs
        .iter()
        .map(|spec| spawn_replica(&bin, &addr, spec).expect("spawn replica"))
        .collect();
    let killer = kill_after.map(|(victim, delay)| {
        let mut child = children.remove(victim);
        std::thread::spawn(move || {
            std::thread::sleep(delay);
            child.kill().expect("kill replica");
            child.wait().expect("reap killed replica");
        })
    });
    let result = coordinator.run();
    for mut child in children {
        let _ = child.kill();
        let _ = child.wait();
    }
    if let Some(killer) = killer {
        killer.join().expect("killer thread");
    }
    result.expect("coordinator run")
}

/// Runs the `galois lockstep --spawn` CLI against `manifest_path` and
/// returns `(exit_code, report)`.
fn run_cli(manifest_path: &Path, report_path: &Path, extra: &[&str]) -> (i32, LockstepReport) {
    let out = std::process::Command::new(galois_bin())
        .arg("lockstep")
        .arg(manifest_path)
        .args(["--replicas", "3", "--spawn", "--report"])
        .arg(report_path)
        .args(extra)
        .output()
        .expect("run galois lockstep");
    let code = out.status.code().unwrap_or_else(|| {
        panic!(
            "lockstep CLI killed by signal; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    let report = LockstepReport::load(report_path).unwrap_or_else(|e| {
        panic!(
            "report unreadable ({e}); stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    (code, report)
}

/// Clean agreement: at 2 and 3 replicas, with *different* thread budgets
/// per replica, every process reproduces the recorded chain and the
/// settled result is byte-identical to a local deterministic run.
#[test]
fn clean_agreement_is_byte_identical_to_local_run_at_mixed_budgets() {
    let manifest = record_bfs();
    let input = InputConfig::from_seed(42);
    let (local, _) = run_app(
        App::Bfs,
        Variant::Deterministic,
        4,
        None,
        &input,
        &unperturbed,
    )
    .expect("local");
    assert_eq!(local.fingerprint, manifest.final_fingerprint);

    for replicas in [2usize, 3] {
        let specs: Vec<ReplicaSpec> = (0..replicas)
            .map(|i| ReplicaSpec {
                threads: [1, 4][i % 2],
                ..ReplicaSpec::default()
            })
            .collect();
        let result = run_session(
            manifest.clone(),
            LockstepConfig {
                replicas,
                ..LockstepConfig::default()
            },
            &specs,
            None,
        );
        persist_report(&format!("clean-{replicas}"), &result.report);
        assert_eq!(result.exit_code, 0, "events: {:?}", result.report.events);
        assert_eq!(result.report.outcome, LockstepOutcome::Agreed);
        assert!(
            result.report.events.is_empty(),
            "{:?}",
            result.report.events
        );
        assert_eq!(
            result.report.survivors,
            (0..replicas as u64).collect::<Vec<_>>()
        );
        assert_eq!(result.report.rounds as usize, manifest.round_hashes.len());
        assert_eq!(result.report.final_fingerprint, local.fingerprint);
        assert_eq!(result.report.output_hash, local.output_hash);
    }
}

/// The coordinator's report and the emitted manifest survive the process
/// boundary: the CLI's `--emit-manifest` copy is byte-identical to the
/// recording, and the saved report round-trips through its JSON form.
#[test]
fn cli_clean_run_emits_byte_identical_manifest_and_report() {
    let dir = scratch_dir();
    let manifest_path = dir.join("clean.manifest.json");
    let emitted_path = dir.join("clean.emitted.json");
    let report_path = dir.join("clean.report.json");
    record_bfs().save(&manifest_path).unwrap();

    let (code, report) = run_cli(
        &manifest_path,
        &report_path,
        &["--emit-manifest", emitted_path.to_str().unwrap()],
    );
    persist_report("cli-clean", &report);
    assert_eq!(code, 0, "events: {:?}", report.events);
    assert_eq!(report.outcome, LockstepOutcome::Agreed);
    let recorded = std::fs::read(&manifest_path).unwrap();
    let emitted = std::fs::read(&emitted_path).unwrap();
    assert_eq!(recorded, emitted, "emitted manifest must be byte-identical");
    let reloaded = LockstepReport::load(&report_path).unwrap();
    assert_eq!(reloaded, report);
    std::fs::remove_dir_all(&dir).ok();
}

/// A replica with a planted schedule perturbation is detected at an exact
/// first divergent round — and because detection is itself deterministic,
/// that round is identical across repeated sessions.
#[test]
fn planted_divergence_is_pinned_to_a_stable_first_round() {
    let dir = scratch_dir();
    let manifest_path = dir.join("div.manifest.json");
    let report_path = dir.join("div.report.json");
    record_bfs().save(&manifest_path).unwrap();

    let repeats = if cfg!(debug_assertions) { 3 } else { 10 };
    let mut first_round: Option<u64> = None;
    for rep in 0..repeats {
        let (code, report) = run_cli(&manifest_path, &report_path, &["--perturb", "2:16"]);
        if rep == 0 {
            persist_report("divergence", &report);
        }
        assert_eq!(code, EXIT_DIVERGENCE, "repeat {rep}: {:?}", report.events);
        assert_eq!(report.outcome, LockstepOutcome::Diverged);
        // Coordinator ids follow join order, which races across spawned
        // children — the *count* and the divergent round are what's
        // deterministic, not which id the perturbed child landed on.
        assert_eq!(report.survivors.len(), 2);
        let divergences = report.events_of(LockstepEventKind::Divergence);
        assert_eq!(divergences.len(), 1, "repeat {rep}: {:?}", report.events);
        let evicted = divergences[0].replica.expect("divergence names a replica");
        assert!(!report.survivors.contains(&evicted));
        assert_ne!(divergences[0].expected, divergences[0].actual);
        assert_eq!(report.events_of(LockstepEventKind::Eviction).len(), 1);
        match first_round {
            None => first_round = Some(divergences[0].round),
            Some(r) => assert_eq!(
                divergences[0].round, r,
                "first divergent round drifted on repeat {rep}"
            ),
        }
        // The survivors still reproduced the recording in full.
        assert_eq!(report.rounds as usize, record_bfs().round_hashes.len());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// SIGKILL one of three replicas mid-stream: the session degrades to the
/// remaining quorum with a structured death event, and the survivors'
/// result still matches the serial oracle.
#[test]
fn killed_replica_degrades_to_quorum_matching_serial_oracle() {
    let manifest = record_bfs();
    let input = InputConfig::from_seed(42);
    let (oracle, _) =
        run_app(App::Bfs, Variant::Serial, 1, None, &input, &unperturbed).expect("oracle");

    // Replica 2 is throttled so the kill reliably lands while it is still
    // streaming rounds; 0 and 1 finish at full speed.
    let specs = [
        ReplicaSpec::default(),
        ReplicaSpec::default(),
        ReplicaSpec {
            throttle_ms: 100,
            ..ReplicaSpec::default()
        },
    ];
    let result = run_session(
        manifest.clone(),
        LockstepConfig {
            replicas: 3,
            ..LockstepConfig::default()
        },
        &specs,
        Some((2, Duration::from_millis(1500))),
    );
    persist_report("killed", &result.report);
    assert_eq!(result.exit_code, 0, "events: {:?}", result.report.events);
    assert_eq!(result.report.outcome, LockstepOutcome::Agreed);
    assert_eq!(result.report.survivors.len(), 2);
    let deaths = result.report.events_of(LockstepEventKind::Death);
    assert_eq!(deaths.len(), 1, "{:?}", result.report.events);
    let dead = deaths[0].replica.expect("death names a replica");
    assert!(!result.report.survivors.contains(&dead));
    assert_eq!(result.report.output_hash, oracle.output_hash);
    assert_eq!(result.report.final_fingerprint, manifest.final_fingerprint);
}

/// Two of three replicas doctored the same way: the "majority" agrees with
/// itself but contradicts the recording. The coordinator must refuse with
/// exit 14 — never vote a wrong majority over the reference chain.
#[test]
fn doctored_majority_is_refused_not_voted() {
    let dir = scratch_dir();
    let manifest_path = dir.join("refuse.manifest.json");
    let report_path = dir.join("refuse.report.json");
    record_bfs().save(&manifest_path).unwrap();

    let (code, report) = run_cli(
        &manifest_path,
        &report_path,
        &["--perturb", "0:16", "--perturb", "2:16"],
    );
    persist_report("refused", &report);
    assert_eq!(code, EXIT_NO_QUORUM, "events: {:?}", report.events);
    assert_eq!(report.outcome, LockstepOutcome::NoQuorum);
    assert!(report.survivors.is_empty());
    assert_eq!(report.output_hash, 0);
    assert_eq!(report.final_fingerprint, 0);
    let refusals = report.events_of(LockstepEventKind::Refusal);
    assert_eq!(refusals.len(), 1, "{:?}", report.events);
    assert!(
        refusals[0].detail.contains("2 of 3"),
        "{}",
        refusals[0].detail
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A slow replica back-pressures the fast ones instead of growing the
/// coordinator's buffers: no pending queue ever exceeds the window.
#[test]
fn slow_replica_is_window_bounded() {
    let manifest = record_bfs();
    let specs = [
        ReplicaSpec::default(),
        ReplicaSpec::default(),
        ReplicaSpec {
            throttle_ms: 10,
            ..ReplicaSpec::default()
        },
    ];
    let result = run_session(
        manifest.clone(),
        LockstepConfig {
            replicas: 3,
            window: 4,
            ..LockstepConfig::default()
        },
        &specs,
        None,
    );
    persist_report("windowed", &result.report);
    assert_eq!(result.exit_code, 0, "events: {:?}", result.report.events);
    assert_eq!(result.report.outcome, LockstepOutcome::Agreed);
    assert_eq!(result.report.window, 4);
    assert!(
        result.report.max_buffered <= 4,
        "buffered {} hashes past the window",
        result.report.max_buffered
    );
    // The window slowed settling but lost nothing.
    assert_eq!(result.report.rounds as usize, manifest.round_hashes.len());
}

/// Runs three replicas of `manifest` through both lockstep transports —
/// an in-process [`Coordinator`] with [`run_replica_on`] threads, and
/// `harness::run_lockstep` — planting the same locality-spread perturbation
/// in the replicas listed in `perturbed`, and returns both reports.
fn both_transports(manifest: &RunManifest, perturbed: &[usize]) -> [LockstepReport; 2] {
    const THREADS: [usize; 3] = [1, 2, 3];
    const SPREAD: usize = 16;

    let coordinator = Coordinator::bind(
        manifest.clone(),
        LockstepConfig {
            replicas: THREADS.len(),
            ..LockstepConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind");
    let addr = coordinator.addr();
    let over_tcp = std::thread::scope(|s| {
        let session = s.spawn(move || coordinator.run());
        for (i, threads) in THREADS.into_iter().enumerate() {
            // Replica ids follow connection order: connecting here, one
            // after another, makes replica i join as id i.
            let stream = TcpStream::connect(addr).expect("connect replica");
            let opts = ReplicaOptions {
                threads: Some(threads),
                perturb_spread: perturbed.contains(&i).then_some(SPREAD),
                throttle_ms: 0,
            };
            // A replica's own exit status is not under test here (a
            // refused replica may see its connection reset); the
            // coordinator's report is.
            s.spawn(move || run_replica_on(stream, opts));
        }
        session.join().expect("coordinator thread")
    })
    .expect("coordinator run")
    .report;

    // The harness's mutation seam sees thread counts, not replica indices;
    // the budgets are distinct, so they name the replicas. The perturbed
    // executor is built exactly as `run_replica` builds it.
    let perturbed_threads: Vec<usize> = perturbed.iter().map(|&i| THREADS[i]).collect();
    let mutation =
        |_: App, _: Variant, threads: usize, _: Option<u64>, exec: galois_core::Executor| {
            if perturbed_threads.contains(&threads) {
                let mut cfg = manifest.exec.clone();
                cfg.locality_spread = SPREAD;
                cfg.to_executor(threads).record_rounds(true)
            } else {
                exec
            }
        };
    let replicas: Vec<LockstepReplica> = THREADS
        .iter()
        .map(|&threads| LockstepReplica {
            threads,
            chaos_seed: None,
        })
        .collect();
    let in_process = run_lockstep(manifest, &replicas, &mutation).expect("run_lockstep");
    [over_tcp, in_process]
}

/// Both transports are shells over one verdict machine, so they must agree
/// on everything but the transport buffer (`window`, `max_buffered`).
fn assert_same_verdict(over_tcp: &LockstepReport, in_process: &LockstepReport) {
    assert_eq!(over_tcp.outcome, in_process.outcome);
    assert_eq!(over_tcp.rounds, in_process.rounds);
    assert_eq!(over_tcp.survivors, in_process.survivors);
    assert_eq!(over_tcp.output_hash, in_process.output_hash);
    assert_eq!(over_tcp.final_fingerprint, in_process.final_fingerprint);
    assert_eq!(over_tcp.events, in_process.events);
    assert_eq!((in_process.window, in_process.max_buffered), (0, 0));
}

/// One perturbed replica of three is evicted by both transports at the
/// same round, with the same events; two of three are refused by both.
#[test]
fn tcp_and_in_process_transports_reach_the_same_verdict() {
    let manifest = record_bfs();

    let [over_tcp, in_process] = both_transports(&manifest, &[2]);
    persist_report("cross-transport-diverged", &over_tcp);
    assert_eq!(
        over_tcp.outcome,
        LockstepOutcome::Diverged,
        "{:?}",
        over_tcp.events
    );
    assert_eq!(over_tcp.survivors, vec![0, 1]);
    assert_same_verdict(&over_tcp, &in_process);

    let [over_tcp, in_process] = both_transports(&manifest, &[1, 2]);
    persist_report("cross-transport-refused", &over_tcp);
    assert_eq!(
        over_tcp.outcome,
        LockstepOutcome::NoQuorum,
        "{:?}",
        over_tcp.events
    );
    assert_same_verdict(&over_tcp, &in_process);
}
