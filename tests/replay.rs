//! Record/replay and lockstep-replication tests.
//!
//! The paper's portability property — bit-identical deterministic schedules
//! at any thread count — is what makes a recorded run a *contract*: a
//! [`RunManifest`] captured once must replay byte-identically on any
//! machine shape. These tests record at one thread count, replay across
//! `{2, 5, 8, 16}`, cross-check lockstep replicas, plant a schedule
//! perturbation to prove lockstep pinpoints the exact first divergent
//! round, and reject corrupted manifest files.
//!
//! [`RunManifest`]: deterministic_galois::core::RunManifest

use deterministic_galois::core::{
    DetOptions, Executor, LockstepEventKind, LockstepOutcome, ManifestError, ManifestRecorder,
    RunManifest, Schedule,
};
use deterministic_galois::graph::gen;
use deterministic_galois::harness::{
    record_run, replay_run, replica_run, run_lockstep, unperturbed, App, InputConfig,
    LockstepReplica, ReplayError, Variant,
};
use deterministic_galois::runtime::fingerprint::Fnv64;

fn record_default(app: App) -> RunManifest {
    record_run(app, 1, None, &InputConfig::default()).expect("recording must succeed")
}

/// Record at threads=1, then replay at oversubscribed thread counts: every
/// replay must reproduce the recorded hash chain and final fingerprint
/// byte-for-byte.
#[test]
fn replay_is_bit_identical_across_thread_counts() {
    for app in [App::Bfs, App::Mis] {
        let manifest = record_default(app);
        assert!(manifest.round_hashes.len() > 1, "{app}: trivial recording");
        for threads in [2, 5, 8, 16] {
            let out = replay_run(&manifest, threads, None)
                .unwrap_or_else(|e| panic!("{app} replay at {threads} threads: {e}"));
            assert_eq!(
                out.fingerprint, manifest.final_fingerprint,
                "{app} at {threads} threads"
            );
            assert_eq!(out.rounds as usize, manifest.round_hashes.len());
        }
    }
}

/// The manifest round-trips through its on-disk form: save, load, replay.
#[test]
fn saved_manifest_replays_after_reload() {
    let dir = std::env::temp_dir().join("galois-replay-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mm.manifest.json");
    let manifest = record_default(App::Mm);
    manifest.save(&path).unwrap();
    let reloaded = RunManifest::load(&path).unwrap();
    assert_eq!(reloaded, manifest);
    let out = replay_run(&reloaded, 5, None).unwrap();
    assert_eq!(out.fingerprint, manifest.final_fingerprint);
    std::fs::remove_file(&path).ok();
}

/// A replay driven through the recorder marks its [`RunReport`] as a
/// replay (the report-provenance accessor this API added).
///
/// [`RunReport`]: deterministic_galois::core::RunReport
#[test]
fn replayed_reports_mark_themselves() {
    let manifest = record_default(App::Bfs);
    let g = gen::uniform_random_parallel(2_000, 5, 42, 1);
    let exec = manifest.exec.to_executor(4);
    let mut rec = ManifestRecorder::replaying(&manifest);
    let (_, report) =
        deterministic_galois::apps::bfs::try_galois_recorded(&g, 0, &exec, &mut rec).unwrap();
    assert!(report.is_replay());
    // A fresh (recording) run is not a replay.
    let (_, fresh) = deterministic_galois::apps::bfs::try_galois(&g, 0, &exec).unwrap();
    assert!(!fresh.is_replay());
}

/// Clean lockstep: replicas at different thread counts, one with a chaos
/// seed, must all reproduce the recording at every round.
#[test]
fn lockstep_replicas_agree_on_clean_runs() {
    let manifest = record_default(App::Mis);
    let replicas = [
        LockstepReplica {
            threads: 2,
            chaos_seed: None,
        },
        LockstepReplica {
            threads: 7,
            chaos_seed: Some(99),
        },
        LockstepReplica {
            threads: 16,
            chaos_seed: Some(5),
        },
    ];
    let report = run_lockstep(&manifest, &replicas, &unperturbed).unwrap();
    assert_eq!(
        report.outcome,
        LockstepOutcome::Agreed,
        "{:?}",
        report.events
    );
    assert!(report.events.is_empty(), "{:?}", report.events);
    assert_eq!(report.survivors, vec![0, 1, 2]);
    assert_eq!(report.rounds as usize, manifest.round_hashes.len());
    assert_eq!(report.final_fingerprint, manifest.final_fingerprint);
}

/// Locality spread 7 deals the task sequence differently, which legally
/// changes the deterministic schedule: applied to the 4-thread replica
/// only, it makes that replica diverge from the recording at a
/// deterministic round.
fn perturb_four_threads(
    _: App,
    _: Variant,
    threads: usize,
    _: Option<u64>,
    exec: Executor,
) -> Executor {
    if threads == 4 {
        exec.schedule(Schedule::Deterministic(DetOptions {
            locality_spread: 7,
            ..Default::default()
        }))
    } else {
        exec
    }
}

fn replicas_at(threads: &[usize]) -> Vec<LockstepReplica> {
    threads
        .iter()
        .map(|&threads| LockstepReplica {
            threads,
            chaos_seed: None,
        })
        .collect()
}

/// Planted perturbation: lockstep must evict the perturbed replica at the
/// exact first round its own chain parts from the recording, blame no
/// clean replica, and report the same verdict on every run. With only two
/// replicas the same divergence is 1 of 2 — not a strict minority — so the
/// session is refused at that same round.
#[test]
fn lockstep_pinpoints_first_divergent_round() {
    let manifest = record_default(App::Bfs);
    // The perturbed replica's own chain, judged directly against the
    // recording: the round lockstep must name.
    let exec = perturb_four_threads(
        App::Bfs,
        Variant::Deterministic,
        4,
        None,
        manifest.exec.to_executor(4).record_rounds(true),
    );
    let mut rec = ManifestRecorder::new();
    replica_run(App::Bfs, &exec, &InputConfig::default(), &mut rec).unwrap();
    let expected = manifest
        .verify_chain(rec.round_hashes())
        .expect_err("perturbed replica must diverge from the recording");

    // Three replicas: the perturbed one (index 1) is a strict minority.
    let replicas = replicas_at(&[2, 4, 3]);
    let first = run_lockstep(&manifest, &replicas, &perturb_four_threads).unwrap();
    assert_eq!(
        first.outcome,
        LockstepOutcome::Diverged,
        "{:?}",
        first.events
    );
    let divergences = first.events_of(LockstepEventKind::Divergence);
    assert_eq!(divergences.len(), 1, "{:?}", first.events);
    assert_eq!(divergences[0].replica, Some(1));
    assert_eq!(divergences[0].round, expected.round);
    assert_eq!(divergences[0].expected, expected.expected);
    assert_eq!(divergences[0].actual, expected.actual);
    // The clean replicas are not blamed: every event is about replica 1,
    // and both clean replicas survive with the recorded result.
    assert!(
        first.events.iter().all(|e| e.replica == Some(1)),
        "{:?}",
        first.events
    );
    assert_eq!(first.survivors, vec![0, 2]);
    assert_eq!(first.rounds as usize, manifest.round_hashes.len());
    assert_eq!(first.final_fingerprint, manifest.final_fingerprint);
    // The pinpointed round is exact: a second run reports the same verdict.
    let second = run_lockstep(&manifest, &replicas, &perturb_four_threads).unwrap();
    assert_eq!(second, first);

    // Two replicas: one divergent replica is half, so the session refuses
    // at the same round instead of evicting.
    let pair = run_lockstep(&manifest, &replicas_at(&[2, 4]), &perturb_four_threads).unwrap();
    assert_eq!(pair.outcome, LockstepOutcome::NoQuorum, "{:?}", pair.events);
    let refusals = pair.events_of(LockstepEventKind::Refusal);
    assert_eq!(refusals.len(), 1, "{:?}", pair.events);
    assert_eq!(refusals[0].round, expected.round);
    assert!(
        refusals[0].detail.contains("1 of 2"),
        "{}",
        refusals[0].detail
    );
    assert!(pair.survivors.is_empty());
}

/// A flipped byte anywhere in the manifest body is caught by the embedded
/// checksum before any field is trusted.
#[test]
fn corrupt_manifest_is_rejected() {
    let manifest = record_default(App::Bfs);
    let text = manifest.to_json();
    // Flip one hex digit inside the round-hash array.
    let at = text.find("round_hashes").unwrap() + 20;
    let mut bytes = text.clone().into_bytes();
    bytes[at] = if bytes[at] == b'a' { b'b' } else { b'a' };
    let corrupt = String::from_utf8(bytes).unwrap();
    match RunManifest::from_json(&corrupt) {
        Err(ManifestError::Checksum { .. }) => {}
        other => panic!("expected checksum rejection, got {other:?}"),
    }
    // Truncation is also rejected.
    assert!(RunManifest::from_json(&text[..text.len() / 2]).is_err());
}

/// A manifest from a future format version is rejected even when its
/// checksum is intact (re-signed after the version edit).
#[test]
fn future_version_is_rejected() {
    let manifest = record_default(App::Bfs);
    let text = manifest.to_json();
    let body = text.replacen("\"version\":1", "\"version\":9", 1);
    // Re-sign: the checksum covers everything before its own field, with
    // the closing brace restored.
    let at = body.find(",\"checksum\":").unwrap();
    let mut h = Fnv64::new();
    h.write_bytes(format!("{}}}", &body[..at]).as_bytes());
    let resigned = format!("{},\"checksum\":\"{:016x}\"}}\n", &body[..at], h.finish());
    match RunManifest::from_json(&resigned) {
        Err(ManifestError::Version(9)) => {}
        other => panic!("expected version rejection, got {other:?}"),
    }
}

/// A manifest whose input key was tampered with (but re-signed) is refused
/// by the replay layer rather than silently replaying the wrong input.
#[test]
fn foreign_input_key_is_refused() {
    let mut manifest = record_default(App::Bfs);
    manifest.input_key = "uniform-n9999-d5-s42".into();
    match replay_run(&manifest, 2, None) {
        Err(ReplayError::Mismatch(msg)) => {
            assert!(msg.contains("input"), "unexpected message: {msg}")
        }
        other => panic!("expected input-key mismatch, got {other:?}"),
    }
}
