//! `lockstep-pair`: 2-replica lockstep sessions over the wire, with the
//! coordinator at its default window and each replica at 1 thread.
//! Sessions alternate two manifests recorded in setup — a round-heavy mm
//! and a work-heavy bfs — so wire and voting cost (which scale with rounds)
//! separate from compute cost (which scales with work). A shorter loop of
//! g-n solves of the same two inputs at `nproc` threads follows — the
//! unreplicated, nondeterministic way to solve them — and gives
//! `spec_ops_per_s`.

use crate::stats::{ms_since, release_free_memory, Failure, Metrics, Phase, Samples, Tally};
use crate::{nproc, Workload};
use galois_core::RunManifest;
use galois_harness::{
    executor_for, load_input, manifest_target, record_run, replay_run, run_resident, App,
    InputConfig, Variant,
};
use galois_serve::lockstep::{run_replica, Coordinator, LockstepConfig, ReplicaOptions};
use std::time::Instant;

const REPLICAS: usize = 2;

/// Share of `--seconds` the g-n loop runs after the sessions.
const SPEC_SHARE: f64 = 0.3;

/// The recorded runs, with their input sizes.
const RECORDINGS: [(App, usize); 2] = [(App::Mm, 50_000), (App::Bfs, 200_000)];

pub struct LockstepPair {
    threads: usize,
    manifests: Vec<RunManifest>,
    /// The bfs output hash the first agreed bfs session reported.
    bfs_output: Option<u64>,
    layers: Samples,
}

/// One session: a coordinator and two replicas, each on its own thread of
/// this process. Verified when it exits 0 with the recorded fingerprint;
/// returns the agreed output hash.
fn session(manifest: &RunManifest) -> Result<u64, Failure> {
    let fault = |e: String| Failure::Fault(format!("{} session: {e}", manifest.app));
    let config = LockstepConfig {
        replicas: REPLICAS,
        threads: vec![1],
        ..LockstepConfig::default()
    };
    let coordinator = Coordinator::bind(manifest.clone(), config, "127.0.0.1:0")
        .map_err(|e| fault(format!("bind: {e}")))?;
    let addr = coordinator.addr().to_string();
    let (verdict, replicas) = std::thread::scope(|s| {
        let c = s.spawn(move || coordinator.run());
        let replicas: Vec<_> = (0..REPLICAS)
            .map(|_| s.spawn(|| run_replica(&addr, ReplicaOptions::default())))
            .collect();
        let replicas: Vec<_> = replicas
            .into_iter()
            .map(|r| r.join().expect("replica thread panicked"))
            .collect();
        (c.join().expect("coordinator thread panicked"), replicas)
    });
    let result = verdict.map_err(fault)?;
    if result.exit_code != 0 {
        return Err(fault(format!("exit {}", result.exit_code)));
    }
    for r in replicas {
        match r {
            Ok(0) => {}
            Ok(code) => return Err(fault(format!("replica exit {code}"))),
            Err(e) => return Err(fault(e)),
        }
    }
    if result.report.final_fingerprint != manifest.final_fingerprint {
        return Err(Failure::Wrong(format!(
            "{} session agreed on {:016x}, recorded {:016x}",
            manifest.app, result.report.final_fingerprint, manifest.final_fingerprint
        )));
    }
    Ok(result.report.output_hash)
}

/// A g-n solve of a recording's input, rebuilt as a replica would.
fn spec_solve(st: &LockstepPair, manifest: &RunManifest) -> Result<(), Failure> {
    let (app, input) = manifest_target(manifest).map_err(|e| Failure::Wrong(e.to_string()))?;
    let (resident, _) = load_input(app, &input);
    let exec = executor_for(app, Variant::Speculative, st.threads, None);
    match run_resident(app, &exec, &resident, None) {
        Err(validation) => Err(Failure::Wrong(format!("{app} g-n: {validation}"))),
        Ok(Err(fault)) => Err(Failure::of_fault(
            Variant::Speculative,
            format!("{app} g-n"),
            &fault,
        )),
        // bfs distances are unique, so they hash as the agreed ones do.
        Ok(Ok(run)) => match st.bfs_output {
            Some(want) if app == App::Bfs && want != run.outcome.output_hash => {
                Err(Failure::Wrong(format!(
                    "{app} g-n output {:016x} != lockstep-agreed {want:016x}",
                    run.outcome.output_hash
                )))
            }
            _ => Ok(()),
        },
    }
}

impl Workload for LockstepPair {
    /// One setup records two runs in about 0.6 s.
    const SETUP_REPS: usize = 9;

    fn setup(seed: u64, reps: usize, setup_s: &mut Vec<f64>) -> Self {
        let threads = nproc();
        let mut layers = Samples::default();
        let mut manifests = Vec::new();
        for _ in 0..reps {
            manifests.clear();
            release_free_memory();
            let t = Instant::now();
            for (app, size) in RECORDINGS {
                let input = InputConfig {
                    seed,
                    build_threads: threads,
                    cache_dir: None,
                    size: Some(size),
                };
                let t = Instant::now();
                let manifest = record_run(app, threads, None, &input)
                    .unwrap_or_else(|e| panic!("lockstep-pair: recording {app}: {e}"));
                layers.push(format!("lockstep.{app}.record_ms"), ms_since(t));
                manifests.push(manifest);
            }
            setup_s.push(t.elapsed().as_secs_f64());
        }
        LockstepPair {
            threads,
            manifests,
            bfs_output: None,
            layers,
        }
    }

    /// Whole cycles of (mm session, bfs session).
    fn phase(&mut self, seconds: f64, traced: bool, tally: &mut Tally) -> Phase {
        let mut out = Phase::default();
        let t0 = Instant::now();
        loop {
            for manifest in &self.manifests {
                let app = &manifest.app;
                let t = Instant::now();
                let verdict = session(manifest);
                let ms = ms_since(t);
                release_free_memory();
                if let (Ok(hash), "bfs") = (&verdict, app.as_str()) {
                    self.bfs_output.get_or_insert(*hash);
                }
                let verdict = verdict.map(|_| ());
                tally.op(&verdict);
                out.op(format!("session.{app}"), false, verdict.is_ok(), ms);
                if traced {
                    self.layers.push(format!("lockstep.{app}.session_ms"), ms);
                    let t = Instant::now();
                    let replayed = replay_run(manifest, 1, None);
                    self.layers
                        .push(format!("lockstep.{app}.replay_ms"), ms_since(t));
                    if let Err(e) = replayed {
                        tally.incorrect.push(format!("local replay of {app}: {e}"));
                    }
                }
            }
            if t0.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        out.wall_s = t0.elapsed().as_secs_f64();
        out
    }

    /// Whole cycles of g-n solves (mm, bfs) for a share of `seconds`.
    fn spec_phase(&mut self, seconds: f64, tally: &mut Tally) -> Option<Phase> {
        let seconds = seconds * SPEC_SHARE;
        let mut out = Phase::default();
        let t0 = Instant::now();
        loop {
            for manifest in &self.manifests {
                let t = Instant::now();
                let verdict = spec_solve(self, manifest);
                tally.op(&verdict);
                out.op(
                    format!("g-n.{}", manifest.app),
                    true,
                    verdict.is_ok(),
                    ms_since(t),
                );
            }
            if t0.elapsed().as_secs_f64() >= seconds {
                return Some(out);
            }
        }
    }

    fn ops_per_s(phase: &Phase) -> f64 {
        phase.median_rate(None)
    }

    fn layer_metrics(&self, m: &mut Metrics, _: &mut Tally) {
        for manifest in &self.manifests {
            let l = format!("lockstep.{}", manifest.app);
            let session = self.layers.median(&format!("{l}.session_ms"));
            let replay = self.layers.median(&format!("{l}.replay_ms"));
            m.set(format!("{l}.session_ms"), session, "ms");
            m.set(format!("{l}.replay_ms"), replay, "ms");
            m.set(format!("{l}.overhead_ms"), session - replay, "ms");
            m.set(
                format!("{l}.rounds"),
                manifest.round_hashes.len() as f64,
                "count",
            );
            let record = format!("{l}.record_ms");
            m.set(record.clone(), self.layers.median(&record), "ms");
        }
    }
}
