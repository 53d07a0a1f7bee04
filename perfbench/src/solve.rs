//! `solve-batch`: every app under g-d and g-n at `nproc` threads and the
//! CLI's default corpus sizes, as library and CLI users run them — each op
//! is `executor_for` + `run_resident` over an input built once in setup
//! (dmr rebuilds its mesh inside `run_resident`, as it must).

use crate::stats::{ms_since, release_free_memory, Failure, Metrics, Phase, Samples, Tally};
use crate::{nproc, Workload};
use galois_harness::apps::{bfs, dmr, dt, mis, mm, pfp};
use galois_harness::{
    executor_for, load_input, run_resident, App, InputConfig, ResidentInput, ResidentRun, Variant,
};
use galois_mesh::check;
use std::time::Instant;

const VARIANTS: [Variant; 2] = [Variant::Deterministic, Variant::Speculative];

/// The `galois` CLI's default input size per app.
fn cli_size(app: App) -> usize {
    match app {
        App::Bfs | App::Mis | App::Mm => 200_000,
        App::Dt => 25_000,
        App::Dmr => 3_000,
        App::Pfp => 8_192,
    }
}

fn input_config(app: App, seed: u64, threads: usize) -> InputConfig {
    InputConfig {
        seed,
        build_threads: threads,
        cache_dir: None,
        size: Some(cli_size(app)),
    }
}

fn short(variant: Variant) -> &'static str {
    match variant {
        Variant::Deterministic => "det",
        _ => "spec",
    }
}

pub struct SolveBatch {
    threads: usize,
    /// One input per app, in `App::ALL` order (mm shares mis's graph).
    inputs: Vec<ResidentInput>,
    /// First g-d fingerprint seen per app: every later g-d op must match.
    det_fingerprints: Vec<Option<u64>>,
    layers: Samples,
}

/// Builds every input once; the build times are the input layer's
/// samples.
fn build_inputs(seed: u64, threads: usize, layers: &mut Samples) -> Vec<ResidentInput> {
    let mut inputs: Vec<ResidentInput> = Vec::new();
    for app in App::ALL {
        if app == App::Mm {
            // mm's input key is mis's: the CLI and the server share it too.
            inputs.push(inputs[1].clone());
            continue;
        }
        let t = Instant::now();
        let (input, _) = load_input(app, &input_config(app, seed, threads));
        if app != App::Dmr {
            // dmr's resident input is only a recipe; its mesh build is
            // timed in the traced phase.
            layers.push(format!("input.{app}.build_ms"), ms_since(t));
        }
        inputs.push(input);
    }
    inputs
}

/// Applies the oracles to one op and, for a traced op, records the
/// executor layer's per-op figures.
fn check_op(
    st: &mut SolveBatch,
    i: usize,
    app: App,
    variant: Variant,
    result: Result<Result<ResidentRun, galois_core::ExecError>, String>,
    traced_ms: Option<f64>,
) -> Result<(), Failure> {
    let run = match result {
        Err(validation) => return Err(Failure::Wrong(format!("{app} {variant}: {validation}"))),
        Ok(Err(fault)) => {
            return Err(Failure::of_fault(
                variant,
                format!("{app} {variant}"),
                &fault,
            ))
        }
        Ok(Ok(run)) => run,
    };
    let out = &run.outcome;
    if variant == Variant::Deterministic {
        let first = *st.det_fingerprints[i].get_or_insert(out.fingerprint);
        if first != out.fingerprint {
            return Err(Failure::Wrong(format!(
                "{app} g-d fingerprint {:016x} != first seen {first:016x}",
                out.fingerprint
            )));
        }
    }
    if let Some(op_ms) = traced_ms {
        st.layers
            .push(format!("{}.{app}.op_ms", short(variant)), op_ms);
        if variant == Variant::Deterministic {
            let (mut inspect, mut commit, mut serial) = (0.0, 0.0, 0.0);
            let (mut attempted, mut committed) = (0u64, 0u64);
            for r in &run.records {
                inspect += r.inspect_ns / 1e6;
                commit += r.commit_ns / 1e6;
                serial += r.serial_ns / 1e6;
                attempted += r.attempted;
                committed += r.committed;
            }
            let l = &mut st.layers;
            l.push(format!("det.{app}.rounds"), out.rounds as f64);
            l.push(
                format!("det.{app}.commit_ratio"),
                committed as f64 / attempted.max(1) as f64,
            );
            l.push(format!("det.{app}.inspect_ms"), inspect);
            l.push(format!("det.{app}.commit_ms"), commit);
            l.push(format!("det.{app}.serial_ms"), serial);
            l.push(format!("det.{app}.busy_ms"), inspect + commit + serial);
            l.push(format!("det.{app}.thread_ms"), st.threads as f64 * op_ms);
        } else {
            let tries = (out.committed + out.aborted).max(1);
            st.layers.push(
                format!("spec.{app}.abort_ratio"),
                out.aborted as f64 / tries as f64,
            );
        }
    }
    Ok(())
}

/// Times the app's own verifier on a direct g-d run of the same input (the
/// one inside `run_resident` cannot be timed from outside). For dmr the
/// mesh rebuild is timed too: it is the input layer's share of each op.
fn time_verifier(st: &mut SolveBatch, i: usize, app: App) {
    let exec = executor_for(app, Variant::Deterministic, st.threads, None);
    let input = &st.inputs[i];
    let verify_ms = match (app, input) {
        (App::Bfs, ResidentInput::Graph(g)) => {
            let (dist, _) = bfs::try_galois(g, 0, &exec).expect("bfs g-d ran above");
            let t = Instant::now();
            bfs::verify(g, 0, &dist).expect("bfs g-d verified above");
            ms_since(t)
        }
        (App::Mis, ResidentInput::Graph(g)) => {
            let (flags, _) = mis::try_galois(g, &exec).expect("mis g-d ran above");
            let t = Instant::now();
            mis::verify(g, &flags).expect("mis g-d verified above");
            ms_since(t)
        }
        (App::Mm, ResidentInput::Graph(g)) => {
            let (mate, _) = mm::try_galois(g, &exec).expect("mm g-d ran above");
            let t = Instant::now();
            mm::verify(g, &mate).expect("mm g-d verified above");
            ms_since(t)
        }
        (App::Dt, ResidentInput::Points { pts, seed }) => {
            let (mesh, _) = dt::try_galois(pts, *seed, &exec).expect("dt g-d ran above");
            let t = Instant::now();
            check::validate(&mesh).expect("dt g-d verified above");
            check::check_delaunay(&mesh).expect("dt g-d verified above");
            ms_since(t)
        }
        (App::Dmr, ResidentInput::MeshSpec { n, seed }) => {
            let t = Instant::now();
            let mesh = dmr::make_input(*n, *seed);
            st.layers.push("input.dmr.build_ms", ms_since(t));
            dmr::try_galois(&mesh, &exec).expect("dmr g-d ran above");
            let t = Instant::now();
            check::validate(&mesh).expect("dmr g-d verified above");
            check::check_delaunay(&mesh).expect("dmr g-d verified above");
            assert_eq!(check::quality(&mesh).bad, 0, "dmr g-d verified above");
            ms_since(t)
        }
        (App::Pfp, ResidentInput::Flow(net)) => {
            let net = net.lock().expect("no pfp run panicked holding the network");
            net.reset();
            let (flow, _) = pfp::try_galois(&net, &exec).expect("pfp g-d ran above");
            let t = Instant::now();
            let checked = net.verify_flow().expect("pfp g-d verified above");
            let ms = ms_since(t);
            assert_eq!(checked, flow, "pfp g-d verified above");
            ms
        }
        _ => unreachable!("inputs are built in App::ALL order"),
    };
    st.layers.push(format!("apps.{app}.verify_ms"), verify_ms);
}

impl Workload for SolveBatch {
    /// One setup builds in about 0.1 s, so several give a steady median.
    const SETUP_REPS: usize = 21;

    fn setup(seed: u64, reps: usize, setup_s: &mut Vec<f64>) -> Self {
        let threads = nproc();
        let mut layers = Samples::default();
        let mut inputs = Vec::new();
        for _ in 0..reps {
            drop(inputs);
            release_free_memory();
            let t = Instant::now();
            inputs = build_inputs(seed, threads, &mut layers);
            setup_s.push(t.elapsed().as_secs_f64());
        }
        SolveBatch {
            threads,
            inputs,
            det_fingerprints: vec![None; App::ALL.len()],
            layers,
        }
    }

    /// Whole cycles of the 12 cells.
    fn phase(&mut self, seconds: f64, traced: bool, tally: &mut Tally) -> Phase {
        let mut out = Phase::default();
        let t0 = Instant::now();
        loop {
            for (i, app) in App::ALL.into_iter().enumerate() {
                for variant in VARIANTS {
                    let exec = executor_for(app, variant, self.threads, None);
                    let t = Instant::now();
                    let result = run_resident(app, &exec, &self.inputs[i], None);
                    let op_ms = ms_since(t);
                    let verdict = check_op(self, i, app, variant, result, traced.then_some(op_ms));
                    tally.op(&verdict);
                    let cell = format!("{app}.{variant}");
                    out.op(
                        cell,
                        variant == Variant::Speculative,
                        verdict.is_ok(),
                        op_ms,
                    );
                    if traced && variant == Variant::Speculative {
                        let failed = if verdict.is_err() { 1.0 } else { 0.0 };
                        self.layers.push(format!("spec.{app}.failed"), failed);
                    } else if traced && verdict.is_ok() {
                        time_verifier(self, i, app);
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

    fn spec_phase(&mut self, _: f64, _: &mut Tally) -> Option<Phase> {
        None
    }

    fn ops_per_s(phase: &Phase) -> f64 {
        phase.median_rate(None)
    }

    fn layer_metrics(&self, m: &mut Metrics, _: &mut Tally) {
        let l = &self.layers;
        for app in App::ALL {
            let d = format!("det.{app}");
            m.set(format!("{d}.op_ms"), l.median(&format!("{d}.op_ms")), "ms");
            m.set(
                format!("{d}.rounds"),
                l.median(&format!("{d}.rounds")),
                "count",
            );
            m.set(
                format!("{d}.commit_ratio"),
                l.median(&format!("{d}.commit_ratio")),
                "ratio",
            );
            for phase in ["inspect", "commit", "serial"] {
                let name = format!("{d}.{phase}_ms");
                m.set(name.clone(), l.median(&name), "ms");
            }
            // Idle thread time of the executor: threads × the op's executor
            // time (the op minus its verifier and, for dmr, its mesh rebuild)
            // less the three timed phases.
            let rebuild = if app == App::Dmr {
                l.median("input.dmr.build_ms")
            } else {
                0.0
            };
            let side = self.threads as f64 * (l.median(&format!("apps.{app}.verify_ms")) + rebuild);
            let idle =
                l.median(&format!("{d}.thread_ms")) - side - l.median(&format!("{d}.busy_ms"));
            m.set(format!("{d}.idle_ms"), idle, "ms");

            let s = format!("spec.{app}");
            m.set(format!("{s}.op_ms"), l.median(&format!("{s}.op_ms")), "ms");
            m.set(
                format!("{s}.abort_ratio"),
                l.median(&format!("{s}.abort_ratio")),
                "ratio",
            );
            let failed = l.get(&format!("{s}.failed"));
            m.set(
                format!("{s}.fail_share"),
                failed.iter().sum::<f64>() / failed.len() as f64,
                "ratio",
            );
            m.set(
                format!("apps.{app}.verify_ms"),
                l.median(&format!("apps.{app}.verify_ms")),
                "ms",
            );
            if app != App::Mm {
                let name = format!("input.{app}.build_ms");
                m.set(name.clone(), l.median(&name), "ms");
            }
        }
    }
}
