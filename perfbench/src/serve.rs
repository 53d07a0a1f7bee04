//! `serve-mixed`: a closed loop of `nproc` keep-alive clients against an
//! in-process `galois-serve` with `nproc` workers, every request at
//! thread budget 1, rotating over the request kinds below at the service's
//! default input sizes. Every request of the mix runs the deterministic
//! scheduler; a shorter closed loop of the same `/run` requests under g-n
//! follows it and gives `spec_ops_per_s`.
//!
//! The warm-up client is dropped before timing starts. A kept-open warm-up
//! connection pins one server worker for the rest of the run (a worker
//! serves one connection to completion), so one timed client would queue
//! behind the other: that is how `serve_load --clients 2` came to report
//! 9.8 req/s with a 4.9 s max on a 2-core host.

use crate::stats::{ms_since, Failure, Metrics, Phase, Samples, Tally};
use crate::{nproc, Workload};
use galois_core::manifest::ManifestRecorder;
use galois_core::RunManifest;
use galois_harness::{
    executor_for, input_key, replay_run, run_resident, App, InputConfig, InputStore, Variant,
};
use galois_serve::client::{Client, Response};
use galois_serve::json::{parse_flat_object, JsonValue};
use galois_serve::{ServeConfig, Server, ServerHandle};
use std::collections::HashMap;
use std::time::Instant;

/// In-process twins run per kind in a traced phase.
const INPROC_REPS: usize = 10;

/// Share of `--seconds` the g-n loop runs after the mix.
const SPEC_SHARE: f64 = 0.2;

/// One request kind of the rotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `POST /run` of one app under g-d.
    Run(App),
    /// `POST /run` of mm asking for `round_log` and `manifest`.
    RunLogged,
    /// `POST /replay?threads=1` of the manifest captured in setup.
    Replay,
    /// `POST /run` of one app under g-n: determinism is chosen per request.
    RunSpec(App),
}

/// The timed mix.
const KINDS: [Kind; 8] = [
    Kind::Run(App::Bfs),
    Kind::Run(App::Mis),
    Kind::Run(App::Mm),
    Kind::Run(App::Dt),
    Kind::Run(App::Dmr),
    Kind::Run(App::Pfp),
    Kind::RunLogged,
    Kind::Replay,
];

const SPEC_KINDS: [Kind; 6] = [
    Kind::RunSpec(App::Bfs),
    Kind::RunSpec(App::Mis),
    Kind::RunSpec(App::Mm),
    Kind::RunSpec(App::Dt),
    Kind::RunSpec(App::Dmr),
    Kind::RunSpec(App::Pfp),
];

impl Kind {
    fn name(self) -> String {
        match self {
            Kind::Run(app) => format!("run.{app}"),
            Kind::RunLogged => "run_logged.mm".into(),
            Kind::Replay => "replay.mm".into(),
            Kind::RunSpec(app) => format!("run_spec.{app}"),
        }
    }

    fn target(self) -> &'static str {
        match self {
            Kind::Replay => "/replay?threads=1",
            _ => "/run",
        }
    }

    fn body(self, seed: u64, manifest: &str) -> String {
        match self {
            Kind::Run(app) => format!("{{\"app\":\"{app}\",\"threads\":1,\"seed\":{seed}}}"),
            Kind::RunLogged => format!(
                "{{\"app\":\"mm\",\"threads\":1,\"seed\":{seed},\"round_log\":true,\"manifest\":true}}"
            ),
            Kind::Replay => manifest.to_string(),
            Kind::RunSpec(app) => {
                format!("{{\"app\":\"{app}\",\"variant\":\"g-n\",\"threads\":1,\"seed\":{seed}}}")
            }
        }
    }
}

/// Input seeds per run: every kind cycles over this many inputs derived
/// from `--seed`, so a run's figures average over inputs (dmr's refinement
/// work alone varies by ±15% from one input to the next at this size).
const INPUTS: u64 = 8;

pub struct ServeMixed {
    server: ServerHandle,
    clients: usize,
    /// The input seeds, from `--seed`.
    seeds: Vec<u64>,
    /// The mm manifest captured per input.
    manifests: Vec<RunManifest>,
    /// Request body per input, per kind of the mix.
    bodies: Vec<Vec<String>>,
    /// Request body per input, per g-n kind.
    spec_bodies: Vec<Vec<String>>,
    /// First response body seen per (input, kind of the mix): the oracle
    /// every later response must match byte for byte.
    reference: HashMap<(usize, usize), String>,
    layers: Samples,
}

/// The string value of `"field":"…"` in a response body.
fn field<'a>(body: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"{name}\":\"");
    let start = body.find(&key)? + key.len();
    body[start..].split('"').next()
}

/// Warms one input: makes it resident (run.mis warms mm's entry too) and
/// captures its mm manifest with a `run_logged.mm` request. Returns the
/// responses by kind index, and the manifest.
fn warm_input(warm: &mut Client, seed: u64) -> Result<(Vec<(usize, String)>, RunManifest), String> {
    let mut bodies = Vec::new();
    let mut manifest = None;
    for (k, kind) in KINDS.iter().enumerate() {
        if !matches!(
            kind,
            Kind::Run(App::Bfs | App::Mis | App::Dt | App::Pfp) | Kind::RunLogged
        ) {
            continue;
        }
        let resp = warm.post(kind.target(), &kind.body(seed, ""))?;
        if resp.status != 200 {
            return Err(format!(
                "warm {}: HTTP {}: {}",
                kind.name(),
                resp.status,
                resp.body
            ));
        }
        if *kind == Kind::RunLogged {
            // The manifest is the body's last field.
            let at = resp.body.find("\"manifest\":").ok_or("no manifest")? + 11;
            let json = &resp.body[at..resp.body.len() - 1];
            manifest = Some(RunManifest::from_json(json).map_err(|e| format!("manifest: {e}"))?);
        }
        bodies.push((k, resp.body));
    }
    Ok((bodies, manifest.expect("KINDS holds run_logged.mm")))
}

/// Starts a server and warms every input over `workers` concurrent
/// warm-up connections, all closed before it returns (see the module
/// docs).
fn start(seed: u64, workers: usize) -> Result<ServeMixed, String> {
    let server = Server::start(ServeConfig {
        workers,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let seeds: Vec<u64> = (0..INPUTS)
        .map(|j| seed.wrapping_mul(INPUTS).wrapping_add(j))
        .collect();
    let addr = server.addr().to_string();
    let warmed: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (addr, seeds) = (addr.clone(), &seeds);
                s.spawn(move || {
                    let mut warm = Client::new(addr);
                    (w..seeds.len())
                        .step_by(workers)
                        .map(|j| warm_input(&mut warm, seeds[j]).map(|r| (j, r)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("warm-up thread panicked"))
            .collect()
    });
    let mut reference = HashMap::new();
    let mut manifests: Vec<Option<RunManifest>> = vec![None; seeds.len()];
    for warmed in warmed {
        let (j, (bodies, manifest)) = warmed?;
        reference.extend(bodies.into_iter().map(|(k, body)| ((j, k), body)));
        manifests[j] = Some(manifest);
    }
    let manifests: Vec<RunManifest> = manifests
        .into_iter()
        .map(|m| m.expect("every input warmed"))
        .collect();
    let bodies = seeds
        .iter()
        .zip(&manifests)
        .map(|(&s, m)| {
            KINDS
                .iter()
                .map(|k| k.body(s, m.to_json().trim_end()))
                .collect()
        })
        .collect();
    let spec_bodies = seeds
        .iter()
        .map(|&s| SPEC_KINDS.iter().map(|k| k.body(s, "")).collect())
        .collect();
    Ok(ServeMixed {
        server,
        clients: workers,
        seeds,
        manifests,
        bodies,
        spec_bodies,
        reference,
        layers: Samples::default(),
    })
}

/// Applies the oracles to one response to input `j`; returns its server
/// time in ms.
fn check(
    st: &mut ServeMixed,
    kind: Kind,
    (j, k): (usize, usize),
    resp: Result<Response, String>,
) -> Result<f64, Failure> {
    let resp = resp.map_err(|e| Failure::Fault(format!("{}: {e}", kind.name())))?;
    if !(200..300).contains(&resp.status) {
        return Err(Failure::Fault(format!(
            "{}: HTTP {}: {}",
            kind.name(),
            resp.status,
            resp.body
        )));
    }
    let same = match kind {
        // A g-n output is validated by the server; bfs distances are
        // unique, so they must also hash as the g-d run's do.
        Kind::RunSpec(app) => {
            field(&resp.body, "status") == Some("ok")
                && (app != App::Bfs
                    || field(&resp.body, "output_hash")
                        == st
                            .reference
                            .get(&(j, 0))
                            .and_then(|b| field(b, "output_hash")))
        }
        _ => {
            *st.reference
                .entry((j, k))
                .or_insert_with(|| resp.body.clone())
                == resp.body
        }
    };
    if !same {
        return Err(Failure::Wrong(format!(
            "{} (input seed {}): body differs from the oracle: {}",
            kind.name(),
            st.seeds[j],
            resp.body
        )));
    }
    let micros: f64 = resp
        .header("X-Galois-Micros")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| Failure::Wrong(format!("{}: no X-Galois-Micros", kind.name())))?;
    Ok(micros / 1e3)
}

/// One request as a client saw it: (input, kind) indexes, latency, response.
type Sent = ((usize, usize), f64, Result<Response, String>);

/// SplitMix64: the clients' seeded source of rotation orders.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The closed loop over `kinds`: every client sends its next request when
/// the last one is answered. Clients send whole rotations (every kind once,
/// so the mix is exact), each on the next input and in a fresh order drawn
/// from the seed: two clients walking one fixed order would drift in and
/// out of running the same heavy kind at once, and a run's figures would
/// depend on where the drift happened to sit.
fn closed_loop(st: &ServeMixed, kinds: &[Kind], bodies: &[Vec<String>], seconds: f64) -> Vec<Sent> {
    let addr = st.server.addr().to_string();
    let (clients, seed) = (st.clients, st.seeds[0]);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let addr = addr.clone();
                s.spawn(move || {
                    let mut client = Client::new(addr);
                    let mut rng = seed ^ (c as u64 + 1).wrapping_mul(0xd1b5_4a32_d192_ed03);
                    let mut order: Vec<usize> = (0..kinds.len()).collect();
                    let mut out = Vec::new();
                    for rotation in 0.. {
                        let j = (rotation * clients + c) % bodies.len();
                        for i in (1..order.len()).rev() {
                            order.swap(i, (splitmix(&mut rng) % (i as u64 + 1)) as usize);
                        }
                        for &k in &order {
                            let t = Instant::now();
                            let resp = client.post(kinds[k].target(), &bodies[j][k]);
                            out.push(((j, k), ms_since(t), resp));
                        }
                        if t0.elapsed().as_secs_f64() >= seconds {
                            break;
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Runs every kind on the first input in-process, through the same calls
/// the server's handlers make, with no HTTP: `InputStore::get` +
/// `run_resident`, or `replay_run`.
fn inproc(st: &mut ServeMixed) {
    let store = InputStore::new(None);
    let input = InputConfig::from_seed(st.seeds[0]);
    for kind in KINDS {
        // One untimed call warms the store, as the server's warm pass did.
        for rep in 0..=INPROC_REPS {
            let t = Instant::now();
            let ok = match kind {
                Kind::Replay => replay_run(&st.manifests[0], 1, None).is_ok(),
                Kind::Run(app) => run_once(&store, app, Variant::Deterministic, &input, false),
                Kind::RunLogged => run_once(&store, App::Mm, Variant::Deterministic, &input, true),
                Kind::RunSpec(_) => unreachable!("the mix holds no g-n kind"),
            };
            let ms = ms_since(t);
            assert!(ok, "in-process {} failed where HTTP succeeded", kind.name());
            if rep > 0 {
                st.layers
                    .push(format!("serve.{}.inproc_ms", kind.name()), ms);
            }
        }
    }
}

fn run_once(
    store: &InputStore,
    app: App,
    variant: Variant,
    input: &InputConfig,
    log: bool,
) -> bool {
    let (resident, _) = store.get(app, input);
    let mut exec = executor_for(app, variant, 1, None);
    if log {
        exec = exec.record_rounds(true);
    }
    let mut rec = log.then(ManifestRecorder::new);
    match run_resident(app, &exec, &resident, rec.as_mut()) {
        Ok(Ok(run)) => {
            // Build the manifest, as the handler does for its response.
            if let Some(rec) = rec {
                let key = input_key(app, input);
                rec.finish(app.name(), &key, input.seed, 0, run.outcome.output_hash);
            }
            true
        }
        _ => false,
    }
}

/// The store's residency counters, read from `GET /stats`.
fn store_counters(st: &ServeMixed) -> Result<[(&'static str, f64); 3], String> {
    let resp = Client::new(st.server.addr().to_string()).get("/stats")?;
    let fields = parse_flat_object(&resp.body)?;
    let get = |name: &str| match fields.iter().find(|(k, _)| k == name) {
        Some((_, JsonValue::UInt(v))) => Ok(*v as f64),
        _ => Err(format!("/stats has no {name}")),
    };
    Ok([
        ("serve.cold_loads", get("cold_loads")?),
        ("serve.warm_hits", get("warm_hits")?),
        ("serve.rebuilds", get("rebuilds")?),
    ])
}

impl Workload for ServeMixed {
    /// One setup takes about 1.5 s, most of it the warm pass.
    const SETUP_REPS: usize = 3;

    fn setup(seed: u64, reps: usize, setup_s: &mut Vec<f64>) -> Self {
        let mut state = None;
        for _ in 0..reps {
            drop(state.take());
            let t = Instant::now();
            state = Some(start(seed, nproc()).unwrap_or_else(|e| panic!("serve-mixed setup: {e}")));
            setup_s.push(t.elapsed().as_secs_f64());
        }
        state.expect("at least one setup")
    }

    /// A closed loop over the mix; a traced one also times the in-process
    /// twins of every kind.
    fn phase(&mut self, seconds: f64, traced: bool, tally: &mut Tally) -> Phase {
        let t0 = Instant::now();
        let sent = closed_loop(self, &KINDS, &self.bodies, seconds);
        let mut out = Phase::default();
        out.wall_s = t0.elapsed().as_secs_f64();
        for ((j, k), lat_ms, resp) in sent {
            let verdict = check(self, KINDS[k], (j, k), resp);
            tally.op(&verdict.as_ref().map(|_| ()).map_err(Clone::clone));
            out.op(KINDS[k].name(), false, verdict.is_ok(), lat_ms);
            if let (true, Ok(server_ms)) = (traced, verdict) {
                let name = KINDS[k].name();
                self.layers.push(format!("serve.{name}.p50_ms"), lat_ms);
                self.layers
                    .push(format!("serve.{name}.server_ms"), server_ms);
                self.layers
                    .push(format!("serve.{name}.transport_ms"), lat_ms - server_ms);
            }
        }
        if traced {
            inproc(self);
            out.wall_s = t0.elapsed().as_secs_f64();
        }
        out
    }

    /// A closed loop over the g-n kinds, for a share of `seconds`.
    fn spec_phase(&mut self, seconds: f64, tally: &mut Tally) -> Option<Phase> {
        let mut out = Phase::default();
        let sent = closed_loop(self, &SPEC_KINDS, &self.spec_bodies, seconds * SPEC_SHARE);
        for ((j, k), lat_ms, resp) in sent {
            let verdict = check(self, SPEC_KINDS[k], (j, k), resp).map(|_| ());
            tally.op(&verdict);
            out.op(SPEC_KINDS[k].name(), true, verdict.is_ok(), lat_ms);
        }
        Some(out)
    }

    fn ops_per_s(phase: &Phase) -> f64 {
        // Closed-loop throughput: the clients' requests overlap.
        phase.throughput()
    }

    fn layer_metrics(&self, m: &mut Metrics, tally: &mut Tally) {
        for kind in KINDS {
            let k = format!("serve.{}", kind.name());
            for metric in ["p50_ms", "server_ms", "transport_ms", "inproc_ms"] {
                let name = format!("{k}.{metric}");
                m.set(name.clone(), self.layers.median(&name), "ms");
            }
        }
        match store_counters(self) {
            Ok(counters) => {
                for (name, v) in counters {
                    m.set(name, v, "count");
                }
            }
            Err(e) => tally.incorrect.push(format!("serve-mixed /stats: {e}")),
        }
    }
}
