//! Load generator for `galois-serve`: drives a server with keep-alive
//! clients over a deterministic request rotation and emits
//! `BENCH_serve.json` (throughput, latency percentiles, cache tallies).
//!
//! By default it spawns an in-process server sized to the client count and
//! tears it down afterwards; `--addr` targets an already-running server
//! instead. Exits nonzero if any request fails, so CI can use it as a
//! smoke test.
//!
//! ```text
//! serve_load [--clients N] [--requests N] [--apps bfs,mis,...]
//!            [--threads 1,2,4] [--addr HOST:PORT] [--cache-dir DIR]
//!            [--out BENCH_serve.json]
//! ```

use galois_serve::client::Client;
use galois_serve::{ServeConfig, Server};
use std::collections::BTreeMap;
use std::time::Instant;

struct Args {
    clients: usize,
    requests: usize,
    apps: Vec<String>,
    threads: Vec<usize>,
    addr: Option<String>,
    cache_dir: Option<String>,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        clients: 8,
        requests: 64,
        apps: vec!["bfs".into(), "mis".into(), "mm".into(), "pfp".into()],
        threads: vec![1, 2, 4],
        addr: None,
        cache_dir: None,
        out: Some("BENCH_serve.json".into()),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--clients" => {
                args.clients = value("--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?
            }
            "--requests" => {
                args.requests = value("--requests")?
                    .parse()
                    .map_err(|e| format!("--requests: {e}"))?
            }
            "--apps" => args.apps = value("--apps")?.split(',').map(str::to_string).collect(),
            "--threads" => {
                args.threads = value("--threads")?
                    .split(',')
                    .map(|t| t.parse().map_err(|e| format!("--threads: {e}")))
                    .collect::<Result<_, _>>()?
            }
            "--addr" => args.addr = Some(value("--addr")?),
            "--cache-dir" => args.cache_dir = Some(value("--cache-dir")?),
            "--out" => args.out = Some(value("--out")?),
            "--no-out" => args.out = None,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.clients == 0 || args.requests == 0 || args.apps.is_empty() || args.threads.is_empty() {
        return Err("clients, requests, apps and threads must all be nonempty".into());
    }
    Ok(args)
}

fn percentile(sorted: &[u128], p: f64) -> u128 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("serve_load: {e}");
            std::process::exit(2);
        }
    };

    // An in-process server unless --addr points elsewhere. Workers are
    // sized to the client count: each worker serves one connection to
    // completion, so fewer workers than clients measures queueing, not
    // the executors.
    let mut spawned = None;
    let addr = match &args.addr {
        Some(a) => a.clone(),
        None => {
            let handle = Server::start(ServeConfig {
                workers: args.clients,
                cache_dir: args.cache_dir.clone().map(Into::into),
                ..ServeConfig::default()
            })
            .unwrap_or_else(|e| {
                eprintln!("serve_load: failed to start server: {e}");
                std::process::exit(2);
            });
            let addr = handle.addr().to_string();
            spawned = Some(handle);
            addr
        }
    };

    // Warm pass: materialize every (app, default-input) once so the timed
    // pass measures the resident steady state.
    let mut warm = Client::new(addr.clone());
    for app in &args.apps {
        let body = format!("{{\"app\":\"{app}\",\"threads\":1}}");
        match warm.post("/run", &body) {
            Ok(resp) if resp.status == 200 => {}
            Ok(resp) => {
                eprintln!(
                    "serve_load: warmup {app} -> HTTP {}: {}",
                    resp.status, resp.body
                );
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("serve_load: warmup {app}: {e}");
                std::process::exit(1);
            }
        }
    }
    // Close the warm-up connection before timing: a keep-alive connection
    // pins a server worker, which would leave one timed client queued.
    drop(warm);

    // Timed pass: each client walks the same deterministic rotation,
    // offset by its index, over keep-alive connections.
    let t0 = Instant::now();
    let results: Vec<Result<Vec<(String, u128)>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..args.clients)
            .map(|c| {
                let addr = addr.clone();
                let apps = &args.apps;
                let threads = &args.threads;
                let requests = args.requests;
                s.spawn(move || {
                    let mut client = Client::new(addr);
                    let mut timings = Vec::with_capacity(requests);
                    for i in 0..requests {
                        let pick = c + i * 7;
                        let app = &apps[pick % apps.len()];
                        let budget = threads[(pick / apps.len()) % threads.len()];
                        let body = format!("{{\"app\":\"{app}\",\"threads\":{budget}}}");
                        let rt0 = Instant::now();
                        let resp = client
                            .post("/run", &body)
                            .map_err(|e| format!("client {c} request {i} ({app}): {e}"))?;
                        let micros = rt0.elapsed().as_micros();
                        if resp.status != 200 {
                            return Err(format!(
                                "client {c} request {i} ({app}) -> HTTP {}: {}",
                                resp.status, resp.body
                            ));
                        }
                        timings.push((app.clone(), micros));
                    }
                    Ok(timings)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = t0.elapsed();

    let mut all: Vec<(String, u128)> = Vec::new();
    for r in results {
        match r {
            Ok(t) => all.extend(t),
            Err(e) => {
                eprintln!("serve_load: {e}");
                std::process::exit(1);
            }
        }
    }

    let stats_body = Client::new(addr.clone())
        .get("/stats")
        .map(|r| r.body)
        .unwrap_or_else(|e| {
            eprintln!("serve_load: stats: {e}");
            std::process::exit(1);
        });

    let total = all.len();
    let secs = elapsed.as_secs_f64();
    let rps = total as f64 / secs.max(1e-9);
    let mut latencies: Vec<u128> = all.iter().map(|(_, us)| *us).collect();
    latencies.sort_unstable();
    let (p50, p90, p99) = (
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.90),
        percentile(&latencies, 0.99),
    );
    let max = latencies.last().copied().unwrap_or(0);

    let mut per_app: BTreeMap<&str, Vec<u128>> = BTreeMap::new();
    for (app, us) in &all {
        per_app.entry(app.as_str()).or_default().push(*us);
    }
    let app_fields: Vec<String> = per_app
        .iter_mut()
        .map(|(app, lats)| {
            lats.sort_unstable();
            format!(
                "\"{app}\":{{\"requests\":{},\"p50_micros\":{},\"p99_micros\":{}}}",
                lats.len(),
                percentile(lats, 0.50),
                percentile(lats, 0.99)
            )
        })
        .collect();

    let report = format!(
        "{{\"bench\":\"serve\",\"clients\":{},\"requests_per_client\":{},\"total_requests\":{},\
         \"elapsed_secs\":{:.3},\"requests_per_sec\":{:.1},\
         \"p50_micros\":{p50},\"p90_micros\":{p90},\"p99_micros\":{p99},\"max_micros\":{max},\
         \"per_app\":{{{}}},\"server_stats\":{}}}",
        args.clients,
        args.requests,
        total,
        secs,
        rps,
        app_fields.join(","),
        stats_body,
    );

    println!("{report}");
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, format!("{report}\n")) {
            eprintln!("serve_load: write {path}: {e}");
            std::process::exit(1);
        }
    }

    if let Some(mut handle) = spawned.take() {
        handle.shutdown();
    }
}
