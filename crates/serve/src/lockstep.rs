//! Distributed lockstep replication: N replica *processes* re-execute one
//! recorded deterministic run, streaming per-round prefix hashes to a
//! coordinator that cross-checks them against the recorded reference
//! chain within a bounded window.
//!
//! This is the wire-level payoff of deterministic execution (Aviram &
//! Ford): because a run is a pure function of `(program, input, executor
//! config)`, replica fault detection collapses to hash comparison — no
//! state transfer, no output shipping, 16 bytes per barrier. The
//! [`Coordinator`] drives the session:
//!
//! 1. **Join**: each replica connects, sends a versioned `HELLO`, and
//!    receives a `JOB` frame carrying the reference [`RunManifest`] (input
//!    key + `ExecConfig`) and its thread budget. Budgets may differ per
//!    replica — portability *is* the redundancy claim.
//! 2. **Stream**: replicas re-execute and send one `ROUND` frame per
//!    barrier. A replica may run at most [`LockstepConfig::window`] rounds
//!    ahead of the settled frontier before its reader blocks — coordinator
//!    memory is bounded by `window × replicas` hashes, never by run length.
//! 3. **Vote**: the coordinator feeds every frame into the core
//!    [`Verdict`] machine, which judges the streams against the recorded
//!    chain (the same machine behind the in-process
//!    `galois_harness::run_lockstep`). A *strict minority* contradicting
//!    the recording is evicted; half or more is a refusal
//!    ([`EXIT_NO_QUORUM`]) rather than a wrong majority.
//! 4. **Degrade**: replica death — socket drop, kill, silence past the
//!    timeout, a `FAULT` frame — is a structured event; the run continues
//!    while at least a quorum (majority of the original N) survives.
//! 5. **Settle**: the final fingerprints of all survivors must agree with
//!    the manifest; only then is the result (and the emitted manifest)
//!    released.
//!
//! The whole session is summarized in a versioned, checksummed
//! [`LockstepReport`].

use crate::wire::{self, Frame, WireError, WIRE_VERSION};
use galois_core::lockstep::Verdict;
use galois_core::manifest::{LockstepEventKind, LockstepReport, ManifestRecorder};
pub use galois_core::manifest::{EXIT_DIVERGENCE, EXIT_NO_QUORUM};
use galois_core::RunManifest;
use galois_harness::{manifest_target, replica_run};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Exit code a replica uses after being evicted by its coordinator.
pub const EXIT_REPLICA_EVICTED: i32 = 3;

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct LockstepConfig {
    /// Replicas that must join before the run starts.
    pub replicas: usize,
    /// Round-count comparison window: how far any replica may run ahead of
    /// the slowest live voter before its stream is back-pressured.
    pub window: usize,
    /// Per-replica thread budgets, cycled over replica ids; empty = every
    /// replica runs at the manifest's recorded budget.
    pub threads: Vec<usize>,
    /// Idle budget per replica: silence longer than this is a timeout
    /// death.
    pub timeout: Duration,
    /// How long to wait for all `replicas` to join.
    pub join_timeout: Duration,
}

impl Default for LockstepConfig {
    fn default() -> Self {
        LockstepConfig {
            replicas: 3,
            window: 64,
            threads: Vec::new(),
            timeout: Duration::from_secs(60),
            join_timeout: Duration::from_secs(60),
        }
    }
}

/// What a finished lockstep session reduces to.
#[derive(Debug, Clone)]
pub struct LockstepRunResult {
    /// The structured session account.
    pub report: LockstepReport,
    /// `0` clean, [`EXIT_DIVERGENCE`], or [`EXIT_NO_QUORUM`].
    pub exit_code: i32,
}

struct Board {
    verdict: Verdict,
    /// Total `ROUND` frames accepted per replica (seq contiguity check).
    arrived: Vec<u64>,
    /// High-water mark of any replica's unsettled hash queue.
    max_buffered: u64,
}

struct Shared {
    board: Mutex<Board>,
    turn: Condvar,
    window: usize,
}

/// A bound coordinator, ready to accept replica joins.
pub struct Coordinator {
    listener: TcpListener,
    addr: SocketAddr,
    manifest: RunManifest,
    config: LockstepConfig,
}

impl Coordinator {
    /// Binds the coordinator's listening socket (use port 0 for an
    /// ephemeral port, then read [`addr`](Self::addr)).
    pub fn bind(
        manifest: RunManifest,
        config: LockstepConfig,
        addr: &str,
    ) -> std::io::Result<Coordinator> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Coordinator {
            listener,
            addr,
            manifest,
            config,
        })
    }

    /// The bound address replicas should `--join`.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Runs the session to completion: join, stream, vote, settle.
    /// `Err` is an orchestration failure (bind/join problems), not a
    /// replication verdict — verdicts come back in the result's report.
    pub fn run(self) -> Result<LockstepRunResult, String> {
        let n = self.config.replicas;
        if n == 0 {
            return Err("lockstep needs at least one replica".into());
        }
        if self.config.window == 0 {
            return Err("lockstep needs a window of at least one round".into());
        }
        let manifest_json = self.manifest.to_json();

        // ---- Join phase -------------------------------------------------
        self.listener
            .set_nonblocking(true)
            .map_err(|e| format!("listener nonblocking: {e}"))?;
        let mut streams: Vec<TcpStream> = Vec::with_capacity(n);
        let deadline = Instant::now() + self.config.join_timeout;
        while streams.len() < n {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if let Some(stream) = self.admit(stream, streams.len() as u32, &manifest_json) {
                        streams.push(stream);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() > deadline {
                        return Err(format!(
                            "only {} of {n} replicas joined within {:?}",
                            streams.len(),
                            self.config.join_timeout
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(format!("accept: {e}")),
            }
        }

        // ---- Stream phase: one reader thread per replica ----------------
        let shared = Arc::new(Shared {
            board: Mutex::new(Board {
                verdict: Verdict::new(&self.manifest, n),
                arrived: vec![0; n],
                max_buffered: 0,
            }),
            turn: Condvar::new(),
            window: self.config.window,
        });
        let timeout = self.config.timeout;
        let mut readers = Vec::with_capacity(n);
        for (i, stream) in streams.iter().enumerate() {
            let mut stream = stream
                .try_clone()
                .map_err(|e| format!("clone replica {i} stream: {e}"))?;
            let shared = Arc::clone(&shared);
            readers.push(std::thread::spawn(move || {
                reader_loop(&mut stream, i, &shared, timeout)
            }));
        }

        // ---- Vote/settle phase: the verdict machine decides; this loop
        // waits for input and carries out its evictions.
        let mut board = shared.board.lock().unwrap();
        loop {
            let outcome = board.verdict.advance();
            for (i, round) in board.verdict.take_evictions() {
                send_eviction(&streams[i], round);
            }
            shared.turn.notify_all();
            if outcome.is_some() {
                break;
            }
            board = shared.turn.wait(board).unwrap();
        }
        let report = board
            .verdict
            .report(shared.window as u64, board.max_buffered);
        drop(board);

        // Courtesy frames, then hang up: survivors get an ACK, everyone
        // else is already evicted/dead. Dropping the streams unblocks any
        // replica still mid-stream.
        for &i in &report.survivors {
            if let Ok(mut s) = streams[i as usize].try_clone() {
                let _ = wire::write_frame(&mut s, &Frame::Ack);
            }
        }
        for stream in &streams {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        for reader in readers {
            let _ = reader.join();
        }
        let exit_code = report.outcome.exit_code();
        Ok(LockstepRunResult { report, exit_code })
    }

    /// Handshakes one joining connection; `None` = rejected (does not
    /// consume a replica slot).
    fn admit(&self, mut stream: TcpStream, id: u32, manifest_json: &str) -> Option<TcpStream> {
        stream
            .set_read_timeout(Some(crate::http::READ_TIMEOUT))
            .ok()?;
        match wire::read_frame(&mut stream, self.config.join_timeout) {
            Ok(Frame::Hello { version }) if version == WIRE_VERSION => {
                let job = Frame::Job {
                    replica: id,
                    threads: self
                        .config
                        .threads
                        .get(id as usize % self.config.threads.len().max(1))
                        .copied()
                        .unwrap_or(0) as u32,
                    manifest: manifest_json.to_string(),
                };
                wire::write_frame(&mut stream, &job).ok()?;
                Some(stream)
            }
            Ok(Frame::Hello { version }) => {
                let _ = wire::write_frame(
                    &mut stream,
                    &Frame::Reject {
                        reason: format!("wire version {version} != coordinator's {WIRE_VERSION}"),
                    },
                );
                None
            }
            _ => None,
        }
    }
}

/// One replica's reader: validates frame order, back-pressures at the
/// window bound, and feeds every frame — or the connection's loss — to
/// the verdict machine.
fn reader_loop(stream: &mut TcpStream, id: usize, shared: &Shared, timeout: Duration) {
    loop {
        let frame = wire::read_frame(stream, timeout);
        let mut board = shared.board.lock().unwrap();
        if !board.verdict.accepts(id) {
            // Evicted, or the session settled, while we were blocked
            // reading — nothing left to account for.
            return;
        }
        match frame {
            Ok(Frame::Round { seq, hash }) if seq == board.arrived[id] => {
                // Window bound: never buffer more than `window` unsettled
                // hashes for one replica.
                while board.verdict.buffered(id) >= shared.window && board.verdict.accepts(id) {
                    board = shared.turn.wait(board).unwrap();
                }
                if !board.verdict.accepts(id) {
                    return;
                }
                board.arrived[id] += 1;
                board.verdict.round(id, hash);
                board.max_buffered = board.max_buffered.max(board.verdict.buffered(id) as u64);
                shared.turn.notify_all();
                continue;
            }
            Ok(Frame::Round { seq, .. }) => {
                let expected = board.arrived[id];
                board.verdict.die(
                    id,
                    LockstepEventKind::Death,
                    format_args!("sent round {seq}, expected {expected}"),
                );
            }
            Ok(Frame::Done {
                rounds,
                output_hash,
                fingerprint,
            }) => board.verdict.done(id, rounds, output_hash, fingerprint),
            Ok(Frame::Fault { exit_code, message }) => board.verdict.fault(id, exit_code, &message),
            Ok(other) => board.verdict.die(
                id,
                LockstepEventKind::Death,
                format_args!("sent unexpected {other:?}"),
            ),
            Err(WireError::Timeout) => board.verdict.die(
                id,
                LockstepEventKind::Timeout,
                format_args!("silent past {timeout:?}"),
            ),
            Err(e) => board.verdict.die(
                id,
                LockstepEventKind::Death,
                format_args!("connection lost: {e}"),
            ),
        }
        shared.turn.notify_all();
        return;
    }
}

/// Tells an evicted replica the round it diverged at, then hangs up.
fn send_eviction(stream: &TcpStream, round: u64) {
    if let Ok(mut s) = stream.try_clone() {
        let _ = wire::write_frame(
            &mut s,
            &Frame::Evict {
                round,
                reason: "diverged from reference chain".into(),
            },
        );
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Replica-side knobs (the `galois replicate` flag surface).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplicaOptions {
    /// Overrides the `JOB` frame's thread budget.
    pub threads: Option<usize>,
    /// Overrides the job's `locality_spread` — a *planted* deterministic
    /// schedule perturbation, used by the battery to manufacture a replica
    /// that diverges at a stable first round.
    pub perturb_spread: Option<usize>,
    /// Sleep this long in the round-hash hook (slow-replica testing;
    /// timing is hash-invariant).
    pub throttle_ms: u64,
}

/// Joins a coordinator at `addr`, re-executes the job it assigns, and
/// streams per-round prefix hashes. Returns the process exit code: `0`
/// settled, [`EXIT_REPLICA_EVICTED`] evicted, the fault's own exit code if
/// the run faulted.
pub fn run_replica(addr: &str, opts: ReplicaOptions) -> Result<i32, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    run_replica_on(stream, opts)
}

/// [`run_replica`] over a stream already connected to the coordinator.
/// The coordinator numbers replicas in connection order, so a caller that
/// connects the streams itself decides which replica gets which id.
pub fn run_replica_on(stream: TcpStream, opts: ReplicaOptions) -> Result<i32, String> {
    stream
        .set_read_timeout(Some(crate::http::READ_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut control = stream.try_clone().map_err(|e| e.to_string())?;
    wire::write_frame(
        &mut control,
        &Frame::Hello {
            version: WIRE_VERSION,
        },
    )
    .map_err(|e| format!("hello: {e}"))?;
    let job = wire::read_frame(&mut control, Duration::from_secs(120))
        .map_err(|e| format!("waiting for job: {e}"))?;
    let (replica_id, job_threads, manifest_json) = match job {
        Frame::Job {
            replica,
            threads,
            manifest,
        } => (replica, threads as usize, manifest),
        Frame::Reject { reason } => return Err(format!("coordinator rejected join: {reason}")),
        other => return Err(format!("expected JOB, got {other:?}")),
    };
    let manifest =
        RunManifest::from_json(&manifest_json).map_err(|e| format!("job manifest: {e}"))?;
    let (app, input) = manifest_target(&manifest).map_err(|e| e.to_string())?;

    let mut cfg = manifest.exec.clone();
    if let Some(spread) = opts.perturb_spread {
        cfg.locality_spread = spread;
    }
    let threads = opts
        .threads
        .or((job_threads != 0).then_some(job_threads))
        .unwrap_or(cfg.threads);
    let exec = cfg.to_executor(threads).record_rounds(true);

    // Stream hashes from inside the barrier hook. The hook must never
    // panic (it runs on an executor thread), so send failures latch a flag
    // and mute further sends — the coordinator hanging up on us (eviction,
    // refusal) is an expected way for a session to end.
    let hook_stream = Arc::new(Mutex::new(stream.try_clone().map_err(|e| e.to_string())?));
    let send_failed = Arc::new(AtomicBool::new(false));
    let throttle = Duration::from_millis(opts.throttle_ms);
    let hook = {
        let hook_stream = Arc::clone(&hook_stream);
        let send_failed = Arc::clone(&send_failed);
        move |seq: u64, hash: u64| {
            if opts.throttle_ms != 0 {
                std::thread::sleep(throttle);
            }
            if send_failed.load(Ordering::Relaxed) {
                return;
            }
            let mut s = hook_stream.lock().unwrap();
            if wire::write_frame(&mut s, &Frame::Round { seq, hash }).is_err() {
                send_failed.store(true, Ordering::Relaxed);
            }
        }
    };
    let mut rec = ManifestRecorder::new().on_round_hash(hook);

    let final_frame = match replica_run(app, &exec, &input, &mut rec) {
        Ok(out) => Frame::Done {
            rounds: out.rounds,
            output_hash: out.output_hash,
            fingerprint: out.fingerprint,
        },
        Err((exit_code, message)) => Frame::Fault {
            exit_code: exit_code as u32,
            message,
        },
    };
    let fault_exit = match &final_frame {
        Frame::Fault { exit_code, .. } => Some(*exit_code as i32),
        _ => None,
    };
    {
        let mut s = hook_stream.lock().unwrap();
        if wire::write_frame(&mut s, &final_frame).is_err() {
            send_failed.store(true, Ordering::Relaxed);
        }
    }
    if let Some(code) = fault_exit {
        return Ok(code);
    }

    // Wait for the verdict: ACK (settled), EVICT, or a hang-up.
    match wire::read_frame(&mut control, Duration::from_secs(120)) {
        Ok(Frame::Ack) => Ok(0),
        Ok(Frame::Evict { round, reason }) => {
            eprintln!("replica {replica_id}: evicted at round {round}: {reason}");
            Ok(EXIT_REPLICA_EVICTED)
        }
        _ if send_failed.load(Ordering::Relaxed) => Ok(EXIT_REPLICA_EVICTED),
        Ok(other) => Err(format!("expected verdict, got {other:?}")),
        Err(WireError::Closed) => Ok(0),
        Err(e) => Err(format!("waiting for verdict: {e}")),
    }
}
