//! The lockstep verdict: one pure state machine that judges N replicas'
//! per-round prefix hashes against a recorded run.
//!
//! Determinism turns replica checking into hash comparison (Aviram & Ford,
//! *Efficient System-Enforced Deterministic Parallelism*): a replica is
//! healthy iff it reproduces the recording's chain. [`Verdict`] is that
//! comparison, and the only copy of it. Both lockstep transports — the TCP
//! coordinator of `galois-serve` and the in-process replicas of
//! `galois-harness` — feed it the same inputs (each replica's round hashes,
//! then its `DONE` payload or its death) and read back the same
//! [`LockstepReport`]. It does no I/O and reads no clock.
//!
//! The machine settles one *frontier* round at a time, and only once every
//! replica still in the vote has spoken for that round: sent its hash,
//! finished, or died. So the event log depends on each replica's stream
//! alone, never on the order the streams arrived in, and a session reaches
//! the same verdict whichever transport carried it. The rules:
//!
//! - The recorded chain is binding. A **strict minority** of the replicas
//!   in the vote contradicting it at the frontier is evicted (a
//!   `divergence` event naming the first divergent round, then an
//!   `eviction` event) and the rest carry on.
//! - **Half or more** contradicting it is a refusal
//!   ([`LockstepOutcome::NoQuorum`]): a majority must never out-vote the
//!   recording. Running past the end of the chain contradicts it too.
//! - A replica that dies (connection loss, timeout, fault) keeps the votes
//!   it delivered and leaves the vote at the first round it did not
//!   deliver. Fewer than a quorum — a majority of the original N,
//!   `N / 2 + 1` — left in the vote is a refusal.
//! - At the end of the chain every survivor's `DONE` must name the
//!   recorded round count and final fingerprint, and survivors must agree
//!   on the output hash; the run is released only if a quorum does.

use crate::manifest::{
    LockstepEvent, LockstepEventKind, LockstepOutcome, LockstepReport, RunManifest,
    LOCKSTEP_REPORT_VERSION,
};
use std::collections::VecDeque;
use std::fmt;

/// Where one replica's stream stands.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Stream {
    /// Still sending round hashes.
    Live,
    /// Sent its `DONE` payload.
    Finished {
        rounds: u64,
        output_hash: u64,
        fingerprint: u64,
    },
    /// Stopped without `DONE`; leaves the vote once its queue drains.
    Dead {
        kind: LockstepEventKind,
        detail: String,
    },
    /// Evicted, or dead and out of the vote.
    Out,
}

/// The lockstep verdict machine. See the [module docs](self) for the
/// rules.
///
/// Feed it with [`round`](Self::round), [`done`](Self::done),
/// [`die`](Self::die) and [`fault`](Self::fault), call
/// [`advance`](Self::advance) to settle as far as the input allows, carry
/// out [`take_evictions`](Self::take_evictions), and read the
/// [`report`](Self::report) once `advance` returns an outcome.
#[derive(Debug)]
pub struct Verdict {
    app: String,
    input_key: String,
    reference: Vec<u64>,
    final_fingerprint: u64,
    streams: Vec<Stream>,
    /// Per-replica received-but-unsettled hashes; each front is the hash
    /// for round `settled`.
    pending: Vec<VecDeque<u64>>,
    /// Rounds settled against the reference chain.
    settled: u64,
    events: Vec<LockstepEvent>,
    /// `(replica, round)` evictions the transport has not yet carried out.
    evictions: Vec<(usize, u64)>,
    outcome: Option<LockstepOutcome>,
    survivors: Vec<u64>,
    /// The survivors' agreed `(output_hash, fingerprint)`.
    agreed: (u64, u64),
}

impl Verdict {
    /// A machine judging `replicas` replicas of `manifest`, whose recorded
    /// round chain and final fingerprint are binding.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is 0.
    pub fn new(manifest: &RunManifest, replicas: usize) -> Verdict {
        assert!(replicas > 0, "lockstep needs at least one replica");
        Verdict {
            app: manifest.app.clone(),
            input_key: manifest.input_key.clone(),
            reference: manifest.round_hashes.clone(),
            final_fingerprint: manifest.final_fingerprint,
            streams: vec![Stream::Live; replicas],
            pending: vec![VecDeque::new(); replicas],
            settled: 0,
            events: Vec::new(),
            evictions: Vec::new(),
            outcome: None,
            survivors: Vec::new(),
            agreed: (0, 0),
        }
    }

    /// Whether the machine still reads `replica`'s stream: no verdict yet,
    /// and the replica has neither finished, died nor been evicted.
    pub fn accepts(&self, replica: usize) -> bool {
        self.outcome.is_none() && self.streams[replica] == Stream::Live
    }

    /// Hashes received from `replica` and not yet settled.
    pub fn buffered(&self, replica: usize) -> usize {
        self.pending[replica].len()
    }

    /// `replica`'s prefix hash for its next round. Ignored once the
    /// machine no longer [`accepts`](Self::accepts) the replica.
    pub fn round(&mut self, replica: usize, hash: u64) {
        if self.accepts(replica) {
            self.pending[replica].push_back(hash);
        }
    }

    /// `replica` finished: its `DONE` round count, output hash and final
    /// fingerprint.
    pub fn done(&mut self, replica: usize, rounds: u64, output_hash: u64, fingerprint: u64) {
        self.end(
            replica,
            Stream::Finished {
                rounds,
                output_hash,
                fingerprint,
            },
        );
    }

    /// `replica` stopped without finishing. The event of `kind` is logged
    /// as `"replica {replica} {what}"` when the death takes effect, at the
    /// first round the replica did not deliver.
    pub fn die(&mut self, replica: usize, kind: LockstepEventKind, what: impl fmt::Display) {
        let detail = format!("replica {replica} {what}");
        self.end(replica, Stream::Dead { kind, detail });
    }

    /// `replica` reported a structured execution fault: a
    /// [`Fault`](LockstepEventKind::Fault) death.
    pub fn fault(&mut self, replica: usize, exit_code: impl fmt::Display, message: &str) {
        self.die(
            replica,
            LockstepEventKind::Fault,
            format_args!("faulted (exit {exit_code}): {message}"),
        );
    }

    fn end(&mut self, replica: usize, stream: Stream) {
        if self.accepts(replica) {
            self.streams[replica] = stream;
        }
    }

    /// A majority of the replicas that joined.
    fn quorum(&self) -> usize {
        self.streams.len() / 2 + 1
    }

    /// The evictions decided since the last call, as `(replica, round)`,
    /// for the transport to carry out (tell the replica, hang up).
    pub fn take_evictions(&mut self) -> Vec<(usize, u64)> {
        std::mem::take(&mut self.evictions)
    }

    /// Settles rounds until the input runs out or the session ends.
    /// Returns the outcome once there is one; `None` means some replica
    /// still in the vote owes the frontier round.
    pub fn advance(&mut self) -> Option<LockstepOutcome> {
        let (n, quorum) = (self.streams.len(), self.quorum());
        while self.outcome.is_none() {
            if (0..n).any(|i| self.streams[i] == Stream::Live && self.pending[i].is_empty()) {
                return None;
            }
            let r = self.settled;
            // A dead replica leaves the vote at the first round it did not
            // deliver.
            for i in 0..n {
                if matches!(self.streams[i], Stream::Dead { .. }) && self.pending[i].is_empty() {
                    if let Stream::Dead { kind, detail } =
                        std::mem::replace(&mut self.streams[i], Stream::Out)
                    {
                        self.log(r, Some(i), kind, 0, 0, detail);
                    }
                }
            }
            let active: Vec<usize> = (0..n).filter(|&i| self.streams[i] != Stream::Out).collect();
            if active.len() < quorum {
                self.refuse(
                    r,
                    format!(
                        "quorum lost: {} of {n} replicas live, need {quorum}",
                        active.len()
                    ),
                );
                break;
            }
            // Each active replica's claim for round r: a hash, or `None` —
            // "my chain ended before this round".
            let votes: Vec<(usize, Option<u64>)> = active
                .iter()
                .map(|&i| (i, self.pending[i].front().copied()))
                .collect();
            match self.reference.get(r as usize).copied() {
                None => {
                    // Reference chain exhausted: anyone still producing
                    // rounds contradicts the recording.
                    let extra: Vec<(usize, u64)> = votes
                        .iter()
                        .filter_map(|&(i, v)| v.map(|h| (i, h)))
                        .collect();
                    if extra.is_empty() {
                        self.finalize();
                    } else if extra.len() * 2 >= active.len() {
                        self.refuse(
                            r,
                            format!(
                                "{} of {} live replicas ran past the recorded {}-round chain",
                                extra.len(),
                                active.len(),
                                self.reference.len()
                            ),
                        );
                    } else {
                        for (i, hash) in extra {
                            self.evict(i, r, 0, hash);
                        }
                    }
                }
                Some(expected) => {
                    let mismatch: Vec<(usize, Option<u64>)> = votes
                        .into_iter()
                        .filter(|&(_, v)| v != Some(expected))
                        .collect();
                    if mismatch.is_empty() {
                        for &i in &active {
                            self.pending[i].pop_front();
                        }
                        self.settled += 1;
                    } else if mismatch.len() * 2 >= active.len() {
                        self.refuse(
                            r,
                            format!(
                                "{} of {} live replicas contradict the reference at round {r} — \
                                 refusing to vote a majority against the recording",
                                mismatch.len(),
                                active.len()
                            ),
                        );
                    } else {
                        for (i, v) in mismatch {
                            self.evict(i, r, expected, v.unwrap_or(0));
                        }
                    }
                }
            }
        }
        self.outcome
    }

    /// Every replica left in the vote settled the whole reference chain
    /// and finished; now their `DONE` payloads must match the recording.
    fn finalize(&mut self) {
        let (n, quorum) = (self.streams.len(), self.quorum());
        let round = self.settled;
        let mut survivors = Vec::new();
        let mut agreed: Option<(u64, u64)> = None;
        for i in 0..n {
            let Stream::Finished {
                rounds,
                output_hash,
                fingerprint,
            } = self.streams[i]
            else {
                continue;
            };
            if rounds != round || fingerprint != self.final_fingerprint {
                self.evict(i, round, self.final_fingerprint, fingerprint);
                continue;
            }
            match agreed {
                None => agreed = Some((output_hash, fingerprint)),
                Some((h, _)) if h != output_hash => {
                    // Same fingerprint, different output hash cannot
                    // happen through honest hashing; treat as divergence.
                    self.evict(i, round, h, output_hash);
                    continue;
                }
                Some(_) => {}
            }
            survivors.push(i as u64);
        }
        if survivors.len() < quorum {
            self.refuse(
                round,
                format!(
                    "only {} of {n} replicas reproduced the recorded fingerprint, need {quorum}",
                    survivors.len()
                ),
            );
            return;
        }
        let diverged = self
            .events
            .iter()
            .any(|e| e.kind == LockstepEventKind::Divergence);
        self.outcome = Some(if diverged {
            LockstepOutcome::Diverged
        } else {
            LockstepOutcome::Agreed
        });
        self.survivors = survivors;
        self.agreed = agreed.expect("a quorum of survivors agreed");
    }

    /// Logs the divergence + eviction pair for replica `i` at round `r`
    /// and removes it from the vote.
    fn evict(&mut self, i: usize, r: u64, expected: u64, actual: u64) {
        self.log(
            r,
            Some(i),
            LockstepEventKind::Divergence,
            expected,
            actual,
            format!("replica {i} first diverged from the reference chain at round {r}"),
        );
        self.log(
            r,
            Some(i),
            LockstepEventKind::Eviction,
            0,
            0,
            format!("replica {i} evicted; continuing with the survivors"),
        );
        self.streams[i] = Stream::Out;
        self.pending[i].clear();
        self.evictions.push((i, r));
    }

    fn refuse(&mut self, round: u64, detail: String) {
        self.log(round, None, LockstepEventKind::Refusal, 0, 0, detail);
        self.outcome = Some(LockstepOutcome::NoQuorum);
    }

    fn log(
        &mut self,
        round: u64,
        replica: Option<usize>,
        kind: LockstepEventKind,
        expected: u64,
        actual: u64,
        detail: String,
    ) {
        self.events.push(LockstepEvent {
            round,
            replica: replica.map(|i| i as u64),
            kind,
            expected,
            actual,
            detail,
        });
    }

    /// The session's report. `window` and `max_buffered` describe the
    /// transport's hash buffer (`0` for a transport that used none).
    ///
    /// # Panics
    ///
    /// Panics if [`advance`](Self::advance) has not reached an outcome.
    pub fn report(&self, window: u64, max_buffered: u64) -> LockstepReport {
        let outcome = self.outcome.expect("lockstep verdict not reached");
        LockstepReport {
            version: LOCKSTEP_REPORT_VERSION,
            app: self.app.clone(),
            input_key: self.input_key.clone(),
            replicas: self.streams.len() as u64,
            window,
            rounds: self.settled,
            outcome,
            survivors: self.survivors.clone(),
            max_buffered,
            output_hash: self.agreed.0,
            final_fingerprint: self.agreed.1,
            events: self.events.clone(),
        }
    }
}
