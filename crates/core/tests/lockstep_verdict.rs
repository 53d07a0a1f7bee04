//! Exhaustive check of the lockstep verdict machine over small sessions.
//!
//! Every session of 1–4 replicas against a reference chain of 0–3 rounds
//! is enumerated, each replica taking one of seven behaviours: reproduce
//! the recording, deviate at round k, end short at round k, run one round
//! long, die at round k, or stream the whole chain and then finish with a
//! wrong fingerprint or round count. For each session the machine's
//! outcome, survivors and event log must match the rule stated round by
//! round below; every divergence must name the replica's first mismatch as
//! [`RunManifest::verify_chain`] reports it; events must be ordered by
//! round; and feeding the streams one at a time or interleaved round-robin
//! must give the same report.

use galois_core::lockstep::Verdict;
use galois_core::manifest::{ExecConfig, ScheduleKind, MANIFEST_VERSION};
use galois_core::{
    LockstepEventKind, LockstepOutcome, LockstepReport, RunManifest, WorklistPolicy,
};

const FINGERPRINT: u64 = 0xf1;
const WRONG_FINGERPRINT: u64 = 0xbad;
const OUTPUT: u64 = 0xaa;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Behaviour {
    /// Reproduces the recording.
    Match,
    /// Hashes differently from round k on.
    Deviate(u64),
    /// Finishes after k matching rounds.
    Short(u64),
    /// Matches the whole chain, then sends one round too many.
    Long,
    /// Dies after k matching rounds.
    Die(u64),
    /// Matches the whole chain but finishes with the wrong fingerprint.
    WrongFingerprint,
    /// Matches the whole chain and fingerprint, but its `DONE` claims one
    /// round more than it streamed.
    WrongRoundCount,
}
use Behaviour::*;

/// One replica's stream as a transport delivers it.
#[derive(Debug, Clone, Copy)]
enum Input {
    Round(u64),
    Done { rounds: u64, fingerprint: u64 },
    Die,
}

fn manifest(len: u64) -> RunManifest {
    RunManifest {
        version: MANIFEST_VERSION,
        app: "bfs".into(),
        input_key: "uniform-n8-d5-s1".into(),
        input_seed: 1,
        size: 8,
        exec: ExecConfig {
            threads: 1,
            schedule: ScheduleKind::Deterministic,
            continuation: true,
            locality_spread: 1,
            worklist: WorklistPolicy::Fifo,
            chaos_seed: None,
            chaos_panics: false,
            max_stalled_rounds: 4096,
        },
        round_hashes: (0..len).map(|r| 100 + r).collect(),
        final_fingerprint: FINGERPRINT,
    }
}

fn behaviours(len: u64) -> Vec<Behaviour> {
    let mut all = vec![Match, Long, WrongFingerprint, WrongRoundCount];
    for k in 0..len {
        all.extend([Deviate(k), Short(k)]);
    }
    all.extend((0..=len).map(Die));
    all
}

/// The prefix-hash chain a replica streams.
fn chain(len: u64, b: Behaviour) -> Vec<u64> {
    match b {
        Match | WrongFingerprint | WrongRoundCount => (0..len).map(|r| 100 + r).collect(),
        Deviate(k) => (0..len)
            .map(|r| if r < k { 100 + r } else { 900 + r })
            .collect(),
        Short(k) | Die(k) => (0..k).map(|r| 100 + r).collect(),
        Long => (0..=len).map(|r| 100 + r).collect(),
    }
}

fn inputs(len: u64, b: Behaviour) -> Vec<Input> {
    let chain = chain(len, b);
    let end = match b {
        Match => Input::Done {
            rounds: len,
            fingerprint: FINGERPRINT,
        },
        WrongRoundCount => Input::Done {
            rounds: len + 1,
            fingerprint: FINGERPRINT,
        },
        Die(_) => Input::Die,
        _ => Input::Done {
            rounds: chain.len() as u64,
            fingerprint: WRONG_FINGERPRINT,
        },
    };
    chain.into_iter().map(Input::Round).chain([end]).collect()
}

fn feed(verdict: &mut Verdict, replica: usize, input: Input) {
    match input {
        Input::Round(hash) => verdict.round(replica, hash),
        Input::Done {
            rounds,
            fingerprint,
        } => verdict.done(replica, rounds, OUTPUT, fingerprint),
        Input::Die => verdict.die(replica, LockstepEventKind::Death, "connection lost"),
    }
}

/// One expected event: `(round, replica, kind)`.
type Expected = (u64, Option<u64>, LockstepEventKind);

/// The rule, stated round by round over the behaviours: the outcome, the
/// survivors (empty when refused) and the events it logs, in order.
fn rule(len: u64, bs: &[Behaviour]) -> (LockstepOutcome, Vec<u64>, Vec<Expected>) {
    use LockstepEventKind::{Death, Divergence, Eviction, Refusal};
    let quorum = bs.len() / 2 + 1;
    let mut in_vote: Vec<usize> = (0..bs.len()).collect();
    let mut events: Vec<Expected> = Vec::new();
    let refuse = |round, mut events: Vec<Expected>| {
        events.push((round, None, Refusal));
        (LockstepOutcome::NoQuorum, Vec::new(), events)
    };
    let evict = |events: &mut Vec<Expected>, round, i: usize| {
        events.push((round, Some(i as u64), Divergence));
        events.push((round, Some(i as u64), Eviction));
    };
    for r in 0..=len {
        for &i in in_vote.iter().filter(|&&i| bs[i] == Die(r)) {
            events.push((r, Some(i as u64), Death));
        }
        in_vote.retain(|&i| bs[i] != Die(r));
        if in_vote.len() < quorum {
            return refuse(r, events);
        }
        let against: Vec<usize> = in_vote
            .iter()
            .copied()
            .filter(|&i| match bs[i] {
                Deviate(k) | Short(k) => k == r,
                Long => r == len,
                _ => false,
            })
            .collect();
        if against.is_empty() {
            continue;
        }
        // A strict minority is evicted; half or more is a refusal.
        if against.len() * 2 >= in_vote.len() {
            return refuse(r, events);
        }
        for &i in &against {
            evict(&mut events, r, i);
        }
        in_vote.retain(|i| !against.contains(i));
        if in_vote.len() < quorum {
            return refuse(r, events);
        }
    }
    // Every DONE left must name the recorded round count and fingerprint.
    let mut survivors = Vec::new();
    for &i in &in_vote {
        if matches!(bs[i], WrongFingerprint | WrongRoundCount) {
            evict(&mut events, len, i);
        } else {
            survivors.push(i as u64);
        }
    }
    if survivors.len() < quorum {
        return refuse(len, events);
    }
    let outcome = if events.iter().any(|e| e.2 == Divergence) {
        LockstepOutcome::Diverged
    } else {
        LockstepOutcome::Agreed
    };
    (outcome, survivors, events)
}

/// Feeds each replica's whole stream in turn, then settles once.
fn sequential(m: &RunManifest, streams: &[Vec<Input>]) -> LockstepReport {
    let mut verdict = Verdict::new(m, streams.len());
    for (i, stream) in streams.iter().enumerate() {
        for &input in stream {
            feed(&mut verdict, i, input);
        }
    }
    assert!(verdict.advance().is_some(), "complete streams must settle");
    verdict.report(0, 0)
}

/// Interleaves the streams round-robin, settling after every input as a
/// live transport would; returns the report and the evictions the machine
/// handed out.
fn interleaved(m: &RunManifest, streams: &[Vec<Input>]) -> (LockstepReport, Vec<(usize, u64)>) {
    let mut verdict = Verdict::new(m, streams.len());
    let mut evictions = Vec::new();
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    for t in 0..longest {
        for (i, stream) in streams.iter().enumerate() {
            if let Some(&input) = stream.get(t) {
                feed(&mut verdict, i, input);
                verdict.advance();
                evictions.extend(verdict.take_evictions());
            }
        }
    }
    assert!(verdict.advance().is_some(), "complete streams must settle");
    (verdict.report(0, 0), evictions)
}

fn check(len: u64, bs: &[Behaviour]) {
    let m = manifest(len);
    let streams: Vec<Vec<Input>> = bs.iter().map(|&b| inputs(len, b)).collect();
    let report = sequential(&m, &streams);
    let ctx = format!("len {len}, behaviours {bs:?}: {:#?}", report.events);

    let (outcome, survivors, events) = rule(len, bs);
    assert_eq!(report.outcome, outcome, "{ctx}");
    assert_eq!(report.survivors, survivors, "{ctx}");
    let logged: Vec<Expected> = report
        .events
        .iter()
        .map(|e| (e.round, e.replica, e.kind))
        .collect();
    assert_eq!(logged, events, "{ctx}");
    if outcome == LockstepOutcome::NoQuorum {
        assert_eq!((report.output_hash, report.final_fingerprint), (0, 0));
    } else {
        assert_eq!(report.rounds, len, "{ctx}");
        assert_eq!(report.output_hash, OUTPUT);
        assert_eq!(report.final_fingerprint, FINGERPRINT);
    }
    assert!(
        report.events.windows(2).all(|w| w[0].round <= w[1].round),
        "events out of round order: {ctx}"
    );
    for event in report.events_of(LockstepEventKind::Divergence) {
        let i = event.replica.expect("a divergence names its replica") as usize;
        match m.verify_chain(&chain(len, bs[i])) {
            Err(first) => {
                assert_eq!(
                    (event.round, event.expected, event.actual),
                    (first.round, first.expected, first.actual),
                    "replica {i}: {ctx}"
                );
            }
            Ok(()) => {
                // The chain reproduced the recording; the DONE did not.
                let actual = match bs[i] {
                    WrongFingerprint => WRONG_FINGERPRINT,
                    WrongRoundCount => FINGERPRINT,
                    b => panic!("replica {i} ({b:?}) blamed for a clean chain: {ctx}"),
                };
                assert_eq!(
                    (event.round, event.expected, event.actual),
                    (len, FINGERPRINT, actual),
                    "{ctx}"
                );
            }
        }
    }

    // Arrival order does not matter, and the transport is told exactly the
    // evictions the log records.
    let (live, evictions) = interleaved(&m, &streams);
    assert_eq!(live, report, "interleaved feed changed the verdict: {ctx}");
    let logged: Vec<(usize, u64)> = report
        .events_of(LockstepEventKind::Eviction)
        .iter()
        .map(|e| (e.replica.unwrap() as usize, e.round))
        .collect();
    assert_eq!(evictions, logged, "{ctx}");
}

/// Calls `f` with every assignment of `choices` to `n` replicas.
fn for_each_session(choices: &[Behaviour], n: usize, f: &mut impl FnMut(&[Behaviour])) {
    let mut session = vec![choices[0]; n];
    let mut digits = vec![0usize; n];
    loop {
        for (slot, &d) in session.iter_mut().zip(&digits) {
            *slot = choices[d];
        }
        f(&session);
        let Some(pos) = digits.iter().position(|&d| d + 1 < choices.len()) else {
            return;
        };
        digits[pos] += 1;
        digits[..pos].iter_mut().for_each(|d| *d = 0);
    }
}

#[test]
fn verdict_matches_the_rule_on_every_small_session() {
    let mut sessions = 0;
    let mut seen = [0usize; 3];
    for len in 0..=3 {
        let choices = behaviours(len);
        for n in 1..=4 {
            for_each_session(&choices, n, &mut |bs| {
                check(len, bs);
                seen[rule(len, bs).0 as usize] += 1;
                sessions += 1;
            });
        }
    }
    // 5, 8, 11 and 14 behaviours per replica at lengths 0..=3.
    let expected: usize = [5usize, 8, 11, 14]
        .iter()
        .map(|&b| (1..=4).map(|n| b.pow(n)).sum::<usize>())
        .sum();
    assert_eq!(sessions, expected);
    assert!(
        seen.iter().all(|&c| c > 0),
        "every outcome exercised: {seen:?}"
    );
}

/// The outcome's exit code is the CLI contract: 0, 13, 14.
#[test]
fn outcomes_map_to_the_exit_code_contract() {
    assert_eq!(LockstepOutcome::Agreed.exit_code(), 0);
    assert_eq!(LockstepOutcome::Diverged.exit_code(), 13);
    assert_eq!(LockstepOutcome::NoQuorum.exit_code(), 14);
}
