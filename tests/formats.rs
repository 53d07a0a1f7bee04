//! Golden pins for the two checksummed on-disk formats.
//!
//! A recorded [`RunManifest`] and a [`LockstepReport`] are compared byte
//! for byte against committed fixtures, and each fixture must parse back to
//! the value that wrote it. A third test re-signs hand-edited bodies with a
//! valid checksum and checks the strict cursor still refuses them: the
//! checksum only proves the bytes are the ones that were sealed, so the
//! reader itself must reject every layout the writer never produces.

use deterministic_galois::core::manifest::{
    LockstepEvent, LockstepEventKind, LockstepOutcome, LockstepReport, LOCKSTEP_REPORT_VERSION,
};
use deterministic_galois::core::{ManifestError, RunManifest};
use deterministic_galois::harness::{record_run, App, InputConfig};
use deterministic_galois::runtime::fingerprint::Fnv64;

const MANIFEST_FIXTURE: &str = include_str!("fixtures/bfs_n2000_t1.manifest.json");
const REPORT_FIXTURE: &str = include_str!("fixtures/lockstep.report.json");

fn bfs_manifest() -> RunManifest {
    let input = InputConfig {
        size: Some(2000),
        ..InputConfig::default()
    };
    record_run(App::Bfs, 1, None, &input).expect("recording must succeed")
}

/// A report with a null replica, empty survivors and one event per kind.
fn fixed_report() -> LockstepReport {
    let kinds = [
        LockstepEventKind::Divergence,
        LockstepEventKind::Eviction,
        LockstepEventKind::Death,
        LockstepEventKind::Timeout,
        LockstepEventKind::Fault,
        LockstepEventKind::Refusal,
    ];
    LockstepReport {
        version: LOCKSTEP_REPORT_VERSION,
        app: "bfs".into(),
        input_key: "uniform-n2000-d5-s42".into(),
        replicas: 3,
        window: 64,
        rounds: 12,
        outcome: LockstepOutcome::NoQuorum,
        survivors: vec![],
        max_buffered: 7,
        output_hash: 0,
        final_fingerprint: 0,
        events: kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| LockstepEvent {
                round: 3 + i as u64,
                replica: (kind != LockstepEventKind::Refusal).then_some(i as u64 % 3),
                kind,
                expected: 0x0123_4567_89ab_cdef ^ i as u64,
                actual: 0xfedc_ba98_7654_3210 ^ i as u64,
                detail: format!("{} at round {}", kind.name(), 3 + i),
            })
            .collect(),
    }
}

#[test]
fn manifest_matches_golden_fixture() {
    let manifest = bfs_manifest();
    assert_eq!(manifest.to_json(), MANIFEST_FIXTURE);
    assert_eq!(RunManifest::from_json(MANIFEST_FIXTURE), Ok(manifest));
}

#[test]
fn lockstep_report_matches_golden_fixture() {
    let report = fixed_report();
    assert_eq!(report.to_json(), REPORT_FIXTURE);
    assert_eq!(LockstepReport::from_json(REPORT_FIXTURE), Ok(report));
}

/// Strips the `,"checksum":"…"}` envelope, giving back the signed body.
fn body_of(sealed: &str) -> String {
    let at = sealed.rfind(",\"checksum\":\"").expect("sealed document");
    format!("{}}}", &sealed[..at])
}

/// Seals `body` the way the writers do, so the checksum always passes.
fn sign(body: &str) -> String {
    let mut h = Fnv64::new();
    h.write_bytes(body.as_bytes());
    format!(
        "{},\"checksum\":\"{:016x}\"}}\n",
        &body[..body.len() - 1],
        h.finish()
    )
}

/// Re-signs each `(label, from, to)` edit of `sealed`'s body and asserts
/// the parser refuses it as a parse error, not as a checksum mismatch.
fn assert_resigned_edits_refused<T: std::fmt::Debug>(
    sealed: &str,
    parse: impl Fn(&str) -> Result<T, ManifestError>,
    edits: &[(&str, &str, &str)],
) {
    let body = body_of(sealed);
    assert!(parse(&sign(&body)).is_ok(), "re-signing the intact body");
    for &(label, from, to) in edits {
        assert!(body.contains(from), "{label}: {from:?} not in body");
        let edited = sign(&body.replacen(from, to, 1));
        match parse(&edited) {
            Err(ManifestError::Parse(_)) => {}
            other => panic!("{label}: {edited:?} gave {other:?}"),
        }
    }
}

#[test]
fn resigned_layout_edits_are_refused() {
    let manifest = MANIFEST_FIXTURE;
    let body = body_of(manifest);
    let tail = &body[body.rfind('"').unwrap()..];
    assert_resigned_edits_refused(
        manifest,
        RunManifest::from_json,
        &[
            ("space after colon", "\"version\":1", "\"version\": 1"),
            ("space after comma", ",\"app\"", ", \"app\""),
            ("space after brace", "{\"version\"", "{ \"version\""),
            ("newline before key", ",\"size\"", ",\n\"size\""),
            (
                "reordered keys",
                "\"input_seed\":42,\"size\":2000",
                "\"size\":2000,\"input_seed\":42",
            ),
            (
                "unknown key",
                "\"version\":1,",
                "\"version\":1,\"extra\":0,",
            ),
            (
                "duplicate key",
                "\"app\":\"bfs\",",
                "\"app\":\"bfs\",\"app\":\"bfs\",",
            ),
            ("trailing comma", tail, &tail.replace('}', ",}")),
            ("trailing bytes", tail, &tail.replace('}', "0}")),
        ],
    );

    let report = REPORT_FIXTURE;
    assert_resigned_edits_refused(
        report,
        LockstepReport::from_json,
        &[
            ("space after colon", "\"replicas\":3", "\"replicas\": 3"),
            ("space in list", "\"events\":[{", "\"events\":[ {"),
            ("space in event", ",\"kind\"", " ,\"kind\""),
            (
                "reordered keys",
                "\"replicas\":3,\"window\":64",
                "\"window\":64,\"replicas\":3",
            ),
            (
                "unknown key",
                "\"rounds\":12,",
                "\"rounds\":12,\"extra\":0,",
            ),
            (
                "duplicate key",
                "\"window\":64,",
                "\"window\":64,\"window\":64,",
            ),
            ("trailing comma", "}]}", "},]}"),
            ("trailing bytes", "}]}", "}]0}"),
            ("space before event close", "\"}]}", "\" }]}"),
        ],
    );
}
