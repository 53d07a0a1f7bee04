//! # Deterministic Galois: on-demand, portable, parameterless
//!
//! A reproduction of the runtime system from *"Deterministic Galois:
//! On-demand, Portable and Parameterless"* (Nguyen, Lenharth, Pingali —
//! ASPLOS 2014).
//!
//! Programs are written once, in the (non-deterministic) Galois programming
//! model: an unordered pool of *cautious* tasks that acquire abstract
//! locations before writing them ([`Ctx`], [`Operator`]). The scheduler is
//! then chosen at run time ([`Executor`], [`Schedule`]):
//!
//! - [`Schedule::Speculative`] — the classic Galois speculative executor:
//!   optimistic mark acquisition, abort-and-retry on conflict. Fast,
//!   non-deterministic.
//! - [`Schedule::Deterministic`] — **DIG scheduling**: rounds of
//!   inspect / select / execute over an implicitly constructed interference
//!   graph, with an adaptive (parameterless) window. The schedule — and
//!   therefore the program output — is bit-identical for any thread count
//!   (portable).
//! - [`Schedule::Serial`] — single-threaded reference semantics.
//!
//! ## Example: on-demand determinism
//!
//! ```
//! use galois_core::{Executor, MarkTable, Schedule, Ctx, OpResult};
//! use std::sync::Mutex;
//!
//! // A toy "last writer wins" register per bucket. The final values depend
//! // on the schedule, so deterministic and speculative runs may differ —
//! // but deterministic runs never differ from each other.
//! fn run(schedule: Schedule, threads: usize) -> Vec<u64> {
//!     let regs: Vec<Mutex<u64>> = (0..8).map(|_| Mutex::new(0)).collect();
//!     let op = |t: &u64, ctx: &mut Ctx<'_, u64>| -> OpResult {
//!         let bucket = (*t % 8) as u32;
//!         ctx.acquire(bucket)?;
//!         ctx.failsafe()?;
//!         *regs[bucket as usize].lock().unwrap() = *t;
//!         Ok(())
//!     };
//!     let marks = MarkTable::new(8);
//!     Executor::new()
//!         .threads(threads)
//!         .schedule(schedule)
//!         .iterate((0..512).collect())
//!         .run(&marks, &op);
//!     regs.into_iter().map(|m| m.into_inner().unwrap()).collect()
//! }
//!
//! // Portability: deterministic output is thread-count independent.
//! assert_eq!(run(Schedule::deterministic(), 1), run(Schedule::deterministic(), 4));
//! ```
//!
//! ## Crate map
//!
//! | module | paper section | content |
//! |--------|---------------|---------|
//! | [`marks`] | §2.1, Fig. 1b & 3 | mark table: `writeMarks` (CAS) and `writeMarksMax` |
//! | [`ctx`] | §2, §3.3 | cautious-operator API: acquire, failsafe, checkpoint |
//! | [`task`] | §3.2–3.3 | deterministic id assignment, locality spreading |
//! | [`window`] | §3.2 | adaptive window policy |
//! | [`flags`] | §3.3 | order-insensitive abort-flag protocol |
//! | [`executor`] | §1 | the on-demand scheduler switch |
//! | [`manifest`] | — | record/replay: run manifests, replay verification |
//! | [`lockstep`] | — | the lockstep verdict machine shared by both transports |
//! | `det` (internal) | §3 | the DIG scheduler |
//! | `spec` (internal) | §2.1 | the speculative scheduler |

#![warn(missing_docs)]

pub mod ctx;
mod det;
pub mod error;
pub mod executor;
pub mod flags;
pub mod lockstep;
pub mod manifest;
pub mod marks;
pub mod ops;
mod serial;
mod spec;
pub mod task;
pub mod window;

pub use ctx::{Abort, Access, Ctx, OpResult, INJECTED_PANIC_PREFIX};
pub use error::{ExecError, QUARANTINE_CAP};
pub use executor::{
    DetOptions, Executor, LoopSpec, RunReport, Schedule, WorklistPolicy, DEFAULT_MAX_STALLED_ROUNDS,
};
pub use galois_runtime::chaos::ChaosPolicy;
pub use galois_runtime::probe::{Probe, RoundLog, RoundRecord};
pub use manifest::{
    LockstepEvent, LockstepEventKind, LockstepOutcome, LockstepReport, ManifestError,
    ManifestRecorder, ReplayDivergence, RunManifest,
};
pub use marks::{LockId, MarkTable};
pub use ops::Operator;
pub use window::WindowPolicy;

/// One coherent import surface for programs written against the Galois
/// model: the executor switch, the operator API, and the record/replay
/// layer, in one `use galois_core::prelude::*`.
pub mod prelude {
    pub use crate::ctx::{Ctx, OpResult};
    pub use crate::error::ExecError;
    pub use crate::executor::{
        DetOptions, Executor, LoopSpec, RunReport, Schedule, WorklistPolicy,
    };
    pub use crate::manifest::{
        ExecConfig, LockstepEvent, LockstepEventKind, LockstepOutcome, LockstepReport,
        ManifestError, ManifestRecorder, ReplayDivergence, RunManifest,
    };
    pub use crate::marks::{LockId, MarkTable};
    pub use crate::ops::Operator;
    pub use galois_runtime::fingerprint::{hash_u32s, run_fingerprint, Fnv64, RoundChain};
    pub use galois_runtime::probe::{Probe, RoundLog, RoundRecord};
}
