//! # rfid-protocols — HPP, EHPP and TPP
//!
//! The contribution of *Fast RFID Polling Protocols* (ICPP 2016): three
//! polling protocols that interrogate every tag exactly once (no empty or
//! collision slots) while shrinking the per-tag *polling vector* far below
//! the conventional 96-bit tag ID.
//!
//! * [`HppConfig`] — **Hash Polling Protocol.** Each round the reader
//!   broadcasts `(h, r)`; every unread tag picks the index
//!   `H(r, id) mod 2^h`. The reader — knowing all IDs — sifts out the
//!   *singleton* indices and broadcasts exactly those, each answered by its
//!   unique tag. Polling vector ≤ `⌈log₂ n⌉` bits.
//! * [`EhppConfig`] — **Enhanced HPP.** Splits the population into circles
//!   of the Theorem-1-optimal size so the vector length stays flat in `n`.
//! * [`TppConfig`] — **Tree-based Polling Protocol.** Builds a binary
//!   [`tree::PollingTree`] over the singleton indices and broadcasts its
//!   pre-order traversal, so each tag costs only the *differential suffix*
//!   relative to the previous index — ~3 bits regardless of `n`.
//!
//! A protocol is its config: each config implements [`PollingProtocol`]
//! over a [`rfid_system::SimContext`] and produces a [`Report`], so
//! `HppConfig::default()` *is* the paper's HPP and `TppConfig { index_rule:
//! IndexRule::HppRule, ..Default::default() }` is an ablation of TPP.
//!
//! Every run goes through one [`Session`]: [`PollingProtocol::try_run`] is
//! a bare session, while recovery passes, sim-time deadlines and
//! checkpoints are configured on it ([`Session::with_policy`],
//! [`Session::with_deadline`], [`Session::snapshot`]), and every ending
//! is a [`SessionEnd`].
//!
//! ```
//! use rfid_protocols::{PollingProtocol, TppConfig};
//! use rfid_system::{SimConfig, SimContext, TagPopulation, BitVec};
//!
//! let pop = TagPopulation::sequential(100, |_| BitVec::from_value(1, 1));
//! let mut ctx = SimContext::new(pop, &SimConfig::paper(1));
//! let report = TppConfig::default().run(&mut ctx);
//! assert_eq!(report.counters.polls, 100);
//! assert!(report.mean_vector_bits() < 6.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod ehpp;
pub(crate) mod error;
pub(crate) mod hpp;
pub(crate) mod report;
pub(crate) mod session;
pub(crate) mod tagside;
pub(crate) mod tpp;
pub(crate) mod tree;

pub use ehpp::EhppConfig;
pub(crate) use error::DEFAULT_STALL_ROUNDS;
pub use error::{PollingError, StallCause, StallGuard};
pub use hpp::HppConfig;
pub use report::Report;
pub use session::{
    DegradeCause, ProtocolStepper, RecoveryPolicy, Session, SessionEnd, StepDiscipline, StepOutcome,
};
pub use tagside::{Broadcast, TagMachine};
pub use tpp::{IndexRule, TppConfig};
pub use tree::PollingTree;

use rfid_system::{Json, JsonError, SimContext};

/// A polling protocol: drives a [`SimContext`] until every active tag has
/// been interrogated exactly once, and reports what it cost.
///
/// A protocol's run logic lives in its [`ProtocolStepper`] — a pure state
/// machine advanced one round/sweep/frame/slot at a time. The
/// [`session::Session`] driver owns everything around it (budgets, stall
/// guards, recovery passes, deadlines, checkpoints); `try_run`/`run` are
/// thin wrappers over a bare session.
///
/// The implementors are the protocol configs themselves; `Send + Sync`
/// lets one value be shared by every worker of a parallel sweep.
pub trait PollingProtocol: Send + Sync {
    /// Short display name (used in tables and reports).
    fn name(&self) -> &'static str;

    /// Opens a fresh stepper positioned at the start of the protocol.
    fn open_stepper(&self, ctx: &SimContext) -> Box<dyn ProtocolStepper>;

    /// Rebuilds a stepper from serialized [`ProtocolStepper::state`],
    /// validating the snapshot against the restored context.
    ///
    /// The default serves steppers whose cross-step state lives entirely
    /// in the context (the provided [`ProtocolStepper::state`]): it accepts
    /// only the empty object and reopens a fresh stepper. Snapshots arrive
    /// from outside (the wire `Resume` verb), so any other state is a typed
    /// error — and a stateful stepper that forgot to override this fails
    /// its restore loudly instead of dropping its state.
    fn resume_stepper(
        &self,
        ctx: &SimContext,
        state: &Json,
    ) -> Result<Box<dyn ProtocolStepper>, JsonError> {
        match state {
            Json::Obj(fields) if fields.is_empty() => Ok(self.open_stepper(ctx)),
            other => Err(JsonError(format!(
                "{} has a stateless stepper, but the snapshot holds stepper state {other}",
                self.name()
            ))),
        }
    }

    /// Runs the protocol on `ctx`, reporting non-convergence as a typed
    /// error instead of panicking.
    ///
    /// Implementations must leave every tag asleep (verified by callers via
    /// [`SimContext::assert_complete`]) on a lossless channel; on a lossy or
    /// faulty channel they must retry lost tags until done, returning
    /// [`PollingError::Stalled`] — with the partial report and the
    /// uncollected IDs — once progress provably stops.
    // The stall carries its partial report by value; callers match on it
    // directly, so it is not boxed.
    #[allow(clippy::result_large_err)]
    fn try_run(&self, ctx: &mut SimContext) -> Result<Report, PollingError> {
        match Session::open(self, ctx).run(ctx) {
            SessionEnd::Complete { report, .. } => Ok(report),
            SessionEnd::Stalled(err) => Err(err),
            SessionEnd::Degraded { .. } => {
                unreachable!("a bare session has no policy or deadline to degrade through")
            }
        }
    }

    /// Runs the protocol to completion, panicking on non-convergence (the
    /// pre-fault-injection contract; fine wherever the channel is benign).
    fn run(&self, ctx: &mut SimContext) -> Report {
        match self.try_run(ctx) {
            Ok(report) => report,
            Err(e) => panic!("{e}"),
        }
    }
}
