//! # fast-rfid-polling
//!
//! A from-scratch Rust reproduction of *Fast RFID Polling Protocols*
//! (Jia Liu, Bin Xiao, Xuan Liu, Lijun Chen — ICPP 2016).
//!
//! The paper designs polling protocols that interrogate RFID tags one at a
//! time while shrinking the per-tag *polling vector* from the conventional
//! 96-bit tag ID down to ~3 bits:
//!
//! * **HPP** — poll tags by per-round hashed indices (≤ ⌈log₂ n⌉ bits),
//! * **EHPP** — split the population into optimally sized subsets so the
//!   vector length stays flat in n,
//! * **TPP** — broadcast a *polling tree* so only the differential suffix
//!   between consecutive singleton indices goes on the air (≈3 bits/tag).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`c1g2`] | `rfid-c1g2` | C1G2 air-interface timing, commands, CRCs |
//! | [`hash`] | `rfid-hash` | seeded tag hash family, PRNG |
//! | [`system`] | `rfid-system` | tags, reader, channel, bit vectors, harness |
//! | [`analysis`] | `rfid-analysis` | Eqs. (1)–(16), Theorems 1–2, timing model |
//! | [`workloads`] | `rfid-workloads` | ID distributions, payloads, scenarios |
//! | [`protocols`] | `rfid-protocols` | **HPP / EHPP / TPP** (the contribution) |
//! | [`baselines`] | `rfid-baselines` | CPP, enhanced CPP, CP, MIC, ALOHA |
//! | [`apps`] | `rfid-apps` | info collection, missing tags, multi-reader |
//! | [`obs`] | `rfid-obs` | sim-time traces, metrics, trace→counter reconciliation |
//! | [`wire`] | `rfid-wire` | framed wire protocol: codec, transports, loopback |
//! | [`daemon`] | `rfid-daemon` | reader-fleet daemon: TCP server, typed client |
//! | [`bench`] | `rfid-bench` | parallel sweep engine, Monte-Carlo runner, micro-bench harness |
//!
//! ## Quickstart
//!
//! ```
//! use fast_rfid_polling::prelude::*;
//!
//! // 500 tags with uniformly random EPC-96 IDs, each holding 1 bit of info.
//! let scenario = Scenario::uniform(500, 1).with_seed(42);
//! let outcome = run_polling(&TppConfig::default().into_protocol(), &scenario);
//! assert_eq!(outcome.report().counters.polls, 500);
//! // TPP's average polling vector is ~3 bits, far below the 96-bit ID.
//! assert!(outcome.report().mean_vector_bits() < 6.0);
//! ```

pub use rfid_analysis as analysis;
pub use rfid_apps as apps;
pub use rfid_baselines as baselines;
pub use rfid_bench as bench;
pub use rfid_c1g2 as c1g2;
pub use rfid_daemon as daemon;
pub use rfid_estimate as estimate;
pub use rfid_hash as hash;
pub use rfid_identify as identify;
pub use rfid_obs as obs;
pub use rfid_protocols as protocols;
pub use rfid_system as system;
pub use rfid_wire as wire;
pub use rfid_workloads as workloads;

/// One-stop imports for the common use cases.
pub mod prelude {
    pub use rfid_apps::info_collect::{collect, run_polling, Collection};
    pub use rfid_baselines::{CodedPollingConfig, CppConfig, EcppConfig, MicConfig};
    pub use rfid_c1g2::{Clock, LinkParams, Micros, TimeCategory};
    pub use rfid_obs::{
        expose_text, folded_stacks, metrics_from_log, reconcile, render_flame, FlightBundle,
        FlightRecorder, MetricsRegistry, Span,
    };
    pub use rfid_protocols::{
        DegradeCause, EhppConfig, HppConfig, PollingError, PollingProtocol, RecoveryPolicy, Report,
        Session, SessionEnd, StallCause, TppConfig,
    };
    pub use rfid_system::{
        BitVec, FaultModel, FaultPlan, FaultPlanError, GilbertElliott, Json, JsonError, SimConfig,
        SimContext, SlotOutcome, SpanProfiler, TagId, TagPopulation,
    };
    pub use rfid_workloads::{IdDistribution, Scenario};
}
