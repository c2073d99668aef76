//! Full-system secure-NVM simulator: the reproduction's Gem5 + NVMain
//! stand-in.
//!
//! Wires the substrate crates into the evaluated machine of Table II:
//! trace-driven in-order cores → L1/L2/L3 data hierarchy
//! ([`scue_cache`]) → secure memory controller ([`scue::SecureMemory`])
//! → banked PCM ([`scue_nvm`]). The [`runner`] replays
//! [`scue_workloads`] traces and reports the paper's metrics; the
//! [`experiment`] module sweeps workloads × schemes × parameters to
//! regenerate each figure's data series; the [`report`] module renders
//! any run as versioned JSON for downstream tooling.
//!
//! # Quick start
//!
//! ```
//! use scue::SchemeKind;
//! use scue_sim::{System, SystemConfig};
//! use scue_workloads::Workload;
//!
//! let trace = Workload::Array.generate(200, 1);
//! let mut system = System::new(SystemConfig::fast(SchemeKind::Scue));
//! let result = system.run_trace(&trace).unwrap();
//! assert!(result.cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod cli;
pub mod config;
pub mod crashtest;
pub mod experiment;
pub mod mc;
pub mod profile;
pub mod report;
pub mod runner;
pub mod torture;

pub use attack::{
    AttackCampaignReport, AttackClass, AttackConfig, AttackKind, AttackSpec, ATTACK_DOC_KIND,
    ATTACK_SCHEMA_VERSION,
};
pub use config::SystemConfig;
pub use crashtest::{
    CrashtestConfig, CrashtestReport, DurableFaultKind, CRASHTEST_DOC_KIND,
    CRASHTEST_SCHEMA_VERSION,
};
pub use mc::{McConfig, McReport, MC_DOC_KIND, MC_SCHEMA_VERSION};
pub use profile::{ProfileConfig, SchemeProfile, PROFILE_DOC_KIND, PROFILE_SCHEMA_VERSION};
pub use report::{ReportConfig, RunReport, METRICS_SCHEMA_VERSION};
pub use runner::{RunResult, System};
pub use torture::{
    campaign, CampaignReport, CaseClass, CaseSpec, FaultKind, TortureConfig, ViolationReport,
    TORTURE_DOC_KIND, TORTURE_SCHEMA_VERSION,
};
