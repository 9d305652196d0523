//! # genet-cc
//!
//! Congestion control: an Aurora-style network-path simulator (single
//! bottleneck link with a FIFO queue, random loss, propagation + queueing
//! delay, time-varying bandwidth), the rule-based baselines of the paper
//! (BBR, Cubic, PCC-Vivace-latency, Copa), an oracle, and the
//! [`CcScenario`] adapter for Genet.
//!
//! The RL agent acts once per **monitor interval** (MI, proportional to the
//! path RTT), choosing a multiplicative change of its sending rate —
//! Aurora's action, discretized (see DESIGN.md §3). Rule-based baselines run
//! their control laws at sub-RTT granularity on the same simulator, which
//! preserves the decision-granularity asymmetry the paper discusses in §7
//! (TCP reacts per-ack; Aurora reacts per-MI).
//!
//! Reward per MI (Table 1): `a·throughput + b·latency + c·loss` with
//! `a = 120` (Mbps), `b = −1000` (s), `c = −2000` (fraction).

#![forbid(unsafe_code)]

pub mod baselines;
pub mod control;
pub mod env;
pub mod event;
pub mod loss;
pub mod multienv;
pub mod multiflow;
pub mod oracle;
pub mod scenario;
pub mod sim;
pub mod space;

pub use baselines::{Bbr, CcAlgorithm, Copa, Cubic, Vivace};
pub use control::{
    CcVariables, CongestionControl, ExternalCc, FlowState, OracleCc, PolicyCc, RuleCc,
};
pub use env::{CcEnv, CC_ACTIONS, CC_OBS_DIM};
pub use event::{EventKey, EventQueue, TimeNs};
pub use loss::{decode_loss_ranges, encode_loss_ranges};
pub use multienv::{CcMultiFlowEnv, CcMultiFlowScenario};
pub use multiflow::{FlowSpec, MultiFlowPath, MultiFlowSim};
pub use oracle::{fair_share_oracle_reward, oracle_reward};
pub use scenario::CcScenario;
pub use sim::{CcPath, CcSim, MiStats};
pub use space::{cc_multiflow_space, cc_space, CcMultiFlowParams, CcParams};
