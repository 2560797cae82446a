//! # qa-core — autonomic query allocation by microeconomics
//!
//! The primary contribution of *Autonomic Query Allocation based on
//! Microeconomics Principles* (Pentaris & Ioannidis, ICDE 2007), plus every
//! baseline the paper compares against (§4, Table 2):
//!
//! | Mechanism | Module | Paper row |
//! |---|---|---|
//! | **QA-NT** (query markets, non-tâtonnement) | `qant` | "QA-NT — Very Good, distributed, autonomous" |
//! | Greedy (least completion time) | [`client`] | "Greedy — Very Good, violates autonomy" |
//! | Random | [`client`] | "Random — Poor" |
//! | Round-robin | [`client`] | "Round-robin — Poor" |
//! | BNQRD (central unbalance factor, Carey et al.) | [`BnqrdCoordinator`] | "BNQRD — Poor, violates autonomy" |
//! | Two random probes (Mitzenmacher) | [`client`] | "(two-random probes) — between Round-robin and BNQRD" |
//! | Markov/stochastic optimal (Drenick & Smith) | `markov` | "Markov — Excellent, static only, centralized" |
//!
//! The crate holds the *decision logic* only; the drivers live in `qa-sim`
//! (discrete-event, 100 nodes, §5.1) and `qa-cluster` (threaded deployment
//! over live `qa-minidb` engines, §5.2). Both drive the same negotiation
//! protocol, whose messages ([`messages`]) deliberately carry **no prices**
//! — QA-NT's prices are private per-node state, which is the autonomy
//! argument of the paper.
//!
//! The mapping onto microeconomics (Table 1) is provided by `qa-economics`:
//! queries ↔ commodities, client nodes ↔ buyers, server nodes ↔ sellers,
//! virtual query prices ↔ commodity values.

pub(crate) mod bnqrd;
pub mod client;
pub(crate) mod estimator;
pub(crate) mod markov;
pub(crate) mod mechanism;
pub mod messages;
pub(crate) mod qant;

pub use bnqrd::BnqrdCoordinator;
pub use client::{RoundRobinState, TwoProbesChooser};
pub use estimator::PlanHistoryEstimator;
pub use markov::MarkovAllocator;
pub use mechanism::MechanismKind;
pub use qant::{QantConfig, QantMarket, QantNode};
