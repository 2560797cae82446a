//! # qa-economics — microeconomics substrate for query markets
//!
//! Implements the economic machinery of *Autonomic Query Allocation based on
//! Microeconomics Principles* (Pentaris & Ioannidis, ICDE 2007), Sections 2–3:
//!
//! * [`QuantityVector`] — the paper's demand (`d⃗`), supply (`s⃗`) and
//!   consumption (`c⃗`) vectors over `N^K` (K query classes),
//! * [`PriceVector`] — virtual prices `p⃗ ∈ R₊^K` with value products
//!   `p⃗·s⃗`,
//! * `supply` — supply sets `Sᵢ` (the feasible supply vectors of a node)
//!   and the profit-maximisation problem of eq. (4),
//! * [`dominates`] and [`is_pareto_optimal`] — Pareto dominance and
//!   optimality (Definition 1) under the paper's throughput preference
//!   (`c⃗ ⪰ c⃗′  iff  Σc ≥ Σc′`), with [`enumerate_solutions`], a brute-force
//!   enumerator for small economies used by tests,
//! * `market` — excess demand `z(p⃗)` (Definition 2) and competitive
//!   equilibrium (Definition 3),
//! * [`Tatonnement`] — the classical centralized umpire iteration
//!   `p(t+1) = p(t) + λ·z(p(t))` (eq. 6),
//! * [`PriceRules`] — the decentralized per-node price adjustment used by
//!   the QA-NT algorithm (reject ⇒ raise, leftover supply ⇒ lower),
//! * [`parent`] — the hierarchical tier: a parent market that clears shard
//!   broker bids (QA-NT at the broker tier, or a WALRAS-style tâtonnement
//!   over aggregate supply curves),
//! * `welfare` — empirical First-Theorem-of-Welfare-Economics checks used
//!   by the test suite.
//!
//! This crate is independent of queries and databases: it speaks only of
//! commodities, prices, buyers and sellers. `qa-core` maps the QA problem
//! onto it (Table 1 of the paper).

pub(crate) mod market;
pub(crate) mod non_tatonnement;
pub mod parent;
pub(crate) mod pareto;
pub(crate) mod supply;
pub(crate) mod tatonnement;
pub(crate) mod vectors;
pub(crate) mod welfare;

pub use market::is_equilibrium;
pub use non_tatonnement::{
    ln_of_quanta, to_quanta, NonTatonnementPricer, PriceRules, PricerConfig,
};
pub use pareto::{dominates, enumerate_solutions, is_pareto_optimal, Solution};
pub use supply::{
    solve_supply_fractional, solve_supply_greedy, solve_supply_greedy_cached, solve_supply_optimal,
    DensityOrderCache, LinearCapacitySet, SupplySet,
};
pub use tatonnement::Tatonnement;
pub use vectors::{PriceVector, QuantityVector};
pub use welfare::{check_ftwe, FtweCheck};
