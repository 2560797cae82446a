//! # qa-economics — microeconomics substrate for query markets
//!
//! Implements the economic machinery of *Autonomic Query Allocation based on
//! Microeconomics Principles* (Pentaris & Ioannidis, ICDE 2007), Sections 2–3:
//!
//! * [`QuantityVector`] — the paper's demand (`d⃗`), supply (`s⃗`) and
//!   consumption (`c⃗`) vectors over `N^K` (K query classes),
//! * [`PriceVector`] — virtual prices `p⃗ ∈ R₊^K` with value products
//!   `p⃗·s⃗`,
//! * [`supply`] — supply sets `Sᵢ` (the feasible supply vectors of a node)
//!   and the profit-maximisation problem of eq. (4),
//! * [`preference`] — preference relations `⪰ᵢ` over consumption vectors,
//!   including the paper's throughput preference
//!   (`c⃗ ⪰ c⃗′  iff  Σc ≥ Σc′`) and the future-work equitable variant,
//! * [`pareto`] — Pareto dominance and optimality (Definition 1), with a
//!   brute-force optimal enumerator for small economies used by tests,
//! * [`market`] — excess demand `z(p⃗)` (Definition 2) and competitive
//!   equilibrium (Definition 3),
//! * [`tatonnement`] — the classical centralized umpire iteration
//!   `p(t+1) = p(t) + λ·z(p(t))` (eq. 6),
//! * [`non_tatonnement`] — the decentralized per-node price adjustment used
//!   by the QA-NT algorithm (reject ⇒ raise, leftover supply ⇒ lower) and
//!   the Definition-4 trading-rule checks,
//! * [`parent`] — the hierarchical tier: a parent market that clears shard
//!   broker bids (QA-NT at the broker tier, or a WALRAS-style tâtonnement
//!   over aggregate supply curves),
//! * [`welfare`] — empirical First-Theorem-of-Welfare-Economics checks used
//!   by the test suite.
//!
//! This crate is independent of queries and databases: it speaks only of
//! commodities, prices, buyers and sellers. `qa-core` maps the QA problem
//! onto it (Table 1 of the paper).

pub mod market;
pub mod non_tatonnement;
pub mod parent;
pub mod pareto;
pub mod preference;
pub mod supply;
pub mod tatonnement;
pub mod vectors;
pub mod welfare;

pub use market::{excess_demand, is_equilibrium, ExcessVector};
pub use non_tatonnement::{
    adjusted, ln_price, trade_exhausts_pair, trade_is_feasible, NonTatonnementPricer, PricerConfig,
    RefusalChain, ReplayWork, REPLAY_BLOCK,
};
pub use parent::{BrokerBid, ClearingOutcome, ParentMarket, ParentMarketConfig, ParentMechanism};
pub use pareto::{dominates, enumerate_solutions, is_pareto_optimal, Solution};
pub use preference::{EquitablePreference, Preference, ThroughputPreference, WeightedPreference};
pub use supply::{
    price_density_order_into, solve_supply_fractional, solve_supply_greedy,
    solve_supply_greedy_cached, solve_supply_optimal, DensityOrderCache, EnumeratedSupplySet,
    LinearCapacitySet, SupplySet,
};
pub use tatonnement::{Tatonnement, TatonnementOutcome};
pub use vectors::{PriceVector, QuantityVector};
pub use welfare::{check_ftwe, split_supply_to_consumptions, FtweCheck};
