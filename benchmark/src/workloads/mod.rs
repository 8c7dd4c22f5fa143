//! The five workloads. Each module's header says what its op is, which
//! layers it stresses and which it bypasses, and what `--seed` decides.

pub mod fleet_churn;
pub mod plan_paper;
pub mod rt_stream;
pub mod serve;
