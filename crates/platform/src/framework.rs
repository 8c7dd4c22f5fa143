//! What the paper's scheduling framework (§4.1) costs on top of the
//! resources the steady-state model counts. The period `T` of §3.2
//! leaves these out, which is why §6.4.1 measures about 95 % of the
//! predicted throughput. `core::evaluate` prices them into the
//! calibrated period `T_cal`, and `sim::SimConfig::calibrated` charges
//! them to the simulated PEs: both read them from here.

/// CPU time of one task activation: selecting the task, checking its
/// resources and signalling its data (the Figure 4 loop).
pub const TASK_OVERHEAD: f64 = 0.01e-6;

/// CPU time a PE loses per DMA transfer it issues or watches. §4.1:
/// SPEs "are not multi-threaded and the computation must be interrupted
/// to initiate a communication". The consumer of an edge pays one per
/// transfer (it issues the Get and watches it), the producer half of one
/// (it signals and unlocks), and a task's own memory read or write costs
/// its PE one.
pub const COMM_INTERRUPT: f64 = 0.02e-6;

/// Delay between admitting a DMA transfer and its first byte moving (DMA
/// issue and synchronisation). It costs no CPU time, and the §4.2
/// buffers cover it in steady state.
pub const DMA_LATENCY: f64 = 0.3e-6;
