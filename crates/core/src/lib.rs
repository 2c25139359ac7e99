//! # mc-model — the paper's memory-contention model
//!
//! Implementation of the predictive model of *Modeling Memory Contention
//! between Communications and Computations in Distributed HPC Systems*
//! (Denis, Jeannot, Swartvagher, IPDPS-W 2022): given the number of
//! computing cores, the machine topology and the NUMA placement of
//! computation and communication data, predict the memory bandwidth each
//! stream obtains when they run side by side.
//!
//! The model is a **threshold model** (§II-D): below the memory-system
//! capacity `T(n)` both streams get their demand; above it, communications
//! are squeezed first — down to a guaranteed minimum `α·Bcomm_seq` — then
//! computations degrade uniformly. It is calibrated from exactly **two**
//! benchmark sweeps (both buffers local; both buffers on the first remote
//! NUMA node) and predicts **all** placement combinations via the
//! combination rules of eqs. (6)–(7).
//!
//! ```
//! use mc_membench::{calibration_sweeps, BenchConfig};
//! use mc_model::ContentionModel;
//! use mc_topology::{platforms, NumaId};
//!
//! let platform = platforms::henri();
//! // Two calibration runs (the only measurements the model needs):
//! let (local, remote) = calibration_sweeps(&platform, BenchConfig::default());
//! let model = ContentionModel::calibrate(&platform.topology, &local, &remote).unwrap();
//! // Predict a placement that was never measured:
//! let pred = model.predict(17, NumaId::new(0), NumaId::new(1));
//! assert!(pred.comp > 0.0 && pred.comm > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod advisor;
pub mod baselines;
pub mod calibrate;
pub mod collective_time;
pub mod error;
pub mod instantiation;
pub mod metrics;
pub mod params;
pub mod persist;
pub mod placement;
pub mod predictor;
pub mod registry;
pub mod robustness;
pub mod sparse;

pub use advisor::{
    core_count, rank, recommend, size_bytes, two_phase_makespan, PhaseProfile, Recommendation,
    MAX_CORES,
};
pub use baselines::{EqualShareBaseline, LocalOnlyBaseline, NoContentionBaseline};
pub use calibrate::{calibrate, CalibrationError};
pub use collective_time::{estimate_collective, Collective, CollectiveEstimate};
pub use error::{ErrorCategory, McError};
pub use instantiation::{InstantiatedModel, Prediction};
pub use metrics::{evaluate, format_percent, ErrorBreakdown, Mape};
pub use params::{ModelParams, ParamError};
pub use persist::{model_from_text, model_to_text, PersistError};
pub use placement::ContentionModel;
pub use predictor::BandwidthPredictor;
pub use registry::{ModelRegistry, RegistryKey, RegistryStats};
pub use robustness::{
    average_params, calibrate_all, fault_spread, param_spread, FaultSpreadReport, ParamSpread,
    RobustnessError, Spread,
};
pub use sparse::{calibrate_sparse, SparseCalibration};
