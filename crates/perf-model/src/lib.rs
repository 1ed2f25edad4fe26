//! # perf-model — co-run performance and power modeling
//!
//! The predictive layer of the reproduction of *"Co-Run Scheduling with
//! Power Cap on Integrated CPU-GPU Systems"* (paper Section V):
//!
//! * [`profile`] — standalone profiles `l_{i,p,f}` with bandwidth demand
//!   and solo power at every frequency level.
//! * [`characterize`](mod@characterize) — sweeps the Figure-4 micro-benchmark over the
//!   (CPU demand x GPU demand) grid at a small set of frequency stages to
//!   build the co-run degradation space of Figures 5 and 6.
//! * [`surface`] — the degradation space representation with bilinear
//!   lookup.
//! * [`predictor`] — staged interpolation: predicts `d_{i,p,f}^{j,g}` for
//!   arbitrary program pairs and frequency settings from standalone
//!   profiles alone, plus the standalone-sum power predictor.
//! * [`stats`] — error histograms used to validate the models
//!   (Figures 7 and 8).
//! * [`probe`] — the O(N) LLC-vulnerability probe (extension).
//! * [`persist`] — versioned on-disk caching of profiles/stages/bundles.
//! * [`validate`] — leave-one-out surface cross-validation.
//! * [`sensitivity`](mod@sensitivity) — frequency-sensitivity indices from profiles.

pub mod characterize;
pub mod persist;
pub mod predictor;
pub mod probe;
pub mod profile;
pub mod sensitivity;
pub mod stats;
pub mod surface;
pub mod validate;

pub use characterize::{characterize, characterize_stage, CharacterizeConfig, Stage};
pub use persist::{
    bundle_from_string, bundle_to_string, load_bundle, load_profiles, load_stages,
    profiles_from_string, profiles_to_string, save_bundle, save_profiles, save_stages,
    stages_from_string, stages_to_string, ModelBundle, PersistError, FORMAT_VERSION,
};
pub use predictor::StagedPredictor;
pub use probe::{measure_llc_vulnerability, probe_batch, LlcVulnerability, PROBE_DEMANDS_GBPS};
pub use profile::{
    idle_package_power, profile_batch, profile_job, DeviceProfile, JobProfile, ProfileMethod,
};
pub use sensitivity::{prefers_watts, sensitivity, sensitivity_both, Sensitivity};
pub use stats::{relative_error, ErrorHistogram};
pub use surface::{DegradationSurface, Grid2D};
pub use validate::{leave_one_out, validate_stage, LooReport};
