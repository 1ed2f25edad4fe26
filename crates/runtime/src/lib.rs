//! # runtime — the integrated co-scheduling runtime
//!
//! Glues the substrate ([`apu_sim`]), the workloads ([`kernels`]), the
//! predictive models ([`perf_model`]) and the algorithms ([`corun_core`])
//! into the prototype the paper evaluates:
//!
//! * [`modelbuild`] — materialize the scheduler-facing [`corun_core::TableModel`]
//!   from profiles + staged interpolation;
//! * [`executor`] — replay schedules on the simulator (planned levels or
//!   governor-owned clocks; Default's multiprogrammed CPU partition);
//! * [`oracle`] — ground-truth pair measurements for model validation;
//! * [`pipeline`] — [`CoScheduleRuntime`]: profile, characterize, schedule,
//!   execute, in one object;
//! * [`experiments`] — programmatic versions of the paper's studies;
//! * [`online_exec`] — ground-truth execution of the online policy;
//! * [`report`] — tables, Gantt timelines, run summaries;
//! * [`sweep`] — cap x method parameter sweeps;
//! * [`cache`] — fingerprint-keyed on-disk characterization caching, and
//!   the in-memory class cache that profiles each distinct program once;
//! * [`incremental`] — a growable [`corun_core::CoRunModel`] for resident
//!   services that admit jobs one at a time.

pub mod cache;
pub mod executor;
pub mod experiments;
pub mod incremental;
pub mod modelbuild;
pub mod online_exec;
pub mod oracle;
pub mod pipeline;
pub mod report;
pub mod sweep;

pub use cache::{cache_path, characterize_cached, fingerprint};
pub use executor::{execute_default, execute_schedule, LevelPolicy};
pub use experiments::{
    best_pair_setting, perf_model_errors, power_model_errors, speedup_study, SpeedupStudy,
};
pub use incremental::IncrementalModel;
pub use modelbuild::build_table_model;
pub use online_exec::execute_online;
pub use oracle::{measure_pair_truth, measure_solo, PairTruth};
pub use pipeline::{CoScheduleRuntime, RuntimeConfig};
pub use report::{full_report, gantt, job_table, summary};
pub use sweep::{cap_sweep, Method, SweepCell, SweepResult};
