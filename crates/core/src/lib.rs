//! # corun-core — co-scheduling algorithms for power-capped CPU-GPU packages
//!
//! The algorithmic contribution of *"Co-Run Scheduling with Power Cap on
//! Integrated CPU-GPU Systems"* (Zhu et al., IPDPS 2017), implemented over
//! an abstract [`CoRunModel`]:
//!
//! * [`theorem`] — the Co-Run Theorem and partial-overlap co-run arithmetic;
//! * [`hcs`] — the three-step heuristic co-scheduling algorithm with its
//!   power-cap adaptations;
//! * [`refine`] — the HCS+ three-pass local refinement;
//! * [`bound`] — the lower bound `T_low` on the optimal makespan;
//! * [`baselines`] — Random and Default comparison schedulers;
//! * [`exhaustive`] — small-batch exhaustive search (Section III example);
//! * [`evaluate`] — model-based schedule evaluation (makespan, power, cap);
//! * [`freqgrid`] — cap-feasible frequency enumeration;
//! * [`model`], [`schedule`] — the data model.
//!
//! Extensions beyond the paper:
//!
//! * [`bnb`] — branch-and-bound optimal search (small batches);
//! * [`budget`] — cluster-wide power-budget partitioning across shards;
//! * [`anneal`] — simulated-annealing schedule search;
//! * [`online`] — arrival-driven online policy and model-level replay;
//! * [`objective`] — energy and energy-delay-product objectives;
//! * [`fairness`] — per-job slowdown and Jain-index metrics.

pub mod anneal;
pub mod baselines;
pub mod bnb;
pub mod bound;
pub mod budget;
pub mod certificate;
pub mod clock;
pub mod evaluate;
pub mod exhaustive;
pub mod fairness;
pub mod freqgrid;
pub mod hcs;
pub mod model;
pub mod objective;
pub mod online;
pub mod refine;
pub mod schedule;
pub mod theorem;

pub use anneal::{anneal, AnnealConfig, AnnealOutcome};
pub use baselines::{default_partition, random_schedule, DefaultPartition};
pub use bnb::{branch_and_bound, BnbConfig, BnbResult};
pub use bound::{lower_bound, BoundReport};
pub use budget::{partition_cluster_cap, respects_cluster_cap, ShardDemand};
pub use certificate::{
    certify, parse_certificate, BoundWitness, Certificate, PairWitness, ParsedCertificate,
    SegmentWitness, CERT_FORMAT_VERSION,
};
pub use clock::{jittered_backoff_s, Clock, DetRng, ManualClock, WallClock};
pub use evaluate::{evaluate, EvalReport, Segment};
pub use exhaustive::{exhaustive_uniform, exhaustive_uniform_opts, ExhaustiveResult};
pub use fairness::{fairness, FairnessReport};
pub use freqgrid::{
    best_level_against, best_solo_level, best_solo_placement, best_solo_run, fastest_level_against,
    feasible_pair_settings,
};
pub use hcs::{categorize, hcs, partition, pick_for_device, HcsConfig, HcsOutcome, Preference};
pub use model::{CoRunModel, JobId, TableModel};
pub use objective::{edp_js, energy_j, objective_value, Objective};
pub use online::{
    evaluate_online, Arrival, OnlinePick, OnlinePolicy, OnlineReport, RequeueOutcome, RetryPolicy,
};
pub use refine::{refine, RefineConfig, RefineOutcome};
pub use schedule::{Assignment, Coverage, Schedule, SoloRun};
pub use theorem::{corun_beneficial, corun_makespan_conservative, pair_completion};
