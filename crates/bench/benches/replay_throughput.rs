//! Replay-path throughput: how fast `corun replay` re-executes a
//! journal, and what snapshot checkpoints cost to decode.
//!
//! Replay is the post-mortem tool for production journals, so the
//! figure that matters is events/sec through the pure state machine —
//! it bounds how long "re-execute yesterday's run" takes. A clean replay
//! decodes no snapshot; `--diff` after a failed checkpoint folds every
//! delta before it, and a full snapshot decode is the upper bound of one
//! fold step.

use bench::trajectory::{self, Sample};
use corun_core::RetryPolicy;
use corun_replay::{replay_records, ReplayOptions};
use corun_serve::{apply_state, encode_state, Record, ServiceState, JOURNAL_FORMAT_VERSION};
use criterion::{criterion_group, criterion_main, Criterion};

/// Build a realistic synthetic transcript: `jobs` jobs across 4
/// machines, every 7th job failing once before completing (requeue +
/// re-dispatch), with a snapshot checkpoint every 64 records listing the
/// jobs named since the previous one, as the daemon writes them — the
/// mix a chaos-faulted production journal carries.
fn synthetic_journal(jobs: usize) -> Vec<Record> {
    let retry = RetryPolicy {
        max_retries: 2,
        backoff_base_s: 0.01,
        backoff_max_s: 0.02,
    };
    let machines = 4;
    let mut st = ServiceState::new(machines);
    let mut recs = vec![Record::Meta {
        version: JOURNAL_FORMAT_VERSION,
        machines,
    }];
    let mut snapshot_due = 64;
    let mut touched = Vec::new();
    for j in 0..jobs {
        let (id, rec) = st.accept(&format!("srad#{j}"), "srad", 0.1).unwrap();
        recs.push(rec);
        touched.push(id);
        let m = j % machines;
        let device = if j % 2 == 0 {
            apu_sim::Device::Gpu
        } else {
            apu_sim::Device::Cpu
        };
        let t = j as f64;
        recs.push(st.dispatch(id, m, device, t, 1.0).unwrap());
        if j % 7 == 0 {
            let fail = st.fail(id, &retry, "injected job failure").unwrap();
            recs.push(fail.record);
            recs.push(st.dispatch(id, m, device, t + 0.5, 1.0).unwrap());
        }
        recs.push(st.complete(id, t + 1.0).unwrap());
        if recs.len() >= snapshot_due {
            recs.push(Record::Snapshot {
                seq: recs.len() as u64,
                fingerprint: st.fingerprint(),
                state: encode_state(&st, touched.drain(..)),
            });
            snapshot_due = recs.len() + 64;
        }
    }
    recs
}

/// Re-execute a ~35k-record transcript through the pure state machine.
fn bench_replay(c: &mut Criterion) {
    let recs = synthetic_journal(8192);
    c.bench_function("replay_full_journal", |b| {
        b.iter(|| {
            let outcome = replay_records(&recs, &ReplayOptions::default());
            assert!(outcome.is_clean());
            outcome.records_applied
        });
    });
}

/// Fold every snapshot checkpoint of a 2048-job journal from an empty
/// state — what `--diff` pays to rebuild the recorded state at the last
/// checkpoint.
fn bench_snapshot_fold(c: &mut Criterion) {
    let recs = synthetic_journal(2048);
    let deltas: Vec<&str> = recs
        .iter()
        .filter_map(|r| match r {
            Record::Snapshot { state, .. } => Some(state.as_str()),
            _ => None,
        })
        .collect();
    assert!(!deltas.is_empty(), "synthetic journal has snapshots");
    c.bench_function("replay_snapshot_fold", |b| {
        b.iter(|| {
            let mut st = ServiceState::new(0);
            for delta in &deltas {
                apply_state(&mut st, delta).expect("snapshot folds");
            }
            st
        });
    });
}

/// Record the headline figures to `BENCH_replay.json`: sustained
/// events/sec re-executed, and snapshot decodes/sec.
fn bench_trajectory(c: &mut Criterion) {
    let _ = c;
    let recs = synthetic_journal(8192);
    let reps = 8;
    let t0 = std::time::Instant::now();
    let mut applied = 0usize;
    for _ in 0..reps {
        let outcome = replay_records(&recs, &ReplayOptions::default());
        assert!(outcome.is_clean());
        applied += outcome.records_applied;
    }
    let replay_s = t0.elapsed().as_secs_f64();

    let state = replay_records(&recs, &ReplayOptions::default()).state;
    let encoded = encode_state(&state, 0..state.jobs.len());
    let decodes = 200;
    let t0 = std::time::Instant::now();
    for _ in 0..decodes {
        apply_state(&mut ServiceState::new(0), &encoded).expect("snapshot decodes");
    }
    let decode_s = t0.elapsed().as_secs_f64();

    let path = trajectory::write(
        "replay",
        &[
            Sample::new(
                "replay_events_per_sec",
                applied as f64 / replay_s,
                "events/s",
            ),
            Sample::new(
                "snapshot_decodes_per_sec",
                f64::from(decodes) / decode_s,
                "decodes/s",
            ),
            Sample::new("journal_records", recs.len() as f64, "records"),
        ],
    )
    .expect("write trajectory");
    println!("wrote {}", path.display());
}

criterion_group!(benches, bench_replay, bench_snapshot_fold, bench_trajectory);
criterion_main!(benches);
