//! Crash-prefix property of the coordinator's fleetlog: a `kill -9` can
//! stop the coordinator at any byte of its write-ahead log. A fleetlog
//! written by a real drain is cut at every byte offset past its header;
//! each cut must scan to exactly the complete records before the cut,
//! and repair + append must leave a log the next recovery reads cleanly.
//!
//! A power loss keeps only what was committed. Every public `Fleet` call
//! ends in a commit, so the log's length when one returns is a commit
//! boundary; recovery from a log cut there must keep every job id an
//! earlier `submit_spec` returned.

use corun_core::WallClock;
use corun_fleet::{
    over_local, replay_fleetlog, start_local_shards, Fleet, FleetConfig, FleetRecord, NetConfig,
    ShardBackend,
};
use corun_serve::wal::{repair_tail, scan, Journal};
use corun_serve::{Service, ServiceConfig};
use corun_verify::Code;
use std::path::Path;
use std::sync::Arc;

#[test]
fn fleetlog_cut_at_any_byte_scans_to_its_complete_prefix() {
    let dir = std::env::temp_dir().join(format!("corun-fleetlog-prefix-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let log = dir.join("fleet.jsonl");

    let machine = apu_sim::MachineConfig::ivy_bridge();
    let mut template = ServiceConfig::fast(&machine);
    template.characterization.grid_points = 3;
    template.characterization.micro_duration_s = 1.0;
    template.cache_dir = Some(dir.join("cache"));
    let mut cfg = FleetConfig::new(2, 1, 40.0);
    cfg.journal_path = Some(log.clone());
    let backends = start_local_shards(&template, 2, 1, None, |_| None);
    let mut fleet = Fleet::new(cfg, backends).expect("fleet");
    fleet.submit_spec("srad x0.05 *3\n").expect("submit");
    assert!(fleet.drain(120.0).expect("drain").drained());
    fleet.begin_shutdown();
    fleet.finish();
    drop(fleet);

    let bytes = std::fs::read(&log).expect("fleetlog bytes");
    let full = scan::<FleetRecord>(&log, Code::Flt009);
    assert!(full.report.is_empty(), "{}", full.report.render_human());
    assert!(full.records.len() > 10, "a drain journals every decision");

    // Cuts inside the header leave no version header (an error by
    // design: nothing was ever admitted), so start at the end of its
    // payload — the header is complete there, only its `\n` missing.
    let header_end = bytes.iter().position(|&b| b == b'\n').expect("header line");
    let cut_path = dir.join("cut.jsonl");
    for cut in header_end..=bytes.len() {
        std::fs::write(&cut_path, &bytes[..cut]).expect("write cut");
        // Complete lines before the cut: every terminated one, plus a
        // final line whose only missing byte is its `\n`.
        let complete = bytes[..cut].iter().filter(|&&b| b == b'\n').count()
            + usize::from(bytes.get(cut) == Some(&b'\n'));

        let s = scan::<FleetRecord>(&cut_path, Code::Flt009);
        assert!(
            !s.report.has_errors(),
            "cut {cut}: {}",
            s.report.render_human()
        );
        assert_eq!(s.records[..], full.records[..complete], "cut {cut}");

        repair_tail(&cut_path, &s).expect("repair");
        let mut j = Journal::open_append(&cut_path, s.records.len() as u64).expect("reopen");
        j.append(&FleetRecord::Recovered).expect("append");
        drop(j);
        let rescan = scan::<FleetRecord>(&cut_path, Code::Flt009);
        assert!(
            rescan.report.is_empty(),
            "cut {cut}: {}",
            rescan.report.render_human()
        );
        assert_eq!(rescan.records.len(), complete + 1, "cut {cut}");
        assert_eq!(rescan.records.last(), Some(&FleetRecord::Recovered));
        replay_fleetlog(&rescan.records).expect("a repaired prefix replays");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fleetlog_cut_at_each_commit_boundary_keeps_every_returned_id() {
    let dir = std::env::temp_dir().join(format!("corun-fleetlog-commit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let log = dir.join("fleet.jsonl");
    let machine = apu_sim::MachineConfig::ivy_bridge();
    let mut template = ServiceConfig::fast(&machine);
    template.characterization.grid_points = 3;
    template.characterization.micro_duration_s = 1.0;
    template.cache_dir = Some(dir.join("cache"));
    // The services outlive every coordinator below, as daemons do.
    let services: Vec<Arc<Service>> = (0..2)
        .map(|_| Arc::new(Service::start(template.clone())))
        .collect();
    let backends = || -> Vec<Box<dyn ShardBackend>> {
        services
            .iter()
            .enumerate()
            .map(|(s, svc)| {
                Box::new(over_local(
                    Arc::clone(svc),
                    None,
                    s,
                    NetConfig::default(),
                    Arc::new(WallClock::new()),
                )) as Box<dyn ShardBackend>
            })
            .collect()
    };
    let mut cfg = FleetConfig::new(2, 1, 40.0);
    cfg.shard_floor_w = 15.0;
    cfg.journal_path = Some(log.clone());
    let len = |path: &Path| std::fs::metadata(path).expect("fleetlog").len() as usize;

    // (log length when a call returned, ids returned by then)
    let mut fleet = Fleet::new(cfg.clone(), backends()).expect("fleet");
    let mut cuts = vec![(len(&log), 0)];
    let mut returned = 0;
    for _ in 0..3 {
        returned += fleet.submit_spec("srad x0.05 *4\n").expect("submit").len();
        cuts.push((len(&log), returned));
        fleet.pump();
        cuts.push((len(&log), returned));
    }
    assert!(fleet.drain(120.0).expect("drain").drained());
    cuts.push((len(&log), returned));
    fleet.finish();
    cuts.push((len(&log), returned));
    let keys: Vec<String> = (0..returned)
        .map(|id| fleet.router().job(id).key.clone())
        .collect();
    drop(fleet);

    let bytes = std::fs::read(&log).expect("fleetlog bytes");
    let cut_path = dir.join("cut.jsonl");
    let mut recover_cfg = cfg.clone();
    recover_cfg.journal_path = Some(cut_path.clone());
    for (cut, returned) in cuts {
        assert_eq!(bytes[cut - 1], b'\n', "commit boundary {cut} ends a record");
        std::fs::write(&cut_path, &bytes[..cut]).expect("write cut");
        let fleet = Fleet::recover(recover_cfg.clone(), backends())
            .unwrap_or_else(|e| panic!("recover from the commit boundary at {cut}: {e}"));
        assert!(fleet.router().jobs() >= returned, "cut {cut} lost an id");
        for (id, key) in keys.iter().enumerate().take(returned) {
            assert_eq!(&fleet.router().job(id).key, key, "cut {cut}, job {id}");
        }
    }
    for svc in &services {
        svc.shutdown();
    }
    std::fs::remove_dir_all(&dir).ok();
}
