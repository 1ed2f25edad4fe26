//! Crash-prefix property of the coordinator's fleetlog: a `kill -9` can
//! stop the coordinator at any byte of its write-ahead log. A fleetlog
//! written by a real drain is cut at every byte offset past its header;
//! each cut must scan to exactly the complete records before the cut,
//! and repair + append must leave a log the next recovery reads cleanly.

use corun_fleet::{replay_fleetlog, start_local_shards, Fleet, FleetConfig, FleetRecord};
use corun_serve::wal::{repair_tail, scan, Journal};
use corun_serve::ServiceConfig;
use corun_verify::Code;

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
