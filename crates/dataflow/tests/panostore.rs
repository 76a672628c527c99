//! Integration tests for the persistent summary-cache tier.
//!
//! The contracts under test, in the order DESIGN.md §5d states them:
//! real analysis entries roundtrip through disk *exactly* (Debug
//! identity); corruption of any kind is quarantined, never loaded and
//! never fatal; reopening after a crash recovers cleanly; eviction
//! respects the byte budget; and two instances can share a directory.
//! Injected IO faults live in `panostore_faults.rs`: arming a failpoint
//! is process-wide, so those tests get a process of their own.

mod common;

use common::{analyze_into, real_entries, Scratch, TWO_ROUTINES};
use dataflow::cache::{MemoryCache, SummaryCache};
use dataflow::panostore::{DiskCache, TieredCache};
use std::fs;
use std::sync::Arc;

#[test]
fn real_entries_roundtrip_exactly_through_disk() {
    let scratch = Scratch::new("roundtrip");
    let entries = real_entries(TWO_ROUTINES);

    let disk = DiskCache::open(scratch.path(), None);
    for (k, e) in &entries {
        disk.put_entry(k, e);
    }
    assert!(disk.snapshot().disabled.is_none());

    // A *fresh* instance (fresh process stand-in) must read back
    // byte-identical values — Debug identity is the replay contract.
    let disk2 = DiskCache::open(scratch.path(), None);
    for (k, e) in &entries {
        let back = disk2.get_entry(k).expect("warm hit from fresh instance");
        assert_eq!(format!("{e:?}"), format!("{back:?}"), "entry {k}");
    }
    let snap = disk2.snapshot();
    assert_eq!(snap.disk_hits, entries.len() as u64);
    assert_eq!(snap.quarantined, 0);
    assert!(snap.bytes_on_disk > 0);
}

#[test]
fn warm_tiered_analysis_is_disk_fed() {
    let scratch = Scratch::new("tiered");
    {
        let tiered = Arc::new(TieredCache::new(
            MemoryCache::new(),
            Arc::new(DiskCache::open(scratch.path(), None)),
        ));
        analyze_into(tiered.clone(), TWO_ROUTINES);
        assert!(tiered.disk().expect("tier").entries > 0);
    }
    // New process stand-in: empty memory, warm disk.
    let tiered = Arc::new(TieredCache::new(
        MemoryCache::new(),
        Arc::new(DiskCache::open(scratch.path(), None)),
    ));
    analyze_into(tiered.clone(), TWO_ROUTINES);
    let snap = tiered.disk().expect("tier");
    assert!(snap.disk_hits > 0, "warm run should hit disk: {snap:?}");
    assert_eq!(snap.disabled, None);
}

#[test]
fn torn_tail_is_quarantined_and_prefix_salvaged() {
    let scratch = Scratch::new("torn");
    let entries = real_entries(TWO_ROUTINES);
    {
        let disk = DiskCache::open(scratch.path(), None);
        for (k, e) in &entries {
            disk.put_entry(k, e);
        }
    }
    // Tear the tail off one committed segment (simulated torn write /
    // truncated-by-filesystem segment).
    let seg = fs::read_dir(scratch.path())
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "pano"))
        .expect("a segment");
    let bytes = fs::read(&seg).unwrap();
    fs::write(&seg, &bytes[..bytes.len() - 7]).unwrap();

    let disk = DiskCache::open(scratch.path(), None);
    let snap = disk.snapshot();
    assert!(snap.quarantined >= 1, "torn tail counted: {snap:?}");
    assert!(
        scratch.path().join("quarantine").exists(),
        "corrupt file moved aside"
    );
    // Nothing torn was loaded; whatever is indexed decodes fine.
    for (k, e) in &entries {
        if let Some(back) = disk.get_entry(k) {
            assert_eq!(format!("{e:?}"), format!("{back:?}"));
        }
    }
    assert!(snap.disabled.is_none(), "corruption must not disable");
}

#[test]
fn flipped_payload_bit_is_detected_on_open() {
    let scratch = Scratch::new("bitflip");
    let entries = real_entries(TWO_ROUTINES);
    {
        let disk = DiskCache::open(scratch.path(), None);
        disk.put_entry(&entries[0].0, &entries[0].1);
    }
    let seg = fs::read_dir(scratch.path())
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "pano"))
        .expect("a segment");
    let mut bytes = fs::read(&seg).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    fs::write(&seg, bytes).unwrap();

    let disk = DiskCache::open(scratch.path(), None);
    assert!(disk.get_entry(&entries[0].0).is_none(), "corrupt: miss");
    let snap = disk.snapshot();
    assert!(snap.quarantined >= 1, "{snap:?}");
    assert!(snap.disabled.is_none());
}

#[test]
fn wrong_version_and_wrong_magic_are_quarantined() {
    let scratch = Scratch::new("version");
    let entries = real_entries(TWO_ROUTINES);
    {
        let disk = DiskCache::open(scratch.path(), None);
        disk.put_entry(&entries[0].0, &entries[0].1);
    }
    let seg = fs::read_dir(scratch.path())
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "pano"))
        .expect("a segment");
    // Bump the record's version field (bytes 8..10 = segment magic is
    // 8 bytes, then record magic 4 bytes, then version u16).
    let mut bytes = fs::read(&seg).unwrap();
    bytes[12] = 0xEE;
    bytes[13] = 0xEE;
    fs::write(&seg, &bytes).unwrap();
    let disk = DiskCache::open(scratch.path(), None);
    assert_eq!(disk.snapshot().entries, 0);
    assert!(disk.snapshot().quarantined >= 1);

    // And a file that is not a segment at all.
    fs::write(scratch.path().join("seg-000000000099-1.pano"), b"junk").unwrap();
    let disk = DiskCache::open(scratch.path(), None);
    assert!(disk.snapshot().quarantined >= 1);
    assert!(disk.snapshot().disabled.is_none());
}

#[test]
fn crash_leftover_tmp_file_is_swept_on_open() {
    let scratch = Scratch::new("tmpsweep");
    fs::create_dir_all(scratch.path()).unwrap();
    // A dead pid's uncommitted write (pid 1 is init — treat one that
    // can't be ours; use a pid far beyond pid_max).
    let dead = scratch.path().join(".tmp-999999999-seg-x.pano");
    fs::write(&dead, b"half-written").unwrap();
    let disk = DiskCache::open(scratch.path(), None);
    assert!(!dead.exists(), "uncommitted temp swept");
    assert!(disk.snapshot().disabled.is_none());
}

#[test]
fn eviction_respects_byte_budget_oldest_first() {
    let scratch = Scratch::new("evict");
    let entries = real_entries(TWO_ROUTINES);
    // A budget that fits roughly one segment forces eviction.
    let one_entry_bytes = {
        let probe = Scratch::new("evict-probe");
        let d = DiskCache::open(probe.path(), None);
        d.put_entry(&entries[0].0, &entries[0].1);
        d.snapshot().bytes_on_disk
    };
    let disk = DiskCache::open(scratch.path(), Some(one_entry_bytes + 8));
    for (k, e) in &entries {
        disk.put_entry(k, e);
    }
    let snap = disk.snapshot();
    assert!(snap.evictions > 0, "{snap:?}");
    assert!(snap.bytes_on_disk <= one_entry_bytes + 8 || snap.segments == 1);
    assert!(snap.disabled.is_none());
    // The newest entry survived (oldest-first policy).
    let last = entries.last().unwrap();
    assert!(disk.get_entry(&last.0).is_some());
}

#[test]
fn unwritable_directory_disables_with_structured_reason() {
    // A path under a *file* can never be created.
    let scratch = Scratch::new("unwritable");
    fs::create_dir_all(scratch.path()).unwrap();
    let blocker = scratch.path().join("blocker");
    fs::write(&blocker, b"x").unwrap();
    let disk = DiskCache::open(blocker.join("cache"), None);
    let snap = disk.snapshot();
    let reason = snap.disabled.expect("disabled");
    assert!(reason.contains("open"), "{reason}");
    // And it stays inert.
    let entries = real_entries(TWO_ROUTINES);
    disk.put_entry(&entries[0].0, &entries[0].1);
    assert!(disk.get_entry(&entries[0].0).is_none());
}

#[test]
fn two_instances_share_one_directory() {
    let scratch = Scratch::new("share");
    let entries = real_entries(TWO_ROUTINES);
    let a = DiskCache::open(scratch.path(), None);
    for (k, e) in &entries {
        a.put_entry(k, e);
    }
    // Instance B opened afterwards sees A's committed segments.
    let b = DiskCache::open(scratch.path(), None);
    for (k, e) in &entries {
        let back = b.get_entry(k).expect("shared hit");
        assert_eq!(format!("{e:?}"), format!("{back:?}"));
    }
    // A's own reads still work (immutable segments, lock-free reads).
    assert!(a.get_entry(&entries[0].0).is_some());
    // A stale LOCK file from a dead process does not wedge writes.
    fs::write(scratch.path().join("LOCK"), b"999999999").unwrap();
    let c = DiskCache::open(scratch.path(), None);
    c.put_entry(&entries[0].0, &entries[0].1);
    assert!(c.snapshot().disabled.is_none());
}
