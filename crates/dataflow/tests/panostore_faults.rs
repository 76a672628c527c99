//! Injected IO faults (`err` failpoints) degrade the persistent tier
//! instead of crashing it (DESIGN.md §5d).
//!
//! `failpoints::configure` is process-wide and its selector-less `err`
//! actions hit every thread, so a test that arms one sabotages any
//! sibling doing disk IO in the same process. These tests therefore
//! have a test target to themselves, and serialise among themselves.

mod common;

use common::{real_entries, Scratch, TWO_ROUTINES};
use dataflow::panostore::DiskCache;

#[test]
fn injected_write_error_degrades_tier_without_crashing() {
    let _guard = failpoints_serial::lock();
    let scratch = Scratch::new("errwrite");
    let entries = real_entries(TWO_ROUTINES);
    let disk = DiskCache::open(scratch.path(), None);
    // Every attempt fails: retries exhaust, the tier disables with a
    // structured reason and write_errors counts it.
    failpoints::configure("disk-write=err(disk is on fire)");
    disk.put_entry(&entries[0].0, &entries[0].1);
    failpoints::clear();
    let snap = disk.snapshot();
    assert_eq!(snap.write_errors, 1);
    let reason = snap.disabled.expect("tier disabled");
    assert!(reason.contains("disk is on fire"), "{reason}");
    // Disabled tier: all ops are no-ops, never panics.
    assert!(disk.get_entry(&entries[0].0).is_none());
    disk.put_entry(&entries[0].0, &entries[0].1);
    assert_eq!(disk.snapshot().write_errors, 1);
}

#[test]
fn transient_write_error_is_retried_to_success() {
    let _guard = failpoints_serial::lock();
    let scratch = Scratch::new("retry");
    let entries = real_entries(TWO_ROUTINES);
    let disk = DiskCache::open(scratch.path(), None);
    // Two injected failures, third attempt (last retry) succeeds.
    failpoints::configure("disk-write=2*err(transient)->off");
    disk.put_entry(&entries[0].0, &entries[0].1);
    failpoints::clear();
    let snap = disk.snapshot();
    assert_eq!(snap.write_errors, 0, "{snap:?}");
    assert_eq!(snap.disabled, None);
    assert!(disk.get_entry(&entries[0].0).is_some());
}

#[test]
fn injected_read_error_is_a_miss_not_a_crash() {
    let _guard = failpoints_serial::lock();
    let scratch = Scratch::new("errread");
    let entries = real_entries(TWO_ROUTINES);
    let disk = DiskCache::open(scratch.path(), None);
    disk.put_entry(&entries[0].0, &entries[0].1);
    failpoints::configure("disk-read=1*err(cosmic rays)->off");
    assert!(disk.get_entry(&entries[0].0).is_none(), "fault → miss");
    failpoints::clear();
    let snap = disk.snapshot();
    assert!(snap.disabled.is_none(), "read fault must not disable");
}

#[test]
fn injected_lock_error_disables_writes_soundly() {
    let _guard = failpoints_serial::lock();
    let scratch = Scratch::new("errlock");
    let entries = real_entries(TWO_ROUTINES);
    let disk = DiskCache::open(scratch.path(), None);
    failpoints::configure("disk-lock=err(lock file unreachable)");
    disk.put_entry(&entries[0].0, &entries[0].1);
    failpoints::clear();
    let snap = disk.snapshot();
    assert!(snap.disabled.is_some(), "{snap:?}");
    assert_eq!(snap.write_errors, 1);
}

/// Failpoint configuration is process-global; tests that arm it must
/// not interleave.
mod failpoints_serial {
    use std::sync::{Mutex, MutexGuard, PoisonError};

    static LOCK: Mutex<()> = Mutex::new(());

    pub fn lock() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
