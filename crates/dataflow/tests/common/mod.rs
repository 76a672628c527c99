//! Helpers shared by the panostore test targets.

use dataflow::cache::{CacheKey, MemoryCache, SummaryCache};
use dataflow::{Analyzer, Options};
use fortran::{analyze, parse_program};
use hsg::build_hsg;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A unique scratch directory, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Scratch {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("panostore-test-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Scratch(dir)
    }

    pub fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

pub const TWO_ROUTINES: &str = "
      PROGRAM main
      REAL a(100), b(100)
      INTEGER i, m
      m = 40
      DO i = 1, m
        CALL fill(a, b, i, m)
      ENDDO
      END
      SUBROUTINE fill(x, y, j, n)
      REAL x(100), y(100)
      INTEGER j, n, k
      DO k = 1, n
        IF (k .LT. j) THEN
          x(k) = y(k) + 1.0
        ENDIF
        y(k) = x(k) * 2.0
      ENDDO
      END
";

/// Runs a full analysis with the given cache, returning it warm.
pub fn analyze_into(cache: Arc<dyn SummaryCache>, src: &str) {
    let program = parse_program(src).expect("parse");
    let sema = analyze(&program).expect("sema");
    let hsg = build_hsg(&program).expect("hsg");
    let mut az = Analyzer::with_cache(&program, &sema, &hsg, Options::default(), Some(cache));
    az.run();
}

/// Real entries from a cold analysis, via the memory tier.
pub fn real_entries(src: &str) -> Vec<(CacheKey, Arc<dataflow::CachedRoutine>)> {
    let mem = Arc::new(MemoryCache::new());
    analyze_into(mem.clone(), src);
    let entries = mem.entries();
    assert!(!entries.is_empty(), "analysis produced no cache entries");
    entries
}
