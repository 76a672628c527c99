//! A fail-rs-style fault-injection shim.
//!
//! Production code places named *sites* with [`fail_point`]; by default a
//! site is a single relaxed atomic load and returns immediately. Sites
//! come alive in two ways:
//!
//! * the `FAILPOINTS` environment variable, read once — the mechanism CI
//!   uses to run whole test binaries under injection;
//! * [`configure`] / [`clear`], which take precedence over the
//!   environment — the mechanism tests use to inject for one scope.
//!
//! Both are **process-wide on purpose** (CI arms whole binaries through
//! the environment, and daemon requests run on worker threads the
//! arming thread never sees): an action without a selector fires on
//! every thread that reaches the site. A test that calls [`configure`]
//! therefore sabotages any sibling test touching the same site in the
//! same process — give such tests a selector no sibling matches, or a
//! test target of their own in which every test takes one lock
//! (`crates/dataflow/tests/panostore_faults.rs`,
//! `crates/server/tests/{fault_injection,disk_cache}.rs`).
//!
//! The spec grammar matches fail-rs closely:
//!
//! ```text
//! spec    := site "=" actions (";" site "=" actions)*
//! actions := action ("->" action)*
//! action  := [count "*"] kind
//! kind    := "off" | "panic" | "panic(" selector ")" | "sleep(" millis ")"
//!          | "err" | "err(" message ")"
//! ```
//!
//! An action with a `count` fires that many times before the chain
//! advances to the next action (a bare action repeats forever). A
//! `panic(selector)` only fires when the site's *argument* — a
//! caller-chosen string such as the source text being analyzed —
//! contains the selector, which lets a test target one request out of
//! many. Evaluations that don't match the selector do not consume the
//! action's count.
//!
//! The `err` kind only has an effect at [`fail_point_io`] sites, where
//! it returns an injected [`std::io::Error`]; plain [`fail_point`]
//! sites treat it as `off`. This lets IO fault matrices exercise error
//! paths (short read, failed fsync, lost lock) without a real failing
//! disk.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Fast-path gate: when false, [`fail_point`] is one atomic load.
static ACTIVE: AtomicBool = AtomicBool::new(false);

static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();

#[derive(Default)]
struct Registry {
    /// Programmatic configuration (wins over the environment).
    programmatic: Option<Vec<Site>>,
    /// Parsed `FAILPOINTS` environment configuration.
    env: Option<Vec<Site>>,
    env_loaded: bool,
}

struct Site {
    name: String,
    /// The remaining action chain; the head is the current action.
    actions: Vec<Action>,
}

#[derive(Clone, Debug, PartialEq)]
struct Action {
    kind: Kind,
    /// Remaining firings before the chain advances (`None` = forever).
    remaining: Option<u64>,
}

#[derive(Clone, Debug, PartialEq)]
enum Kind {
    Off,
    Panic(Option<String>),
    Sleep(u64),
    /// Inject an `io::Error` at a [`fail_point_io`] site (no-op at a
    /// plain [`fail_point`] site). The optional message becomes the
    /// error's display text.
    Err(Option<String>),
}

fn registry() -> &'static Mutex<Registry> {
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

fn lock() -> std::sync::MutexGuard<'static, Registry> {
    // A panic() action unwinding through a fail point poisons this lock
    // by design; recover so later sites keep working.
    registry().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Parses a spec string into sites. Unknown action kinds are errors so
/// typos in CI matrices fail loudly.
fn parse_spec(spec: &str) -> Result<Vec<Site>, String> {
    let mut sites = Vec::new();
    for part in spec.split(';') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (name, actions) = part
            .split_once('=')
            .ok_or_else(|| format!("failpoints: missing '=' in {part:?}"))?;
        let mut chain = Vec::new();
        for a in actions.split("->") {
            chain.push(parse_action(a.trim())?);
        }
        sites.push(Site {
            name: name.trim().to_string(),
            actions: chain,
        });
    }
    Ok(sites)
}

fn parse_action(a: &str) -> Result<Action, String> {
    let (count, kind_str) = match a.split_once('*') {
        Some((n, rest)) => {
            let n: u64 = n
                .trim()
                .parse()
                .map_err(|_| format!("failpoints: bad count in {a:?}"))?;
            (Some(n), rest.trim())
        }
        None => (None, a),
    };
    let kind = if kind_str == "off" {
        Kind::Off
    } else if kind_str == "panic" {
        Kind::Panic(None)
    } else if let Some(sel) = kind_str
        .strip_prefix("panic(")
        .and_then(|s| s.strip_suffix(')'))
    {
        Kind::Panic(Some(sel.to_string()))
    } else if let Some(ms) = kind_str
        .strip_prefix("sleep(")
        .and_then(|s| s.strip_suffix(')'))
    {
        let ms: u64 = ms
            .trim()
            .parse()
            .map_err(|_| format!("failpoints: bad sleep millis in {a:?}"))?;
        Kind::Sleep(ms)
    } else if kind_str == "err" {
        Kind::Err(None)
    } else if let Some(msg) = kind_str
        .strip_prefix("err(")
        .and_then(|s| s.strip_suffix(')'))
    {
        Kind::Err(Some(msg.to_string()))
    } else {
        return Err(format!("failpoints: unknown action {kind_str:?}"));
    };
    Ok(Action {
        kind,
        remaining: count,
    })
}

/// Installs a programmatic configuration (taking precedence over the
/// `FAILPOINTS` environment variable) until [`clear`] is called.
/// Panics on a malformed spec — a test that misconfigures its own
/// injection should fail, not silently run clean.
pub fn configure(spec: &str) {
    let sites = parse_spec(spec).unwrap_or_else(|e| panic!("{e}"));
    let mut reg = lock();
    reg.programmatic = Some(sites);
    ACTIVE.store(true, Ordering::Release);
}

/// Removes the programmatic configuration. The environment
/// configuration, if any, becomes visible again.
pub fn clear() {
    let mut reg = lock();
    reg.programmatic = None;
    let env_live = reg.env.as_ref().is_some_and(|s| !s.is_empty());
    ACTIVE.store(env_live, Ordering::Release);
}

/// Whether `FAILPOINTS` was set in the environment (tests use this to
/// skip programmatic scenarios during an env-driven CI matrix run).
pub fn env_active() -> bool {
    ensure_env_loaded();
    lock().env.as_ref().is_some_and(|s| !s.is_empty())
}

fn ensure_env_loaded() {
    let mut reg = lock();
    if reg.env_loaded {
        return;
    }
    reg.env_loaded = true;
    if let Ok(spec) = std::env::var("FAILPOINTS") {
        match parse_spec(&spec) {
            Ok(sites) => {
                let live = !sites.is_empty();
                reg.env = Some(sites);
                if live {
                    ACTIVE.store(true, Ordering::Release);
                }
            }
            Err(e) => eprintln!("{e} (FAILPOINTS ignored)"),
        }
    }
}

/// Evaluates a site: fast-path gate, site lookup, selector matching,
/// count consumption. Returns the kind to act on, or `None` when the
/// site is inactive.
fn evaluate(name: &str, arg: &str) -> Option<Kind> {
    if !ACTIVE.load(Ordering::Acquire) {
        // One-time: activation via env happens lazily on the first call
        // after the process set ACTIVE through configure(); env-only
        // processes activate here.
        static ENV_CHECKED: AtomicBool = AtomicBool::new(false);
        if ENV_CHECKED.swap(true, Ordering::AcqRel) {
            return None;
        }
        ensure_env_loaded();
        if !ACTIVE.load(Ordering::Acquire) {
            return None;
        }
    }
    let mut reg = lock();
    ensure_env_loaded_in(&mut reg);
    let reg = &mut *reg;
    let sites = match reg.programmatic.as_mut() {
        Some(p) => p,
        None => reg.env.as_mut()?,
    };
    let site = sites.iter_mut().find(|s| s.name == name)?;
    let head = site.actions.first_mut()?;
    // Selector mismatch: the site stays armed, nothing consumed.
    if let Kind::Panic(Some(sel)) = &head.kind {
        if !arg.contains(sel.as_str()) {
            return None;
        }
    }
    let kind = head.kind.clone();
    if let Some(n) = &mut head.remaining {
        *n -= 1;
        if *n == 0 {
            site.actions.remove(0);
        }
    }
    Some(kind)
}

/// A named injection site. `arg` is caller-chosen context (the source
/// text, a routine name, …) matched against `panic(selector)` actions.
/// Inactive sites cost one atomic load. `err` actions are no-ops here —
/// a plain site has no error channel to return them through.
pub fn fail_point(name: &str, arg: &str) {
    match evaluate(name, arg) {
        None | Some(Kind::Off) | Some(Kind::Err(_)) => {}
        Some(Kind::Sleep(ms)) => std::thread::sleep(std::time::Duration::from_millis(ms)),
        Some(Kind::Panic(_)) => panic!("failpoint {name:?} triggered"),
    }
}

/// A named injection site on an IO path. Behaves like [`fail_point`],
/// and additionally turns an `err` / `err(message)` action into an
/// injected [`std::io::Error`] (`ErrorKind::Other`) for the caller to
/// propagate. Inactive sites cost one atomic load and return `Ok(())`.
pub fn fail_point_io(name: &str, arg: &str) -> std::io::Result<()> {
    match evaluate(name, arg) {
        None | Some(Kind::Off) => Ok(()),
        Some(Kind::Sleep(ms)) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            Ok(())
        }
        Some(Kind::Panic(_)) => panic!("failpoint {name:?} triggered"),
        Some(Kind::Err(msg)) => {
            Err(std::io::Error::other(msg.unwrap_or_else(|| {
                format!("injected IO failure at failpoint {name:?}")
            })))
        }
    }
}

fn ensure_env_loaded_in(reg: &mut Registry) {
    if !reg.env_loaded {
        reg.env_loaded = true;
        if let Ok(spec) = std::env::var("FAILPOINTS") {
            if let Ok(sites) = parse_spec(&spec) {
                reg.env = Some(sites);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Global state: every test serializes on this lock.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn inactive_site_is_a_no_op() {
        let _g = guard();
        clear();
        fail_point("nothing-configured", "");
    }

    #[test]
    fn panic_action_fires_and_count_expires() {
        let _g = guard();
        configure("boom=1*panic->off");
        let r = std::panic::catch_unwind(|| fail_point("boom", ""));
        assert!(r.is_err());
        // Count exhausted: the chain advanced to `off`.
        fail_point("boom", "");
        clear();
    }

    #[test]
    fn selector_gates_panic() {
        let _g = guard();
        configure("sel=1*panic(needle)");
        fail_point("sel", "nothing to see");
        // Non-matching calls must not consume the count.
        let r = std::panic::catch_unwind(|| fail_point("sel", "hay needle stack"));
        assert!(r.is_err());
        clear();
    }

    #[test]
    fn sleep_action_sleeps() {
        let _g = guard();
        configure("zzz=sleep(20)");
        let t0 = std::time::Instant::now();
        fail_point("zzz", "");
        assert!(t0.elapsed() >= std::time::Duration::from_millis(15));
        clear();
    }

    #[test]
    fn malformed_spec_panics() {
        let _g = guard();
        let r = std::panic::catch_unwind(|| configure("site=explode"));
        assert!(r.is_err());
        clear();
    }

    #[test]
    fn err_action_injects_io_error_with_message() {
        let _g = guard();
        configure("disk=1*err(no space left)->off");
        let e = fail_point_io("disk", "").unwrap_err();
        assert_eq!(e.to_string(), "no space left");
        // Count exhausted: the chain advanced to `off`.
        assert!(fail_point_io("disk", "").is_ok());
        clear();
    }

    #[test]
    fn err_action_is_inert_at_plain_sites() {
        let _g = guard();
        configure("disk=err");
        fail_point("disk", ""); // must not panic or sleep
        assert!(fail_point_io("disk", "").is_err());
        clear();
    }

    #[test]
    fn io_site_honors_panic_and_retry_chains() {
        let _g = guard();
        configure("w=2*err->off");
        assert!(fail_point_io("w", "").is_err());
        assert!(fail_point_io("w", "").is_err());
        // Third attempt (a retry loop) succeeds.
        assert!(fail_point_io("w", "").is_ok());
        clear();
    }

    #[test]
    fn sequences_advance_in_order() {
        let _g = guard();
        configure("seq=2*off->1*panic");
        fail_point("seq", "");
        fail_point("seq", "");
        let r = std::panic::catch_unwind(|| fail_point("seq", ""));
        assert!(r.is_err());
        // Chain fully consumed.
        fail_point("seq", "");
        clear();
    }
}
