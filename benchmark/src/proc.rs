//! Child processes: one-shot `panorama` runs with their resource usage,
//! and a resident `panoramad` driven over its stdin/stdout NDJSON stream.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s and
/// fourteen `long`s. Only `ru_maxrss` and the two times are read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// `cpu_set_t` of glibc: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs this process may run on, and a way to hold the calling
/// thread on one of them for a while.
///
/// The vCPUs of the host this benchmark was built on go in and out of
/// a ~1.3x slower mode independently of each other, for seconds to tens
/// of seconds at a time (README, "Host noise"), so a single-threaded
/// measurement left to the scheduler can sit on a slow CPU for a whole
/// run. Before each unit of single-threaded work the harness therefore
/// times a short probe on every allowed CPU and runs the unit on the
/// one that answered fastest. The times it reports are still plain
/// measured times; only where they are taken is chosen. A child
/// process inherits the pin of the thread that spawns it.
pub struct Cpus {
    original: CpuSet,
    allowed: Vec<usize>,
}

impl Cpus {
    pub fn detect() -> Cpus {
        let mut original: CpuSet = [0; 16];
        // SAFETY: the kernel writes at most `size_of::<CpuSet>()` bytes
        // through the pointer, which points at a live local of exactly
        // that size; pid 0 means the calling thread.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut original) } == 0;
        let allowed = if ok {
            (0..1024)
                .filter(|c| original[c / 64] >> (c % 64) & 1 == 1)
                .collect()
        } else {
            Vec::new()
        };
        Cpus { original, allowed }
    }

    fn set(&self, mask: &CpuSet) -> bool {
        // SAFETY: the kernel reads `size_of::<CpuSet>()` bytes from the
        // pointer, which points at a live value of exactly that size;
        // pid 0 means the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) == 0 }
    }

    fn pin(&self, cpu: usize) -> bool {
        let mut mask: CpuSet = [0; 16];
        mask[cpu / 64] = 1 << (cpu % 64);
        self.set(&mask)
    }

    /// Holds the calling thread on `cpu` until the guard drops.
    pub fn pin_to(&self, cpu: usize) -> Pinned<'_> {
        let held = self
            .allowed
            .contains(&cpu)
            .then_some(cpu)
            .filter(|&c| self.pin(c));
        Pinned { cpus: self, held }
    }

    /// Holds the calling thread, until the guard drops, on the allowed
    /// CPU where `probe` currently runs fastest (best of two runs each:
    /// the first one after a migration warms the caches). Without
    /// permission to pin, or with one CPU, the thread stays where the
    /// scheduler puts it.
    pub fn pin_quietest(&self, probe: impl Fn()) -> Pinned<'_> {
        let mut best: Option<(Duration, usize)> = None;
        if self.allowed.len() > 1 {
            for &cpu in &self.allowed {
                if !self.pin(cpu) {
                    continue;
                }
                let took = (0..2)
                    .map(|_| {
                        let start = Instant::now();
                        probe();
                        start.elapsed()
                    })
                    .min()
                    .expect("two probes");
                if best.is_none_or(|(t, _)| took < t) {
                    best = Some((took, cpu));
                }
            }
        }
        let held = best.map(|(_, cpu)| cpu).filter(|&cpu| self.pin(cpu));
        if held.is_none() && best.is_some() {
            self.set(&self.original);
        }
        Pinned { cpus: self, held }
    }
}

/// Restores the thread's original CPU set on drop.
pub struct Pinned<'a> {
    cpus: &'a Cpus,
    held: Option<usize>,
}

impl Pinned<'_> {
    /// The CPU the thread is held on, if it could be pinned.
    pub fn cpu(&self) -> Option<usize> {
        self.held
    }
}

impl Drop for Pinned<'_> {
    fn drop(&mut self) {
        if self.held.is_some() {
            self.cpus.set(&self.cpus.original);
        }
    }
}

/// What one finished child cost.
#[derive(Clone, Copy, Debug)]
pub struct ChildUsage {
    pub exit_ok: bool,
    pub wall: Duration,
    pub max_rss_kb: u64,
}

/// Reaps `child` with `wait4`, which (unlike `Child::wait`) reports the
/// child's own peak RSS. `RUSAGE_CHILDREN` could not: it is a running
/// maximum over every child ever reaped, the daemon included.
fn reap(child: Child) -> io::Result<(bool, u64)> {
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    // SAFETY: `wait4` writes one `int` and one `struct rusage` through
    // the two pointers; both point at live, properly sized and aligned
    // locals (`Rusage` mirrors the 144-byte Linux LP64 layout). `pid`
    // is a child of this process that nothing else waits for: `child`
    // is consumed here and never waited through `std`.
    let got = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    if got != pid {
        return Err(io::Error::last_os_error());
    }
    // WIFEXITED && WEXITSTATUS == 0
    let exit_ok = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok((exit_ok, usage.maxrss.max(0) as u64))
}

/// Runs a command to completion, capturing stdout. Wall time runs from
/// just before the spawn to the reaped exit.
pub fn run_captured(cmd: &mut Command) -> io::Result<(ChildUsage, Vec<u8>)> {
    let start = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let mut out = Vec::new();
    child
        .stdout
        .take()
        .expect("stdout was piped")
        .read_to_end(&mut out)?;
    let (exit_ok, max_rss_kb) = reap(child)?;
    Ok((
        ChildUsage {
            exit_ok,
            wall: start.elapsed(),
            max_rss_kb,
        },
        out,
    ))
}

/// A helper process that starts the one-shot children and reports what
/// each cost.
///
/// Linux folds the resident set of the *spawning* process into a
/// child's `ru_maxrss` (at `exec` the old address space's high-water
/// mark is kept), so a child started from the harness, which holds
/// every analysis of the corpus, reports the harness's size, not its
/// own. The helper is this same executable in `--spawner` mode, started
/// before the harness has allocated anything: its couple of megabytes
/// are below any child's peak. It also pins itself to the CPU the
/// harness chose, so the child inherits the pin.
pub struct Spawner {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Spawner {
    pub fn start() -> io::Result<Spawner> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg("--spawner")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        Ok(Spawner {
            child,
            stdin,
            stdout,
        })
    }

    /// Runs `program args…` to completion on `cpu` (if given),
    /// capturing its stdout. No argument may contain a newline.
    pub fn run(
        &mut self,
        cpu: Option<usize>,
        program: &Path,
        args: &[String],
    ) -> io::Result<(ChildUsage, Vec<u8>)> {
        let stdin = self.stdin.as_mut().expect("open until drop");
        let cpu = cpu.map_or(-1, |c| c as i64);
        let mut request = format!("{cpu} {}\n{}\n", args.len() + 1, program.display());
        for a in args {
            request.push_str(a);
            request.push('\n');
        }
        stdin.write_all(request.as_bytes())?;
        stdin.flush()?;
        let mut header = String::new();
        self.stdout.read_line(&mut header)?;
        let fields: Vec<u64> = header
            .split_whitespace()
            .map(|f| f.parse().map_err(io::Error::other))
            .collect::<io::Result<_>>()?;
        let [exit_ok, wall_ns, max_rss_kb, len] = fields[..] else {
            return Err(io::Error::other(format!("spawner answered {header:?}")));
        };
        let mut out = vec![0; len as usize];
        self.stdout.read_exact(&mut out)?;
        let usage = ChildUsage {
            exit_ok: exit_ok == 1,
            wall: Duration::from_nanos(wall_ns),
            max_rss_kb,
        };
        Ok((usage, out))
    }
}

impl Drop for Spawner {
    /// Closing its stdin ends the helper; errors cannot be reported
    /// from here and change nothing.
    fn drop(&mut self) {
        drop(self.stdin.take());
        let _ = self.child.wait();
    }
}

/// The helper's loop (`panobench --spawner`): one request per child.
pub fn spawner_main() -> io::Result<()> {
    let cpus = Cpus::detect();
    let stdin = io::stdin();
    let mut input = stdin.lock();
    let mut output = io::stdout().lock();
    let mut line = String::new();
    loop {
        line.clear();
        if input.read_line(&mut line)? == 0 {
            return Ok(());
        }
        let bad = || io::Error::other("malformed spawner request");
        let mut head = line.split_whitespace();
        let cpu: i64 = head.next().and_then(|f| f.parse().ok()).ok_or_else(bad)?;
        let count: usize = head.next().and_then(|f| f.parse().ok()).ok_or_else(bad)?;
        let mut argv = Vec::with_capacity(count.min(64));
        for _ in 0..count {
            let mut arg = String::new();
            input.read_line(&mut arg)?;
            argv.push(arg.trim_end_matches('\n').to_string());
        }
        let (program, args) = argv.split_first().ok_or_else(bad)?;
        let pinned = usize::try_from(cpu).ok().map(|c| cpus.pin_to(c));
        let (usage, out) = run_captured(Command::new(program).args(args))?;
        drop(pinned);
        writeln!(
            output,
            "{} {} {} {}",
            u8::from(usage.exit_ok),
            usage.wall.as_nanos(),
            usage.max_rss_kb,
            out.len()
        )?;
        output.write_all(&out)?;
        output.flush()?;
    }
}

/// A field of `/proc/<pid>/status` in kB (`VmHWM`, `VmRSS`).
pub fn proc_status_kb(pid: u32, field: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// User + system CPU time of a live process, in milliseconds, from
/// `/proc/<pid>/stat` (clock ticks; Linux fixes `USER_HZ` at 100).
pub fn proc_cpu_ms(pid: u32) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name (field 2) is parenthesized and may hold spaces.
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3; utime and stime are fields 14 and 15.
    let ticks: u64 = fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
    Some(ticks as f64 * 10.0)
}

/// A resident `panoramad` child on one stdin/stdout stream.
pub struct DaemonProc {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    line: String,
}

impl DaemonProc {
    /// Spawns the daemon and waits for its first `{"cmd":"health"}` to
    /// come back ok.
    pub fn spawn(bin: &Path, args: &[String]) -> io::Result<DaemonProc> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut d = DaemonProc {
            child,
            stdin,
            stdout,
            line: String::new(),
        };
        d.send("{\"id\":\"ready\",\"cmd\":\"health\"}")?;
        let reply = d.recv()?;
        if !reply.contains("\"ok\":true") && !reply.contains("\"ok\": true") {
            return Err(io::Error::other(format!("health probe failed: {reply}")));
        }
        Ok(d)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends one request line.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.stdin.write_all(line.as_bytes())?;
        self.stdin.write_all(b"\n")?;
        self.stdin.flush()
    }

    /// Receives the next response line (without its newline).
    pub fn recv(&mut self) -> io::Result<&str> {
        self.line.clear();
        if self.stdout.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "panoramad closed its stdout",
            ));
        }
        Ok(self.line.trim_end_matches('\n'))
    }

    /// Peak resident set of the daemon so far.
    pub fn peak_rss_kb(&self) -> Option<u64> {
        proc_status_kb(self.pid(), "VmHWM")
    }

    pub fn cpu_ms(&self) -> Option<f64> {
        proc_cpu_ms(self.pid())
    }

    /// Closes the stream (the daemon exits at EOF) and waits for it.
    pub fn shutdown(self) -> io::Result<bool> {
        let DaemonProc {
            mut child,
            stdin,
            stdout,
            ..
        } = self;
        drop(stdin);
        drop(stdout);
        Ok(child.wait()?.success())
    }
}

/// The release binaries the benchmark drives.
pub struct Binaries {
    pub panorama: PathBuf,
    pub panoramad: PathBuf,
    pub trace_check: PathBuf,
}

impl Binaries {
    pub fn in_dir(dir: &Path) -> Result<Binaries, String> {
        let find = |name: &str| -> Result<PathBuf, String> {
            let p = dir.join(name);
            if p.is_file() {
                Ok(p)
            } else {
                Err(format!(
                    "{} is missing: build it first (run.sh does)",
                    p.display()
                ))
            }
        };
        Ok(Binaries {
            panorama: find("panorama")?,
            panoramad: find("panoramad")?,
            trace_check: find("trace_check")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn captures_output_exit_status_and_rss() {
        let (usage, out) = run_captured(Command::new("sh").args(["-c", "echo hello"])).unwrap();
        assert!(usage.exit_ok);
        assert_eq!(out, b"hello\n");
        assert!(usage.max_rss_kb > 100, "{}", usage.max_rss_kb);
        assert!(usage.wall > Duration::ZERO);
        let (usage, _) = run_captured(Command::new("sh").args(["-c", "exit 3"])).unwrap();
        assert!(!usage.exit_ok);
        let (usage, _) = run_captured(Command::new("sh").args(["-c", "kill -9 $$"])).unwrap();
        assert!(!usage.exit_ok);
    }

    #[test]
    fn pinning_holds_one_cpu_and_is_undone() {
        let cpus = Cpus::detect();
        let before = Cpus::detect().allowed;
        assert!(!before.is_empty());
        for _ in 0..3 {
            let pinned = cpus.pin_quietest(|| {
                std::hint::black_box((0..1000u64).sum::<u64>());
            });
            if before.len() > 1 {
                assert_eq!(Cpus::detect().allowed.len(), 1);
            }
            drop(pinned);
            assert_eq!(Cpus::detect().allowed, before);
        }
    }

    #[test]
    fn reads_own_proc_entries() {
        let me = std::process::id();
        assert!(proc_status_kb(me, "VmHWM").unwrap() > 100);
        assert!(proc_cpu_ms(me).is_some());
        assert!(proc_status_kb(me, "NoSuchField").is_none());
    }
}
