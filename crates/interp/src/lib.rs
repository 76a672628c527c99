//! An interpreter and parallel runtime for the Fortran subset.
//!
//! This is the execution substrate for the paper's Table 1 speedup column.
//! The original measurements ran on an 8-processor Alliant FX/8, which we
//! do not have; instead (per the substitution policy in DESIGN.md §3) this
//! crate provides:
//!
//! * a **sequential interpreter** with deterministic operation counting,
//! * a **threaded parallel executor** that runs the planned DO loops'
//!   iterations across real threads, giving each thread private copies of
//!   the arrays/scalars the privatization analysis marked private —
//!   demonstrating that privatized execution is *correct* (bitwise equal
//!   to sequential) and measuring what it gains,
//! * a **P-processor simulation** that charges each iteration its counted
//!   operations and schedules chunks over `P` virtual processors, yielding
//!   deterministic speedup figures with the shape of the paper's.
//!
//! Parallel soundness contract: the caller passes a [`ParallelPlan`] that
//! must come from the privatization verdicts. Threads work on full memory
//! clones; after the loop, non-private arrays are merged by disjoint-write
//! diffing (valid because the analysis proved the absence of cross-
//! iteration output dependences) and private objects are copied out from
//! the final iteration when live.
//!
//! # When the executor forks
//!
//! Forking a loop instance creates and joins one OS thread per chunk, and
//! that pays only where the work handed out outweighs the threads. A
//! planned loop under a serial outer loop is reached many times with
//! little work each time (MDG `interf` under default options: 5 loops ×
//! 100 instances of 135–3 900 counted operations, on average 66 µs of
//! work against some 160 µs for a 2-thread fork), so
//! [`Machine::run_parallel`] decides per *instance*, from the
//! interpreter's own operation counts:
//!
//! * a loop's **first instance** in a run always forks — nothing is known
//!   about it yet, and every loop that runs once (the parallelized main
//!   loop of each Table 1 kernel) behaves as if there were no cut-off;
//! * when an instance ends, the run notes its counted operations ÷ trips;
//! * a **later instance** of `trips` iterations estimates its work
//!   `W = trips × ops-per-iteration` and forks iff the modelled threaded
//!   time `W/T + T × THREAD_COST_OPS` beats the serial `W`, with
//!   `T = min(nthreads, trips)`; otherwise it is **declined**: the
//!   ordinary sequential loop runs it on the calling thread (with nothing
//!   inside it forking either), which is the reference semantics every
//!   clause must preserve, and its operations refresh the note.
//!
//! [`THREAD_COST_OPS`] (2 048) is the one constant. It was measured, not
//! tuned: `cargo run --release --example parallel_speedup interf/1000
//! default` times the program serially and with every instance forked;
//! (forked − serial) ÷ 500 forks is what a fork costs beyond the work it
//! saves, 98–128 µs across runs on a shared 2-vCPU host; adding back the
//! W/2 ≈ 26–33 µs a fork does save, 2 threads cost 125–155 µs, 62–77 µs
//! each, 1 900–2 400 operations at the measured 31–33 ns per operation.
//! Break-even at 2 threads is `W > 8 192`; the repeated loops of the
//! evaluation programs do 135–3 900 operations per instance, so the
//! outcome does not hinge on the exact value. The decisions depend only
//! on the program, the plan and `nthreads` — no clock is read — so they
//! and every counter of [`ExecStats`] repeat exactly.
//!
//! A declined instance cannot expose a wrong clause, so the differential
//! suites run [`Machine::run_parallel_checked`]: the same executor with
//! the estimate skipped, forking every instance.

#![warn(missing_docs)]

mod error;
mod exec;
mod memory;
mod parallel;
mod trace;

pub use error::{ErrorKind, RuntimeError};
pub use exec::{ExecStats, Machine, DEFAULT_OP_BUDGET};
pub use memory::{ArrayData, ArrayStore, Memory, Value};
pub use parallel::{simulate_speedup, LoopPlan, ParallelPlan, SimResult, THREAD_COST_OPS};
pub use trace::{ArrayRaces, LoopTrace, RaceClass, RaceWitness};
