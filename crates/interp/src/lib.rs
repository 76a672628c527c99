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
//! # Resolve once, then run
//!
//! [`Machine::new`] lowers every routine once into a resolved form, and
//! every entry point — [`Machine::run`], `run_hooked`, `run_traced(_at)`,
//! `run_parallel(_checked)` and [`simulate_speedup`] — executes that form;
//! no name is looked up while a program runs. Scalars are dense slots of a
//! frame's value vector and arrays `(handle, dims)` slots, both numbered
//! in name order; intrinsics are an enum, CALL targets routine indices,
//! GOTO targets per-block label tables and DO statements dense loop ids.
//! A run resolves its [`ParallelPlan`] or hook to loop ids, and each
//! [`LoopPlan`]'s names to slots, before it starts.
//!
//! Counting is unchanged: [`ExecStats::ops`] charges one operation per
//! statement and per expression node, exactly as a walk of the syntax tree
//! would. A PARAMETER, or any subtree whose operands are constants, is
//! folded into one constant that carries its exact charge — 1 for the
//! reference plus what its definition's nodes cost — so the fork cut-off,
//! the op budget and [`simulate_speedup`] see the same counts.
//!
//! Lowering never fails, and every failure stays a run-time error raised
//! where execution reaches it — an unknown routine or intrinsic, an
//! unbound scalar, a subscript out of bounds, the budget, a division by
//! zero even inside a PARAMETER — because a program may never execute the
//! statement that would fail. Known gaps stay as they are: COMMON scalars
//! are per-activation and EQUIVALENCE is not modelled.
//!
//! # When the executor forks
//!
//! Forking a loop instance creates and joins one OS thread per chunk, and
//! that pays only where the work handed out outweighs the threads. A
//! planned loop under a serial outer loop is reached many times with
//! little work each time (MDG `interf` under default options: 5 loops ×
//! 100 instances of 135–3 900 counted operations, on average 14 µs of
//! work against some 50 µs for a 2-thread fork), so
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
//! [`THREAD_COST_OPS`] (4 096) is the one constant. It was measured, not
//! tuned: `cargo run --release --example parallel_speedup interf/1000
//! default` times the program serially and with every instance forked;
//! (forked − serial) ÷ 500 forks is what a fork costs beyond the work it
//! saves, 43–48 µs across runs on a 2-vCPU host; adding back the W/2 ≈
//! 7 µs a fork does save (1 887 operations per instance on average), 2
//! threads cost 50–55 µs, 25–28 µs each, 3 400–3 800 operations at the
//! measured 7.3–7.4 ns per operation. (The constant was 2 048 when an
//! operation cost 31–33 ns: a thread costs about the same time, and more
//! of the cheaper operations.) Break-even at 2 threads is `W > 16 384`;
//! the repeated loops of the evaluation programs do 135–3 900 operations
//! per instance, so the outcome does not hinge on the exact value. The
//! decisions depend only on the program, the plan and `nthreads` — no
//! clock is read — so they and every counter of [`ExecStats`] repeat
//! exactly.
//!
//! A declined instance cannot expose a wrong clause, so the differential
//! suites run [`Machine::run_parallel_checked`]: the same executor with
//! the estimate skipped, forking every instance.

#![warn(missing_docs)]

mod error;
mod exec;
mod lower;
mod memory;
mod parallel;
mod trace;

pub use error::{ErrorKind, RuntimeError};
pub use exec::{ExecStats, Machine, DEFAULT_OP_BUDGET};
pub use memory::{ArrayData, ArrayStore, Memory, Value, MAX_ARENA_BYTES};
pub use parallel::{simulate_speedup, LoopPlan, ParallelPlan, SimResult, THREAD_COST_OPS};
pub use trace::{ArrayRaces, LoopTrace, RaceClass, RaceWitness};
