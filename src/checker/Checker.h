//===- checker/Checker.h - Systematic testing of P programs ----------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The systematic-testing verifier of Section 5 (the paper interprets
/// the semantics inside the Zing model checker; this is our from-scratch
/// equivalent). Both sources of nondeterminism are enumerated: explicit
/// `*` choices in ghost machines and the implicit scheduling choice, at
/// the reduced set of scheduling points (after `send` and `new`).
///
/// Two strategies:
///
///  * DelayBounded — the paper's novel delaying scheduler. A stack S of
///    machine ids; the top of S always runs; `new` pushes the child on
///    top; a send to a machine outside S pushes it on top (so the
///    receiver of an event runs next — the causal order of events);
///    blocked or terminated machines pop. A *delay* moves the top to the
///    bottom of S at a cost of 1 against the delay budget d. With d = 0
///    the explored real execution is exactly the one the runtime
///    produces (Section 5's claim, verified by our tests); as d → ∞ all
///    schedules are covered.
///
///  * DepthBounded — plain DFS over all enabled machines at every
///    scheduling point, cut off at a depth bound (the classical approach
///    the paper compares against). It explores exactly the
///    configurations reachable within the bound: a configuration met
///    again at a shallower depth than before is explored again, since
///    the earlier visit had fewer slices left before the cut. That
///    keeps the explored set independent of visit order and worker
///    count, at the price of repeat work when the bound is far deeper
///    than the search needs.
///
/// Errors detected: the four error transitions of Figure 6 (assertion
/// failure, send to ⊥, send to a deleted machine, unhandled event) plus
/// the documented extension kinds in runtime/Errors.h.
///
//===----------------------------------------------------------------------===//

#ifndef P_CHECKER_CHECKER_H
#define P_CHECKER_CHECKER_H

#include "fault/Fault.h"
#include "obs/Profile.h"
#include "pir/Program.h"
#include "runtime/Errors.h"
#include "runtime/Executor.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace p {

namespace obs {
class TraceRecorder;
class MetricsRegistry;
} // namespace obs

/// Exploration strategy.
enum class SearchStrategy {
  DelayBounded,
  DepthBounded,
};

struct CheckStats;

/// How the visited set stores explored states (see DESIGN.md "State
/// representation" for the trade-offs).
enum class VisitedMode : uint8_t {
  /// Key on the full canonical serialization: exact dedup, highest
  /// memory cost. The oracle mode.
  Exact,
  /// Key on 64-bit fingerprints (the default): exact modulo 64-bit
  /// collisions, one 16-byte slot per explored node (configuration
  /// hash, node tag, budget) in a growable lock-striped open-addressing
  /// table (checker/VisitedTable.h). Deterministic across worker counts
  /// like Exact.
  Fingerprint,
  /// SPIN-style hash compaction: the same table with a fixed size,
  /// bounded by CheckOptions::VisitedCapBytes. When the table saturates
  /// (a probe sequence finds no free slot) the state is treated as
  /// visited and CheckStats::OmissionPossible is set — the search stays
  /// sound for reported errors but may omit states, so "no error found"
  /// is no longer a proof. Trades a quantified miss probability for
  /// order-of-magnitude memory capacity.
  Compact,
};

/// Search-space reduction on top of the delaying scheduler (see
/// DESIGN.md "Reduction"). Opt-in: Off explores exactly what the PR-4
/// checker explored, bit-identical across worker counts.
enum class Reduction : uint8_t {
  /// No reduction (the default; the determinism-contract baseline).
  Off,
  /// Machine-symmetry canonicalization: instances of machine types
  /// declared `symmetric` are folded into a canonical permutation
  /// before visited-set lookup (values of machine type are renamed
  /// consistently, which is a bisimulation — ids are opaque in P).
  /// Nodes pruned as permuted images of an explored representative are
  /// counted in CheckStats::SymmetryCollapsed. Search nodes themselves
  /// stay in the original id space, so counterexample traces always
  /// name concrete machines.
  Symmetry,
};

/// Stable lower-case name of a Reduction value, as used by the bench
/// `--reduction` flags and the JSON reports.
inline const char *reductionName(Reduction R) {
  switch (R) {
  case Reduction::Off:
    return "off";
  case Reduction::Symmetry:
    return "symmetry";
  }
  return "?";
}

/// The valid `--reduction` values, as the flag's help text lists them.
inline constexpr char ReductionChoices[] = "off|symmetry";

/// Stable lower-case name of a VisitedMode value, as used by the
/// `--visited-mode` flags and the JSON reports.
const char *visitedModeName(VisitedMode M);

/// Parses a `--visited-mode` flag value; false when \p Name is not one
/// of exact|fingerprint|compact (\p Out is untouched).
bool parseVisitedMode(const char *Name, VisitedMode &Out);

/// Options controlling one check() run.
struct CheckOptions {
  SearchStrategy Strategy = SearchStrategy::DelayBounded;
  /// Delay budget d (DelayBounded).
  int DelayBound = 0;
  /// Maximum scheduled slices along a path (DepthBounded); also a
  /// safety cap for DelayBounded paths.
  int DepthBound = 100000;
  /// Stop after this many search nodes (0 = unlimited).
  uint64_t MaxNodes = 0;
  /// Execute foreign-function model bodies (the verification build).
  bool UseModelBodies = true;
  /// Stop at the first error (otherwise keep exploring and count).
  bool StopOnFirstError = true;
  /// Visited-set representation; see VisitedMode.
  VisitedMode Visited = VisitedMode::Fingerprint;
  /// Compact mode only: byte budget of the visited table (rounded down
  /// to whole slots). 0 picks a 64 MiB default.
  uint64_t VisitedCapBytes = 0;
  /// Debug: the oracle for every cache the search keeps. On every node,
  /// cross-check the incremental (cached) config hash against a
  /// cache-oblivious recomputation from the full serialization; and
  /// interpret every slice-memo hit again on a copy, comparing the
  /// machines, the error fields, OverflowDropped and the StepResult.
  /// Mismatches are counted in CheckStats::HashMismatches and indicate
  /// a missing CowMachine::mut() call or a slice the memo must not
  /// reuse. Also enabled by setting the P_VERIFY_HASHES environment
  /// variable.
  bool VerifyHashes = false;
  /// Micro-step budget per slice before the divergence error fires.
  uint64_t MaxStepsPerSlice = 100000;
  /// Record the fingerprints of quiescent (terminal) configurations in
  /// CheckResult::TerminalHashes; used by the d = 0 ≡ runtime tests.
  bool CollectTerminals = false;
  /// Collect structural coverage (which P states were reached and which
  /// (state, event) dispatches fired) into CheckResult::Coverage.
  bool TrackCoverage = false;
  /// Search profiler (see obs/Profile.h): attribute nodes, states,
  /// slice time, and reduction savings to machine types, into
  /// CheckResult::Profile. An observer like tracing: off (the default)
  /// leaves CheckStats bit-identical and costs one predictable branch
  /// per hook; on adds a steady_clock read around each slice, so the
  /// *timing* fields perturb wall-clock slightly while every counter
  /// stays exact.
  bool Profile = false;
  /// Exploration workers. 1 (the default) runs the classic serial DFS on
  /// the calling thread; 0 asks for std::thread::hardware_concurrency();
  /// N > 1 spawns N workers, each with its own Executor and DFS stack,
  /// sharing a sharded visited table and a work-stealing frontier.
  /// On exhausted searches ErrorFound, Error, DistinctStates, Terminals
  /// and TerminalHashes-as-a-set are worker-count-independent; see
  /// DESIGN.md "Parallel exploration" for the determinism contract.
  int Workers = 1;
  /// Structured event tracing (see obs/Trace.h). When set, every worker
  /// opens a sink on this recorder and records send/dequeue/raise/new/
  /// state/slice/delay/error events as it explores. Tracing is an
  /// observer: it must not (and does not) change what is explored —
  /// DistinctStates/Terminals stay bit-identical with tracing on or
  /// off (covered by the obs determinism test). nullptr disables all
  /// recording at the cost of one predictable branch per hook.
  obs::TraceRecorder *Trace = nullptr;
  /// Metrics registry (see obs/Metrics.h). When set, check() fills
  /// p_check_* counters/gauges on completion and observes the
  /// frontier-depth distribution per expanded node during the run.
  obs::MetricsRegistry *Metrics = nullptr;
  /// Live progress: when > 0 and Progress is set, a snapshot of the
  /// running CheckStats is delivered about every this-many seconds
  /// (from worker 0's loop; Seconds is the elapsed wall time, counters
  /// are relaxed-atomic reads — exact in serial runs, slightly stale
  /// across workers). The callback must not re-enter check().
  double ProgressIntervalSeconds = 0;
  std::function<void(const CheckStats &)> Progress;
  /// Bounded-fault exploration (see fault/Fault.h and DESIGN.md "Fault
  /// model"): with Faults.Budget = k the checker additionally explores
  /// up to k environment faults — dropped events, duplicated events,
  /// machine crashes, failed foreign calls — per path, exactly as the
  /// delaying scheduler explores up to d delays. Budget 0 (the default)
  /// explores no faults and leaves every result bit-identical to a
  /// checker without the fault layer.
  FaultSpec Faults;
  /// Per-machine queue bound for explored configurations; 0 (default)
  /// = unbounded, matching the paper. Copied into the root Config, so
  /// overflow behaves per OverflowPolicy during exploration.
  uint32_t MaxQueue = 0;
  OverflowPolicy Overflow = OverflowPolicy::Error;
  /// Search-space reduction (see Reduction). Off is bit-identical to a
  /// checker without the reduction layer; Symmetry composes with every
  /// visited mode, fault budget, and worker count, and keeps error
  /// verdicts identical to the unreduced search (the differential suite
  /// in tests/reduction_test.cpp pins this).
  Reduction Reduce = Reduction::Off;
  /// Crash safety (see checker/Checkpoint.h and DESIGN.md "Checkpoint &
  /// resume"). When non-empty, the search periodically snapshots its
  /// frontier, visited tables, and counters to this path (atomically:
  /// temp + fsync + rename), and writes a final snapshot when it stops
  /// for any reason — completion, MaxNodes, or interruption. A later run
  /// with Resume set picks the search up where it left off; on
  /// exhausted searches the resumed run's DistinctStates / Terminals /
  /// TerminalHashes are bit-identical to an uninterrupted run.
  std::string CheckpointPath;
  /// Seconds between periodic checkpoints (0 = final-only). Fractional
  /// values work; the timer is polled from worker 0's loop.
  double CheckpointIntervalSeconds = 0;
  /// Start from the checkpoint at CheckpointPath instead of the initial
  /// configuration. A missing, truncated, corrupted, version-skewed, or
  /// wrong-program checkpoint fails the run with
  /// CheckResult::ResumeError — it is never silently ignored.
  bool Resume = false;
  /// Cooperative interruption: when set, worker 0 polls this flag (see
  /// support/Interrupt.h for the SIGINT/SIGTERM wiring). Once true the
  /// search stops draining its frontier, joins its workers, writes a
  /// final checkpoint if CheckpointPath is set, and returns with
  /// CheckStats::Interrupted (and Exhausted = false).
  const std::atomic<bool> *InterruptFlag = nullptr;
  /// Out-of-core frontier (see checker/FrontierStore.h): when > 0 and
  /// the in-memory frontier's estimated footprint exceeds this many
  /// bytes, cold nodes (the oldest — breadth a DFS will not revisit
  /// soon) are spilled to segment files under SpillDir and reloaded when
  /// workers run dry. 0 disables spilling.
  uint64_t FrontierMemLimitBytes = 0;
  /// Directory for frontier spill segments. Empty = alongside
  /// CheckpointPath when set, else the system temp directory.
  std::string SpillDir;
};

/// One scheduling decision of an explored path. A sequence of these is
/// a *schedule*: deterministic, machine-replayable evidence (see
/// checker/Replay.h). Counterexamples carry their schedule so a failure
/// can be re-executed and debugged outside the search.
struct SchedDecision {
  enum class Kind : uint8_t {
    Run,    ///< Run Machine for one slice.
    Delay,  ///< Spend one delay (move the top of S to the bottom).
    Choose, ///< Resolve the pending `*` of the last-run machine.
    // Fault decisions (explored only when CheckOptions::Faults has a
    // budget; each costs 1 against it). Their enumerator order defines
    // the lexicographic tie-break of the parallel determinism contract,
    // so new kinds go at the end.
    DropEvent,    ///< Drop Machine's queue entry at index Aux.
    DupEvent,     ///< Append a second copy of Machine's queue entry at
                  ///< index Aux (the network delivered twice; the copy
                  ///< bypasses the ⊎ send-side guard by design).
    Crash,        ///< Crash Machine (MachineState::Crashed).
    ForeignFault, ///< Resolve the pending foreign call of the last-run
                  ///< machine: Choice=true fails it (⊥), false runs it.
  };
  Kind K = Kind::Run;
  int32_t Machine = -1; ///< Run: the machine sliced; Delay: the machine
                        ///< moved to the bottom of S (trace rendering);
                        ///< fault kinds: the machine acted on.
  bool Choice = false;  ///< Choose / ForeignFault.
  int32_t Aux = -1;     ///< DropEvent/DupEvent: queue index.
};

/// One decision as one word (never ~0), for the search's trace log:
/// kind, choice bit, and Machine and Aux offset by one into 30 bits
/// each. An id outside [-1, 2^30 - 2] aborts with a message.
uint64_t packDecision(const SchedDecision &D);
SchedDecision unpackDecision(uint64_t Word);

/// Structural coverage of one exploration: how much of each machine's
/// static state/transition structure the schedules exercised. A low
/// transition percentage after an exhaustive search usually means dead
/// handlers (events that can never arrive in that state).
struct CoverageReport {
  struct MachineCoverage {
    /// States that appeared on some reachable call stack.
    std::set<int32_t> StatesVisited;
    /// (state, event) pairs dispatched with a Step/Call/Action
    /// resolution.
    std::set<std::pair<int32_t, int32_t>> TransitionsFired;
  };
  std::vector<MachineCoverage> Machines; ///< Indexed by machine type.

  /// Adds everything \p From covered.
  void merge(const CoverageReport &From);
  /// Renders a per-machine "states X/Y, transitions A/B" table.
  std::string str(const CompiledProgram &Prog) const;
};

/// Counters reported by a check() run. NodesExplored, Slices, StealCount
/// and ContentionNs depend on scheduling races when Workers > 1; the
/// remaining counters are deterministic on exhausted searches.
struct CheckStats {
  uint64_t DistinctStates = 0; ///< Distinct global configurations seen.
  uint64_t NodesExplored = 0;  ///< Search nodes expanded.
  uint64_t Slices = 0;         ///< Scheduled run-to-scheduling-point slices.
  /// Slices the interpreter ran; the other Slices - SlicesInterpreted
  /// came from the per-worker slice memo (checker/SliceMemo.h). Counts
  /// this process only: a resumed run starts it at 0.
  uint64_t SlicesInterpreted = 0;
  uint64_t Terminals = 0;      ///< Distinct quiescent configurations.
  uint64_t ErrorsFound = 0;
  int MaxDepth = 0;
  bool Exhausted = true; ///< False when a node/depth cap cut the search.
  double Seconds = 0;
  /// Visited-set footprint: the allocated slot bytes of the visited
  /// and terminal tables, which only grow, plus Exact mode's running
  /// per-entry estimate of its byte-keyed map. Monotone non-decreasing
  /// over a run.
  uint64_t VisitedBytes = 0;
  int WorkersUsed = 1;       ///< Resolved worker count of the run.
  uint64_t StealCount = 0;   ///< Successful work-stealing operations.
  uint64_t ContentionNs = 0; ///< Time spent blocked on shared-state locks.
  /// Fault transitions explored (0 unless CheckOptions::Faults has a
  /// budget). Like NodesExplored, scheduling-race-dependent when
  /// Workers > 1 and the search is cut short.
  uint64_t FaultsInjected = 0;
  /// Compact mode: true when the bounded visited table saturated at
  /// least once and treated an unseen state as visited — the search may
  /// have omitted states, so exhaustion is no longer a proof of absence
  /// of errors. Always false in Exact/Fingerprint modes.
  bool OmissionPossible = false;
  /// Process peak resident set size over *this run*: the kernel's RSS
  /// high-water mark is reset when the run starts and sampled at its
  /// end, so repeated check() calls in one process report their own
  /// peaks rather than the process-lifetime maximum. Where the platform
  /// cannot reset the mark (non-Linux) this degrades to the lifetime
  /// peak; 0 where unavailable. Includes everything resident during the
  /// run, not just the visited set.
  uint64_t PeakRssBytes = 0;
  /// Cache cross-check failures (VerifyHashes / P_VERIFY_HASHES only):
  /// incremental-vs-fresh hashes and slice-memo hits that differ from
  /// the interpreter. Must be 0 — anything else is a COW invalidation
  /// or memo bug.
  uint64_t HashMismatches = 0;
  /// Symmetry reduction (Reduction::Symmetry): nodes pruned under
  /// a non-identity canonical permutation, i.e. recognized as permuted
  /// images of an explored representative. 0 when the layer is off or
  /// no machine type is declared `symmetric`.
  uint64_t SymmetryCollapsed = 0;
  /// Nodes queued across the work-stealing frontiers and the spill
  /// store at snapshot time. Only meaningful inside progress callbacks
  /// (the heartbeat's "how much breadth is pending" signal); 0 in the
  /// final stats.
  uint64_t FrontierNodes = 0;
  /// True when CheckOptions::InterruptFlag ended the run early (implies
  /// !Exhausted). The frontier at the stop is preserved in the final
  /// checkpoint when CheckpointPath is set.
  bool Interrupted = false;
  /// True when this run started from a checkpoint (CheckOptions::Resume)
  /// rather than the initial configuration. Cumulative counters
  /// (DistinctStates, NodesExplored, Seconds, ...) then cover the whole
  /// logical search, not just this process.
  bool Resumed = false;
  /// Checkpoints successfully published this run (periodic + final).
  uint64_t CheckpointsWritten = 0;
  /// Size in bytes of the most recent checkpoint file (0 when none).
  uint64_t LastCheckpointBytes = 0;
  /// Out-of-core frontier (CheckOptions::FrontierMemLimitBytes):
  /// cumulative nodes spilled to disk and bytes written to spill
  /// segments. Scheduling-race-dependent when Workers > 1, like
  /// NodesExplored.
  uint64_t FrontierSpilledNodes = 0;
  uint64_t FrontierSpillBytes = 0;
};

/// Result of a check() run.
struct CheckResult {
  bool ErrorFound = false;
  ErrorKind Error = ErrorKind::None;
  std::string ErrorMessage;
  /// Human-readable counterexample: the "initial:" line, then one line
  /// per scheduling decision (ReplayResult::Initial and Steps of a
  /// replaySchedule of Schedule under the same options).
  std::vector<std::string> Trace;
  /// The counterexample as a replayable schedule (see checker/Replay.h).
  std::vector<SchedDecision> Schedule;
  /// Delays spent on the erroring path (DelayBounded), else -1.
  int DelaysUsedOnError = -1;
  /// Faults injected on the erroring path, else -1. A counterexample
  /// with FaultsUsedOnError == 0 is a genuine program bug; > 0 means
  /// the environment had to misbehave to reach it.
  int FaultsUsedOnError = -1;
  /// Fingerprints of quiescent configurations (CollectTerminals).
  std::vector<uint64_t> TerminalHashes;
  /// Structural coverage (TrackCoverage).
  CoverageReport Coverage;
  /// Search profile (CheckOptions::Profile; Enabled is false otherwise).
  obs::SearchProfile Profile;
  CheckStats Stats;
  /// Non-empty when CheckOptions::Resume was set but the checkpoint
  /// could not be used (missing file, CRC mismatch from truncation or
  /// corruption, format-version skew, or a program/options fingerprint
  /// mismatch). The search does NOT run in that case — a defective
  /// checkpoint is reported, never silently discarded or reused.
  std::string ResumeError;
};

/// Explores \p Prog from its initial configuration under \p Opts.
/// \p Exec supplies foreign functions; pass nullptr to use a fresh
/// executor with model bodies only.
CheckResult check(const CompiledProgram &Prog, const CheckOptions &Opts,
                  Executor *Exec = nullptr);

} // namespace p

#endif // P_CHECKER_CHECKER_H
