//===- host/Host.h - Execution host (KMDF interface-code substitute) -------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution host of Section 4. In the paper, generated code runs
/// inside a Windows KMDF driver: skeletal *interface code* translates OS
/// callbacks into events on P machine queues through a three-call
/// runtime API — SMCreateMachine, SMAddEvent, SMGetContext — and the
/// calling thread runs the target machine to completion under a
/// per-machine lock. This class is the portable substitute: the same
/// three-call API, a run-to-completion scheduler, per-machine mutexes
/// when driven from multiple threads, and a per-machine external-memory
/// pointer for foreign code.
///
/// The serial pump is the checker's scheduler at delay bound 0: it runs
/// the top of the search's stack S (checker/SchedStack.h) and moves S
/// with the search's own normalize and SchedStack::afterSlice, so
/// d = 0 ≡ host holds by construction.
///
/// The host runs the *erased* program: ghost machines do not exist here;
/// the caller (the "OS") produces the events the ghost environment
/// produced during verification.
///
//===----------------------------------------------------------------------===//

#ifndef P_HOST_HOST_H
#define P_HOST_HOST_H

#include "checker/SchedStack.h"
#include "fault/FaultPlan.h"
#include "host/Reactor.h"
#include "host/TimerWheel.h"
#include "obs/Metrics.h"
#include "runtime/Executor.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <tuple>
#include <vector>

namespace p {

namespace obs {
class MetricsRegistry;
class TraceRecorder;
} // namespace obs

/// Statistics of one host run.
struct HostStats {
  uint64_t EventsDelivered = 0; ///< SMAddEvent calls accepted.
  uint64_t SlicesRun = 0;       ///< Run-to-completion slices executed.
  uint64_t MachinesCreated = 0;
  // Fault-plan actions taken (all zero without a FaultPlan).
  uint64_t EventsDropped = 0;    ///< SMAddEvent calls swallowed.
  uint64_t EventsDuplicated = 0; ///< SMAddEvent calls delivered twice.
  uint64_t EventsDelayed = 0;    ///< Deliveries deferred to a later pump.
  uint64_t MachinesCrashed = 0;  ///< Crash faults (plan or crashMachine).
  uint64_t MachinesRestarted = 0;
  /// Deepest any machine queue ever got (observed at enqueue and at
  /// send scheduling points inside the pump).
  uint64_t QueueDepthHighWater = 0;
  /// Dispatch-latency samples evicted because the pending-match FIFO
  /// hit HostOptions::LatencyPendingCap (p_host_latency_dropped_total).
  uint64_t LatencyDropped = 0;
  /// Reactor mode: mailbox ring overflows that took the spill list.
  uint64_t MailboxSpills = 0;
  /// Timer-wheel entries scheduled (addEventAfter + delay faults).
  uint64_t TimersScheduled = 0;
  /// Timer-wheel entries that expired and were delivered.
  uint64_t TimersExpired = 0;
};

/// Construction-time host tuning (the Seed parameter grown up).
struct HostOptions {
  /// Drives any `*` expressions left in the program.
  uint64_t Seed = 0;
  /// Cap on the serial pump's dispatch-latency matching FIFO (the
  /// oldest open enqueue is dropped past it and counted in
  /// HostStats::LatencyDropped). The reactor's per-machine cap lives in
  /// ReactorOptions::LatencyPendingCap.
  size_t LatencyPendingCap = 4096;
};

/// Why the last host API call was rejected before touching the program
/// (API misuse, not program errors — those surface via error()).
enum class HostError : uint8_t {
  None,
  UnknownMachine, ///< createMachine: no such machine type; addEvent:
                  ///< target id was never a machine.
  UnknownEvent,   ///< addEvent: no such event name.
  DeadTarget,     ///< addEvent: target machine deleted itself.
};

/// Short identifier, e.g. "unknown-event".
const char *hostErrorName(HostError E);

/// Runs a compiled (normally ghost-erased) P program.
class Host {
public:
  /// \p Seed drives any `*` expressions left in the program (there are
  /// none after erasure of a well-typed program; the provider exists for
  /// experimentation).
  explicit Host(const CompiledProgram &Prog, uint64_t Seed = 0)
      : Host(Prog, HostOptions{Seed, 4096}) {}
  Host(const CompiledProgram &Prog, HostOptions Options);
  ~Host();

  /// Registers a native foreign function (Section 4, "Foreign
  /// functions").
  void registerForeign(const std::string &Machine, const std::string &Fun,
                       ForeignFn Fn);

  /// SMCreateMachine: creates an instance of \p MachineName; returns its
  /// id, or -1 when the machine is unknown. The new machine's entry
  /// statement runs to completion before this returns.
  int32_t createMachine(const std::string &MachineName,
                        const std::vector<std::pair<std::string, Value>>
                            &Inits = {});

  /// SMAddEvent: enqueues \p EventName on machine \p Target and runs the
  /// system to completion. Returns false on an invalid target/event or
  /// when the program entered an error configuration.
  bool addEvent(int32_t Target, const std::string &EventName,
                Value Arg = Value::null());

  /// Schedules \p EventName for delivery to \p Target after \p Delay on
  /// the hierarchical timer wheel (resolution: TimerWheel's tick, 1ms).
  /// Serial mode delivers due timers at the next pump (addEvent /
  /// runToCompletion); reactor mode delivers from the tick thread.
  /// Timer deliveries are not counted in EventsDelivered — see
  /// HostStats::TimersScheduled / TimersExpired.
  bool addEventAfter(int32_t Target, const std::string &EventName,
                     Value Arg, std::chrono::nanoseconds Delay);

  /// Switches the host to the multi-threaded reactor pump (see
  /// host/Reactor.h): per-machine lock-free mailboxes, N workers, and a
  /// timer tick thread. Call from a quiescent host (no concurrent API
  /// calls during the switch). Differences from the serial contract,
  /// documented in DESIGN.md "Host runtime":
  ///  - addEvent/createMachine return on *acceptance*; processing is
  ///    asynchronous. runToCompletion (= waitQuiesce) is the barrier.
  ///  - observation APIs (currentStateName, readVar, config()) are
  ///    meaningful after a barrier, not mid-flight.
  ///  - attachTrace is serial-mode only (startReactor detaches).
  /// Returns false if a reactor is already running.
  bool startReactor(ReactorOptions Options = {});

  /// Stops the reactor, folds its counters into stats(), moves leftover
  /// mailbox events back into the semantic queues, and resumes the
  /// serial pump (draining whatever became runnable). Returns
  /// !hasError(). No-op returning true when no reactor is running.
  bool stopReactor();

  bool reactorActive() const {
    return ReactorOn.load(std::memory_order_acquire);
  }
  /// The reactor instance while active (tests/benchmarks), else null.
  Reactor *reactor() { return R.get(); }

  /// SMGetContext: the external-memory pointer foreign code may attach
  /// to a machine (the paper's StateMachineContext void*).
  void *getContext(int32_t Id) const;
  void setContext(int32_t Id, void *Context);

  /// Runs every enabled machine until the system quiesces. Returns
  /// false when an error configuration was reached.
  bool runToCompletion();

  /// True once the configuration entered an error state.
  bool hasError() const { return Cfg.hasError(); }
  ErrorKind error() const { return Cfg.errorKind(); }
  /// Valid once error() has been observed non-None (the reactor's
  /// release/acquire pair orders the message before the flag).
  const std::string &errorMessage() const { return Cfg.ErrorMessage; }

  /// Why the most recent createMachine/addEvent call was rejected
  /// (HostError::None after a call that reached the program). Unified
  /// API misuse reporting: callers no longer have to guess between the
  /// boolean result and the error configuration. The verdict is per
  /// calling thread: each thread reads the outcome of its *own* most
  /// recent call on this host, never a concurrent caller's.
  HostError lastHostError() const;

  /// Installs a seeded fault plan (see fault/FaultPlan.h): every
  /// accepted addEvent consults it and may be dropped, duplicated,
  /// delayed to a later pump, or turn into a crash of the target.
  /// Resets the plan's RNG, so two hosts given the same plan replay the
  /// same fault schedule. Pass a default-constructed plan to disable.
  void setFaultPlan(FaultPlan P);

  /// Bounds every machine queue (Config::MaxQueue; 0 = unbounded).
  /// Under OverflowPolicy::Block, addEvent blocks the calling thread
  /// until space frees up (another thread must pump or crash the
  /// target) — the host boundary is the only place that may wait.
  void setQueueLimit(uint32_t MaxQueue,
                     OverflowPolicy Policy = OverflowPolicy::Error);

  /// Fault model: kills a live machine in place (the process died; see
  /// Executor::crashMachine). Pending queue contents are lost; sends to
  /// it silently vanish. Wakes any addEvent blocked on its queue.
  bool crashMachine(int32_t Id);

  /// Restarts a crashed machine with the variable initializers of its
  /// original creation (host-created machines; machines created by `new`
  /// restart with default-initialized variables). Its entry statement
  /// runs to completion before this returns, like createMachine.
  bool restartMachine(int32_t Id);

  /// Current state name of machine \p Id (top of its call stack), or ""
  /// when dead; handy for tests and demos.
  std::string currentStateName(int32_t Id) const;

  /// Reads a machine variable by name (⊥ when unknown).
  Value readVar(int32_t Id, const std::string &VarName) const;

  const Config &config() const { return Cfg; }
  /// Current statistics; while a reactor runs, its live counters are
  /// folded in (the returned reference stays valid until the next call).
  const HostStats &stats() const;
  Executor &executor() { return Exec; }

  /// Attaches structured-event tracing (see obs/Trace.h): opens one
  /// sink on \p Recorder and records every send/dequeue/raise/new/
  /// state/halt/error the pump executes, plus a slice marker per
  /// run-to-completion slice. The host's entry points are serialized
  /// by PumpMutex, so a single sink is safe even when multiple "OS"
  /// threads drive the host. The recorder must outlive the host (or
  /// call detachTrace() first).
  void attachTrace(obs::TraceRecorder &Recorder);
  void detachTrace();

  /// Writes the host counters into \p Registry as p_host_* metrics,
  /// including the enqueue→dispatch latency histogram
  /// (p_host_dispatch_latency_seconds), the queue-depth high-water
  /// gauge, and the events/sec rate.
  void exportMetrics(obs::MetricsRegistry &Registry) const;

  /// Enqueue→dispatch latency of host-delivered events: the wall-clock
  /// time between addEvent placing an event on the target queue and
  /// the pump dequeuing it. Matching is FIFO per (target, event) pair,
  /// so an internally re-sent identical event can be credited the host
  /// enqueue's timestamp — best-effort attribution, like any sampler.
  const obs::Histogram &dispatchLatency() const { return DispatchLatency; }

  /// Accepted deliveries per wall-clock second since construction.
  double eventsPerSecond() const;

  /// Per-machine-id queue-depth high-water marks (index = machine id;
  /// ids the host never saw an enqueue for read 0).
  std::vector<uint32_t> queueHighWater() const;

  const CompiledProgram &program() const { return Prog; }

private:
  /// Runs the scheduler stack to quiescence (the d = 0 causal
  /// discipline; see Host.cpp), then wakes addEvent calls blocked on a
  /// full queue.
  void drain();
  /// Delivers events a fault plan postponed (PumpMutex held).
  void flushDelayed();
  /// Enqueues + pumps one delivery (PumpMutex held); the shared tail of
  /// addEvent and the duplicate/delayed fault paths.
  bool deliver(int32_t Target, int32_t Event, const Value &Arg);
  /// Records a host enqueue for latency matching and updates the queue
  /// high-water marks (PumpMutex held).
  void noteEnqueue(int32_t Target, int32_t Event);
  /// Folds machine \p Id's current queue depth into the high-water
  /// marks (PumpMutex held).
  void noteQueueDepth(int32_t Id);
  /// True when \p Target names a machine that may take an event;
  /// records the calling thread's HostError either way.
  bool acceptTarget(int32_t Target, bool OnReactor) const;
  /// Forgets the open enqueues of crashed machine \p Id: its queue is
  /// gone, so they can never be dequeued (PumpMutex held).
  void dropPending(int32_t Id);
  /// Dequeue-observer body: closes the oldest matching pending enqueue
  /// into DispatchLatency (runs inside the pump, PumpMutex held).
  void noteDequeue(int32_t Machine, int32_t Event);
  double eventsPerSecondLocked() const;
  /// addEvent's reactor-mode body: lock-free acceptance path (no
  /// PumpMutex, so producers scale).
  bool addEventReactor(int32_t Target, int32_t Event, const Value &Arg);
  /// Stats plus the running reactor's counters (PumpMutex held).
  HostStats foldedStatsLocked() const;

  /// HostStats fields touched by concurrent reactor-mode producers go
  /// through these (plain fields otherwise, so serial stays free).
  static void bumpStat(uint64_t &F, uint64_t N = 1) {
    std::atomic_ref<uint64_t>(F).fetch_add(N, std::memory_order_relaxed);
  }
  static uint64_t readStat(const uint64_t &F) {
    return std::atomic_ref<uint64_t>(const_cast<uint64_t &>(F))
        .load(std::memory_order_relaxed);
  }

  const CompiledProgram &Prog;
  const HostOptions Opt;
  Executor Exec;
  Config Cfg;
  HostStats Stats;
  mutable HostStats Folded; ///< stats() scratch (PumpMutex held).
  std::vector<void *> Contexts;
  SchedStack Sched; ///< The d = 0 scheduler stack S.
  std::mt19937_64 Rng;
  std::mutex RngMu; ///< Reactor workers share the choice provider.
  mutable std::mutex PumpMutex; ///< Serializes host entry points.
  /// Wakes addEvent calls blocked on a full queue (OverflowPolicy::
  /// Block) whenever a pump ran or a machine crashed/restarted.
  std::condition_variable QueueCv;

  /// Records the calling thread's verdict for its most recent
  /// createMachine/addEvent on *this* host (thread-local storage; see
  /// Host.cpp). A shared field would race: with the reactor on, two
  /// threads adding events concurrently would each read whichever
  /// verdict last won the race instead of their own.
  void setLastError(HostError E) const;
  FaultPlan Plan;
  bool HasPlan = false;
  uint64_t AddEventCalls = 0; ///< Accepted calls; the plan's ordinal.
  std::mutex PlanMu; ///< Guards Plan/AddEventCalls in reactor mode.
  /// Deliveries postponed by FaultKind::DelayEvent (deadline = now) and
  /// addEventAfter timers. Serial mode delivers due entries after the
  /// next pump (flushDelayed == advance the wheel); reactor mode
  /// delivers from the tick thread.
  TimerWheel Wheel;
  std::unique_ptr<Reactor> R;
  std::atomic<bool> ReactorOn{false};
  /// Original variable initializers per host-created machine id, used
  /// by restartMachine.
  std::vector<std::vector<std::pair<int32_t, Value>>> CreationInits;

  /// A host enqueue whose dequeue has not been observed yet.
  struct PendingDispatch {
    int32_t Target;
    int32_t Event;
    std::chrono::steady_clock::time_point T;
  };
  /// FIFO of open enqueues, capped (oldest dropped) so a machine that
  /// never drains cannot grow it without bound.
  std::vector<PendingDispatch> Pending;
  obs::Histogram DispatchLatency;
  std::vector<uint32_t> QueueHighWater; ///< Index = machine id.
  const std::chrono::steady_clock::time_point StartTime =
      std::chrono::steady_clock::now();
};

} // namespace p

#endif // P_HOST_HOST_H
