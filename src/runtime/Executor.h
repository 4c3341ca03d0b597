//===- runtime/Executor.h - Small-step interpreter for P -------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes the operational semantics of Figures 4–6 over a Config. One
/// `step()` call runs a single machine up to its next *scheduling point*
/// — a `send` or a `new` (Section 5's atomicity reduction: private
/// operations commute, receives are right movers, so context switches
/// are only needed after communication). The model checker and the
/// runtime host both drive executions exclusively through this class.
///
/// Nondeterministic `*` expressions either consult a choice provider
/// (runtime mode) or surface as ChoicePoint results the caller resolves
/// by setting MachineState::InjectedChoice and re-stepping (checker
/// mode).
///
//===----------------------------------------------------------------------===//

#ifndef P_RUNTIME_EXECUTOR_H
#define P_RUNTIME_EXECUTOR_H

#include "pir/Program.h"
#include "runtime/Config.h"

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace p {

namespace obs {
class TraceSink;
} // namespace obs

/// Signature of a native foreign-function implementation. `Self` is the
/// id of the calling machine.
using ForeignFn =
    std::function<Value(Config &Cfg, int32_t Self,
                        const std::vector<Value> &Args)>;

/// Interprets a CompiledProgram.
class Executor {
public:
  struct Options {
    /// Execute foreign functions' model bodies instead of native
    /// implementations (the verification configuration).
    bool UseModelBodies = false;
    /// Error on calls to foreign functions with neither a model body
    /// nor a registered native implementation (otherwise they return ⊥).
    bool StrictForeign = false;
    /// Maximum micro-steps per step() slice before the divergence error
    /// fires (the paper's first liveness property: a machine must not
    /// run forever without getting disabled).
    uint64_t MaxStepsPerSlice = 1000000;
    /// Fault exploration: stop at every foreign call (StepOutcome::
    /// ForeignCall) so the caller can decide whether it fails, via
    /// MachineState::InjectedForeignFail. Off everywhere except checker
    /// runs with FaultSpec::FailForeign enabled.
    bool ForeignFaultPoints = false;
  };

  /// How a step() slice ended.
  enum class StepOutcome : uint8_t {
    SchedulingPoint, ///< Executed a send or new; context switch here.
    ChoicePoint,     ///< Stopped at `*`; resolve via InjectedChoice.
    Blocked,         ///< Needs an event; none eligible in the queue.
    Halted,          ///< The machine executed `delete`.
    Error,           ///< Config entered the error state (see Cfg.Error).
    ForeignCall,     ///< Stopped before a foreign call (fault points
                     ///< on); resolve via InjectedForeignFail.
  };

  struct StepResult {
    StepOutcome Outcome;
    /// For SchedulingPoint: the send target or created machine id.
    int32_t Other = -1;
    /// True when the scheduling point was a `new` (Other is the child).
    bool Created = false;
    /// For a send handed to enqueueEvent (a live target): its event and
    /// payload. Event is -1 for every other slice, including a send a
    /// crashed target dropped.
    int32_t Event = -1;
    Value Payload{};

    bool operator==(const StepResult &O) const = default;
  };

  explicit Executor(const CompiledProgram &Prog) : Prog(Prog) {}
  Executor(const CompiledProgram &Prog, Options Opts)
      : Prog(Prog), Opts(Opts) {}

  /// Executors are copyable: a copy shares the (immutable) compiled
  /// program and duplicates options, foreign-function registrations,
  /// and observers. The parallel checker hands each worker thread its
  /// own copy so observer callbacks stay thread-local. The const
  /// methods below (step, isEnabled, describeMachine, ...) keep all
  /// mutable state in the caller's Config, so a single const Executor
  /// is also safe to share across threads as long as each thread steps
  /// its own Config and the installed observers are thread-safe.
  Executor(const Executor &) = default;

  const CompiledProgram &program() const { return Prog; }
  const Options &options() const { return Opts; }

  /// Registers a native implementation for Machine::Fun.
  void registerForeign(const std::string &Machine, const std::string &Fun,
                       ForeignFn Fn);

  /// Installs the source of `*` choices for runtime execution.
  void setChoiceProvider(std::function<bool()> Provider) {
    ChoiceProvider = std::move(Provider);
  }

  /// Replaces the options after construction; the checker sets its own
  /// limits on the copies it makes of a caller's executor.
  void setOptions(const Options &O) { Opts = O; }

  /// Toggles Options::ForeignFaultPoints after construction; the
  /// parallel checker sets it on its per-worker copies when foreign
  /// failure is part of the explored fault model.
  void setForeignFaultPoints(bool Enable) {
    Opts.ForeignFaultPoints = Enable;
  }

  /// Observes every DEQUEUE (machine id, event id); used by the
  /// liveness checker to tell "pending forever" from "repeatedly
  /// consumed and re-sent". Registration is additive: every registered
  /// observer fires, in registration order, so tracing composes with
  /// the checkers' uses.
  using DequeueObserverFn = std::function<void(int32_t, int32_t)>;
  void addDequeueObserver(DequeueObserverFn Observer) {
    DequeueObservers.push_back(std::move(Observer));
  }
  /// Additive alias of addDequeueObserver, kept for existing callers.
  void setDequeueObserver(DequeueObserverFn Observer) {
    addDequeueObserver(std::move(Observer));
  }

  /// Observes every dispatch decision: (machine type, state, event,
  /// resolution). Resolution is the TransitionKind that fired, with
  /// TransitionKind::None meaning POP1 (the event propagated to the
  /// caller). Drives coverage reporting. Additive, like
  /// addDequeueObserver.
  using DispatchObserverFn =
      std::function<void(int32_t MachineType, int32_t State, int32_t Event,
                         TransitionKind Kind)>;
  void addDispatchObserver(DispatchObserverFn Observer) {
    DispatchObservers.push_back(std::move(Observer));
  }
  /// Additive alias of addDispatchObserver, kept for existing callers.
  void setDispatchObserver(DispatchObserverFn Observer) {
    addDispatchObserver(std::move(Observer));
  }

  /// Reroutes `send` instructions executed inside step() (the reactor
  /// host's cross-machine path). Called with (Cfg, From, To, Event,
  /// Payload) before the executor touches the target machine's state,
  /// so a hook that routes every send through per-machine mailboxes
  /// keeps workers from reading or writing machines they do not own.
  /// Return true when the hook delivered (or deliberately dropped) the
  /// event — the send still completes as a scheduling point; return
  /// false to fall through to the default in-place enqueue (serial
  /// mode, or a hook that opts out for this target).
  using SendHookFn = std::function<bool(Config &, int32_t From, int32_t To,
                                        int32_t Event, const Value &Arg)>;
  void setSendHook(SendHookFn Hook) { SendHook = std::move(Hook); }

  /// Called after createMachine appended the new machine (under the
  /// structural mutex when one is installed): the reactor uses it to
  /// set up the machine's mailbox/ownership slot before the id becomes
  /// visible to other threads.
  using CreateHookFn = std::function<void(Config &, int32_t Id)>;
  void setCreateHook(CreateHookFn Hook) { CreateHook = std::move(Hook); }

  /// Serializes raiseError across reactor workers. When set, the first
  /// error wins — later raiseError calls on an already-errored Config
  /// are dropped — and the ErrorKind flag is published with a release
  /// store after the message fields. nullptr (default) restores plain
  /// single-threaded writes.
  void setErrorMutex(std::mutex *Mu) { ErrorMu = Mu; }

  /// Serializes createMachine's push_back on Config::Machines across
  /// threads. When set, createMachine additionally refuses to grow the
  /// vector past its reserved capacity (raising
  /// ErrorKind::ResourceExhausted) because reallocation would move the
  /// handle array under lock-free readers.
  void setStructuralMutex(std::mutex *Mu) { StructuralMu = Mu; }

  /// Raises a semantic error from host-side code that detects it
  /// outside step() (e.g. the reactor classifying a send to a deleted
  /// machine at the mailbox boundary). Honors the error mutex.
  void reportError(Config &Cfg, int32_t Id, ErrorKind Kind,
                   std::string Message) const {
    raiseError(Cfg, Id, Kind, std::move(Message));
  }

  /// Attaches a structured-event trace sink (see obs/Trace.h): send,
  /// dequeue, raise, new, state entry/exit, halt, and error events are
  /// recorded with timestamps as they execute. The sink must be owned
  /// by the thread stepping through this executor (sinks are
  /// single-writer); pass nullptr to detach. Copying an Executor
  /// copies the pointer — the parallel checker overrides it with a
  /// per-worker sink.
  void setTraceSink(obs::TraceSink *Sink) { Trace = Sink; }
  obs::TraceSink *traceSink() const { return Trace; }

  /// True when something outside the Config can see or steer a slice:
  /// a trace sink, dequeue or dispatch observers, a choice provider,
  /// send or create hooks, a structural mutex, or native foreign
  /// functions (which receive the whole Config). A slice of an
  /// unobserved executor is a function of the running machine's state,
  /// its id and, for a send, the target's liveness and queue — what the
  /// checker's slice memo relies on.
  bool observed() const {
    return Trace || !DequeueObservers.empty() || !DispatchObservers.empty() ||
           ChoiceProvider || SendHook || CreateHook || StructuralMu ||
           !ForeignFns.empty();
  }

  /// Creates an instance of machine \p MachineIndex (rule NEW); returns
  /// its id. \p Inits lists (var index, value) pairs.
  int32_t createMachine(Config &Cfg, int32_t MachineIndex,
                        const std::vector<std::pair<int32_t, Value>> &Inits =
                            {}) const;

  /// Creates the initial configuration: one instance of the program's
  /// main machine (the paper's initialization statement).
  Config makeInitialConfig() const;

  /// Enqueues an external event (rule SEND's ⊎ append); used by the
  /// host's SMAddEvent. Returns false and sets the error state when the
  /// target is invalid. Fault-model refinements: sends to a *crashed*
  /// machine are silently dropped (returns true), and a bounded queue
  /// (Config::MaxQueue) applies its overflow policy here.
  bool enqueueEvent(Config &Cfg, int32_t Target, int32_t Event,
                    Value Arg = Value::null()) const;

  /// Fault model: kills machine \p Id in place (MachineState::Crashed).
  /// Its queue and execution state are discarded; subsequent sends to
  /// it vanish silently. Returns false for ids that are not live.
  bool crashMachine(Config &Cfg, int32_t Id) const;

  /// Fault model: re-initializes a *crashed* machine in place — fresh
  /// variables (with \p Inits applied), initial state, entry statement
  /// pending — modelling a process restart under the same id. Returns
  /// false unless the machine is currently crashed.
  bool restartMachine(Config &Cfg, int32_t Id,
                      const std::vector<std::pair<int32_t, Value>> &Inits =
                          {}) const;

  /// Runs machine \p Id until the next scheduling point (see file
  /// comment).
  StepResult step(Config &Cfg, int32_t Id) const;

  /// True when machine \p Id can take a step (the en(m) predicate of
  /// Section 3.2): it is mid-execution, has a pending raise/transfer, or
  /// an eligible (non-deferred) event sits in its queue.
  bool isEnabled(const Config &Cfg, int32_t Id) const;

  /// Index of the first queue entry not in the effective deferred set,
  /// or -1 (the DEQUEUE rule's scan). Exposed for tests and liveness.
  int findEligibleEvent(const Config &Cfg, const MachineState &M) const;

  /// Renders a one-line description of machine \p Id's control state,
  /// e.g. "Elevator#1 @ Opening [queue: CloseDoor]"; used in traces.
  std::string describeMachine(const Config &Cfg, int32_t Id) const;

private:
  struct InstrResult {
    enum Kind : uint8_t {
      Continue,
      SchedulingPoint,
      ChoicePoint,
      Halted,
      Error,
      ForeignCall
    } Kind = Continue;
    int32_t Other = -1;
    bool Created = false;
    int32_t Event = -1; ///< A send handed to enqueueEvent: its event.
    Value Payload{};
  };

  InstrResult execInstr(Config &Cfg, int32_t Id) const;
  void dispatchRaise(Config &Cfg, int32_t Id) const;
  void applyTransfer(Config &Cfg, int32_t Id) const;
  void pushBodyFrame(MachineState &M, int32_t Body, FrameKind Kind) const;
  std::vector<int32_t> computeCallInherit(const MachineState &M) const;
  void raiseError(Config &Cfg, int32_t Id, ErrorKind Kind,
                  std::string Message) const;

  const CompiledProgram &Prog;
  Options Opts;
  std::function<bool()> ChoiceProvider;
  std::vector<DequeueObserverFn> DequeueObservers;
  std::vector<DispatchObserverFn> DispatchObservers;
  std::map<std::pair<std::string, std::string>, ForeignFn> ForeignFns;
  obs::TraceSink *Trace = nullptr;
  SendHookFn SendHook;
  CreateHookFn CreateHook;
  std::mutex *ErrorMu = nullptr;
  std::mutex *StructuralMu = nullptr;
};

} // namespace p

#endif // P_RUNTIME_EXECUTOR_H
