//===- host/Host.cpp ----------------------------------------------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The host's event pump is the delaying scheduler with d = 0 (Section
// 5): a stack S of runnable machines where `new` and `send` push the
// child/receiver on top, so the receiver of an event runs next. The
// pump drives the checker's own SchedStack with the search's normalize
// (checker/Successors.h) and SchedStack::afterSlice, so the paper's
// claim — "for d = 0, the real part of schedules explored by the delay
// bounded scheduler are exactly the same as the one executed by the P
// runtime" — holds by construction, and our property tests compare the
// two executions step by step.
//
//===----------------------------------------------------------------------===//

#include "host/Host.h"

#include "checker/Successors.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <algorithm>

using namespace p;

const char *p::hostErrorName(HostError E) {
  switch (E) {
  case HostError::None:
    return "none";
  case HostError::UnknownMachine:
    return "unknown-machine";
  case HostError::UnknownEvent:
    return "unknown-event";
  case HostError::DeadTarget:
    return "dead-target";
  }
  return "unknown";
}

Host::Host(const CompiledProgram &Prog, HostOptions Options)
    : Prog(Prog), Opt(Options), Exec(Prog), Rng(Options.Seed),
      DispatchLatency(obs::exponentialBounds(1e-7, 4, 16)) {
  // Reactor workers share the provider, hence the lock; serial mode
  // pays one uncontended acquire per `*`.
  Exec.setChoiceProvider([this] {
    std::lock_guard<std::mutex> Lk(RngMu);
    return (Rng() & 1) != 0;
  });
  // Serial mode: fires inside the pump with PumpMutex held, so the
  // pending list needs no lock of its own. Reactor mode: fires on the
  // owning worker, which routes to its per-machine slot state.
  Exec.addDequeueObserver([this](int32_t Machine, int32_t Event) {
    if (ReactorOn.load(std::memory_order_acquire)) {
      R->onDequeue(Machine, Event);
      return;
    }
    noteDequeue(Machine, Event);
  });
}

namespace {
/// The last API verdict, per (thread, host). A plain member — even an
/// atomic one — races semantically: with the reactor running, two
/// threads calling addEvent concurrently would each read whichever
/// verdict last won the store race instead of their own call's.
struct ThreadErrorSlot {
  const void *H = nullptr;
  HostError E = HostError::None;
};
thread_local ThreadErrorSlot LastErrorSlot;
} // namespace

void Host::setLastError(HostError E) const {
  LastErrorSlot.H = this;
  LastErrorSlot.E = E;
}

HostError Host::lastHostError() const {
  // A slot written by a call on a different host — or never written on
  // this thread — reads as None.
  return LastErrorSlot.H == this ? LastErrorSlot.E : HostError::None;
}

Host::~Host() {
  if (R)
    R->stop();
  // Best-effort: keep a future host constructed at this address from
  // inheriting this thread's stale verdict.
  if (LastErrorSlot.H == this)
    LastErrorSlot = ThreadErrorSlot{};
}

void Host::noteEnqueue(int32_t Target, int32_t Event) {
  if (Pending.size() >= Opt.LatencyPendingCap) {
    Pending.erase(Pending.begin());
    ++Stats.LatencyDropped;
  }
  Pending.push_back({Target, Event, std::chrono::steady_clock::now()});
  noteQueueDepth(Target);
}

void Host::noteQueueDepth(int32_t Id) {
  if (Id < 0 || Id >= static_cast<int32_t>(Cfg.Machines.size()))
    return;
  if (QueueHighWater.size() < Cfg.Machines.size())
    QueueHighWater.resize(Cfg.Machines.size(), 0);
  const auto Depth =
      static_cast<uint32_t>(Cfg.Machines[Id]->Queue.size());
  QueueHighWater[Id] = std::max(QueueHighWater[Id], Depth);
  Stats.QueueDepthHighWater =
      std::max<uint64_t>(Stats.QueueDepthHighWater, Depth);
}

void Host::noteDequeue(int32_t Machine, int32_t Event) {
  for (auto It = Pending.begin(); It != Pending.end(); ++It) {
    if (It->Target != Machine || It->Event != Event)
      continue;
    DispatchLatency.observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      It->T)
            .count());
    Pending.erase(It);
    return;
  }
}

void Host::registerForeign(const std::string &Machine,
                           const std::string &Fun, ForeignFn Fn) {
  Exec.registerForeign(Machine, Fun, std::move(Fn));
}

void Host::drain() {
  while (!Cfg.hasError() && normalize(Exec, Cfg, Sched)) {
    const int32_t Id = Sched.top();
    ++Stats.SlicesRun;
    if (obs::TraceSink *T = Exec.traceSink())
      T->record(obs::TraceKind::Slice, Id);
    const Executor::StepResult R = Exec.step(Cfg, Id);
    Contexts.resize(Cfg.Machines.size(), nullptr);
    if (R.Outcome == Executor::StepOutcome::SchedulingPoint)
      noteQueueDepth(R.Other); // Internal sends deepen queues too.
    // A slice never stops at a `*` (the host installs a choice
    // provider) or at a foreign call (it never enables fault points).
    Sched.afterSlice(Id, R);
  }
  QueueCv.notify_all();
}

int32_t Host::createMachine(
    const std::string &MachineName,
    const std::vector<std::pair<std::string, Value>> &Inits) {
  std::lock_guard<std::mutex> Lock(PumpMutex);
  int MachineIndex = Prog.findMachine(MachineName);
  if (MachineIndex < 0) {
    setLastError(HostError::UnknownMachine);
    return -1;
  }
  const MachineInfo &Info = Prog.Machines[MachineIndex];

  std::vector<std::pair<int32_t, Value>> Resolved;
  for (const auto &[Name, V] : Inits) {
    for (size_t I = 0; I != Info.Vars.size(); ++I)
      if (Info.Vars[I].Name == Name)
        Resolved.emplace_back(static_cast<int32_t>(I), V);
  }

  // The executor appends under the reactor's structural mutex when one
  // is installed; the create hook builds the mailbox slot and schedules
  // the entry statement on a worker.
  int32_t Id = Exec.createMachine(Cfg, MachineIndex, Resolved);
  if (Id < 0) // ResourceExhausted: reactor machine table full.
    return -1;
  if (ReactorOn.load(std::memory_order_acquire)) {
    CreationInits[Id] = Resolved; // Pre-sized by startReactor.
    bumpStat(Stats.MachinesCreated);
    setLastError(HostError::None);
    return Id;
  }
  Contexts.resize(Cfg.Machines.size(), nullptr);
  CreationInits.resize(Cfg.Machines.size());
  CreationInits[Id] = Resolved;
  ++Stats.MachinesCreated;
  setLastError(HostError::None);
  Sched.arm(Id);
  drain();
  return Id;
}

void Host::flushDelayed() {
  // Advance the wheel and deliver what fell due (delay faults schedule
  // with deadline = now, so "flushed after the next pump" still holds;
  // addEventAfter timers wait for their real deadline).
  std::vector<TimerEntry> Due;
  Wheel.advanceTo(std::chrono::steady_clock::now(), Due);
  for (TimerEntry &E : Due) {
    ++Stats.TimersExpired;
    if (Cfg.hasError())
      break; // Fail-stop; the rest stays undelivered, like before.
    deliver(E.Target, E.Event, E.Arg);
  }
}

bool Host::deliver(int32_t Target, int32_t Event, const Value &Arg) {
  if (!Exec.enqueueEvent(Cfg, Target, Event, Arg))
    return false;
  noteEnqueue(Target, Event);
  Sched.arm(Target);
  drain();
  return !Cfg.hasError();
}

bool Host::acceptTarget(int32_t Target, bool OnReactor) const {
  // API misuse is rejected before the semantics can raise an error
  // config: the caller ("OS") naming a bad target is its mistake, not a
  // P program error, so the configuration stays healthy and the boolean
  // result does not conflate the two.
  const int32_t Count = OnReactor
                            ? R->machineCount()
                            : static_cast<int32_t>(Cfg.Machines.size());
  HostError E = HostError::None;
  if (Target < 0 || Target >= Count)
    E = HostError::UnknownMachine;
  else if (OnReactor ? R->life(Target) == Reactor::Life::Dead
                     : !Cfg.Machines[Target]->Alive &&
                           !Cfg.Machines[Target]->Crashed)
    E = HostError::DeadTarget;
  setLastError(E);
  return E == HostError::None;
}

void Host::dropPending(int32_t Id) {
  std::erase_if(Pending,
                [&](const PendingDispatch &P) { return P.Target == Id; });
}

bool Host::addEvent(int32_t Target, const std::string &EventName,
                    Value Arg) {
  const int Event = Prog.findEvent(EventName);
  if (Event < 0) {
    setLastError(HostError::UnknownEvent);
    return false;
  }
  if (ReactorOn.load(std::memory_order_acquire))
    return addEventReactor(Target, Event, Arg);
  std::unique_lock<std::mutex> Lock(PumpMutex);
  if (!acceptTarget(Target, false))
    return false;

  // Back-pressure (OverflowPolicy::Block): wait until the full queue
  // has room, the target dies, or the system errors. Another thread
  // must pump (its drain notifies) — the paper's run-to-completion
  // discipline means this thread cannot drain the queue itself.
  if (Cfg.MaxQueue != 0 && Cfg.Overflow == OverflowPolicy::Block) {
    auto WouldBlock = [&] {
      if (Cfg.hasError() || !Cfg.isLive(Target))
        return false;
      const MachineState &M = *Cfg.Machines[Target];
      if (M.Queue.size() < Cfg.MaxQueue)
        return false;
      for (const auto &[E, V] : M.Queue) // ⊎ no-op needs no room.
        if (E == Event && V == Arg)
          return false;
      return true;
    };
    QueueCv.wait(Lock, [&] { return !WouldBlock(); });
  }

  ++AddEventCalls;
  if (HasPlan) {
    FaultAction A = Plan.decide(AddEventCalls, Event);
    if (A.Inject && Cfg.isLive(Target)) {
      obs::TraceSink *T = Exec.traceSink();
      switch (A.Kind) {
      case FaultKind::DropEvent:
        // The wire ate it: the call "succeeds" and nothing arrives.
        ++Stats.EventsDropped;
        if (T)
          T->record(obs::TraceKind::FaultInjected, Target,
                    static_cast<int32_t>(FaultKind::DropEvent), Event);
        return !Cfg.hasError();
      case FaultKind::DuplicateEvent: {
        // Delivered twice: once now, once after the first pump (the
        // run-to-completion discipline empties the queue in between,
        // so the second copy is not a ⊎ no-op).
        ++Stats.EventsDuplicated;
        if (T)
          T->record(obs::TraceKind::FaultInjected, Target,
                    static_cast<int32_t>(FaultKind::DuplicateEvent),
                    Event);
        ++Stats.EventsDelivered;
        bool Ok = deliver(Target, Event, Arg);
        if (Ok && Cfg.isLive(Target))
          Ok = deliver(Target, Event, Arg);
        flushDelayed();
        return Ok && !Cfg.hasError();
      }
      case FaultKind::DelayEvent: {
        ++Stats.EventsDelayed;
        ++Stats.TimersScheduled;
        if (T)
          T->record(obs::TraceKind::FaultInjected, Target,
                    static_cast<int32_t>(FaultKind::DelayEvent), Event);
        Wheel.schedule({Target, Event, Arg, std::chrono::steady_clock::now()});
        return !Cfg.hasError();
      }
      case FaultKind::CrashMachine:
        // The process died before the delivery: both vanish.
        ++Stats.MachinesCrashed;
        Exec.crashMachine(Cfg, Target);
        Sched.remove(Target);
        dropPending(Target);
        QueueCv.notify_all();
        return !Cfg.hasError();
      case FaultKind::RestartMachine:
      case FaultKind::FailForeign:
        break; // Not produced by FaultPlan::decide.
      }
    }
  }

  if (!Exec.enqueueEvent(Cfg, Target, Event, Arg))
    return false;
  ++Stats.EventsDelivered;
  noteEnqueue(Target, Event);
  Sched.arm(Target);
  drain();
  flushDelayed();
  return !Cfg.hasError();
}

bool Host::addEventReactor(int32_t Target, int32_t Event,
                           const Value &Arg) {
  if (!acceptTarget(Target, true))
    return false;
  std::atomic_ref<uint64_t>(AddEventCalls)
      .fetch_add(1, std::memory_order_relaxed);
  if (HasPlan) {
    FaultAction A;
    {
      std::lock_guard<std::mutex> Lk(PlanMu);
      A = Plan.decide(
          std::atomic_ref<uint64_t>(AddEventCalls)
              .load(std::memory_order_relaxed),
          Event);
    }
    if (A.Inject && R->life(Target) == Reactor::Life::Live) {
      switch (A.Kind) {
      case FaultKind::DropEvent:
        bumpStat(Stats.EventsDropped);
        return !Cfg.hasError();
      case FaultKind::DuplicateEvent: {
        bumpStat(Stats.EventsDuplicated);
        bumpStat(Stats.EventsDelivered);
        auto Now = std::chrono::steady_clock::now();
        R->postEvent(Target, Event, Arg, Now);
        // Unlike the serial pump (which empties the queue between the
        // two copies), the second copy may still coalesce under ⊎ if
        // the first has not been dequeued by transfer time.
        R->postEvent(Target, Event, Arg, Now);
        return !Cfg.hasError();
      }
      case FaultKind::DelayEvent: {
        bumpStat(Stats.EventsDelayed);
        bumpStat(Stats.TimersScheduled);
        Wheel.schedule({Target, Event, Arg, std::chrono::steady_clock::now()});
        R->timerArmed();
        return !Cfg.hasError();
      }
      case FaultKind::CrashMachine:
        bumpStat(Stats.MachinesCrashed);
        R->postCrash(Target);
        return !Cfg.hasError();
      case FaultKind::RestartMachine:
      case FaultKind::FailForeign:
        break; // Not produced by FaultPlan::decide.
      }
    }
  }
  bumpStat(Stats.EventsDelivered);
  R->postEvent(Target, Event, Arg, std::chrono::steady_clock::now());
  return !Cfg.hasError();
}

bool Host::addEventAfter(int32_t Target, const std::string &EventName,
                         Value Arg, std::chrono::nanoseconds Delay) {
  const bool OnReactor = ReactorOn.load(std::memory_order_acquire);
  std::unique_lock<std::mutex> Lock(PumpMutex, std::defer_lock);
  if (!OnReactor)
    Lock.lock();
  int Event = Prog.findEvent(EventName);
  if (Event < 0) {
    setLastError(HostError::UnknownEvent);
    return false;
  }
  if (!acceptTarget(Target, OnReactor))
    return false;
  Wheel.schedule({Target, Event, std::move(Arg),
                  std::chrono::steady_clock::now() + Delay});
  if (OnReactor) {
    bumpStat(Stats.TimersScheduled);
    R->timerArmed();
  } else {
    ++Stats.TimersScheduled;
  }
  return true;
}

bool Host::startReactor(ReactorOptions Options) {
  std::lock_guard<std::mutex> Lock(PumpMutex);
  if (R)
    return false;
  // Tracing is serial-mode only: sinks are single-writer and workers
  // would race on one.
  Exec.setTraceSink(nullptr);
  Sched.clear(); // The reactor schedules enabled machines itself.
  size_t MaxM = std::max(Options.MaxMachines, Cfg.Machines.size());
  Options.MaxMachines = MaxM;
  // Pre-size host bookkeeping indexed by machine id: worker-side `new`
  // must not force a resize under readers.
  Contexts.resize(MaxM, nullptr);
  CreationInits.resize(MaxM);
  R = std::make_unique<Reactor>(Exec, Cfg, Wheel, DispatchLatency,
                                Options);
  ReactorOn.store(true, std::memory_order_release);
  R->start();
  if (!Wheel.empty())
    R->timerArmed(); // Timers scheduled while serial carry over.
  return true;
}

bool Host::stopReactor() {
  std::lock_guard<std::mutex> Lock(PumpMutex);
  if (!R)
    return true;
  R->stop(); // Joins every worker; mailboxes fold into the queues.
  Stats.SlicesRun += R->slicesRun();
  Stats.LatencyDropped += R->latencyDropped();
  Stats.TimersExpired += R->timersExpired();
  Stats.MailboxSpills += R->mailboxSpills();
  Stats.QueueDepthHighWater =
      std::max(Stats.QueueDepthHighWater, R->queueHighWaterMax());
  if (QueueHighWater.size() < Cfg.Machines.size())
    QueueHighWater.resize(Cfg.Machines.size(), 0);
  for (int32_t Id = 0, N = R->machineCount(); Id != N; ++Id)
    QueueHighWater[Id] = std::max(QueueHighWater[Id], R->queueHighWater(Id));
  ReactorOn.store(false, std::memory_order_release);
  R.reset();
  // Resume the serial pump on whatever the folded mailboxes left.
  for (int32_t Id = static_cast<int32_t>(Cfg.Machines.size()); Id-- > 0;)
    if (Exec.isEnabled(Cfg, Id))
      Sched.arm(Id);
  drain();
  return !Cfg.hasError();
}

bool Host::runToCompletion() {
  if (ReactorOn.load(std::memory_order_acquire)) {
    // Deliver every already-due timer, then wait for the workers to
    // drain all accepted events (the reactor-mode barrier).
    R->flushDueTimers();
    R->waitQuiesce();
    return !Cfg.hasError();
  }
  std::lock_guard<std::mutex> Lock(PumpMutex);
  flushDelayed();
  drain();
  return !Cfg.hasError();
}

void Host::setFaultPlan(FaultPlan P) {
  std::lock_guard<std::mutex> Lock(PumpMutex);
  Plan = std::move(P);
  Plan.reset();
  HasPlan = Plan.enabled();
}

void Host::setQueueLimit(uint32_t MaxQueue, OverflowPolicy Policy) {
  std::lock_guard<std::mutex> Lock(PumpMutex);
  Cfg.MaxQueue = MaxQueue;
  Cfg.Overflow = Policy;
  QueueCv.notify_all();
}

bool Host::crashMachine(int32_t Id) {
  if (ReactorOn.load(std::memory_order_acquire)) {
    if (R->life(Id) != Reactor::Life::Live)
      return false;
    bumpStat(Stats.MachinesCrashed);
    // Asynchronous fail-stop: the owning worker executes the crash
    // (cancels timers, drains the mailbox, releases blocked senders).
    R->postCrash(Id);
    return true;
  }
  std::lock_guard<std::mutex> Lock(PumpMutex);
  if (!Cfg.isLive(Id))
    return false;
  Exec.crashMachine(Cfg, Id);
  Sched.remove(Id);
  ++Stats.MachinesCrashed;
  Wheel.cancelFor(Id); // Fail-stop cancels its pending timers too.
  dropPending(Id);
  QueueCv.notify_all(); // A blocked send to this queue can stop waiting.
  return true;
}

double Host::eventsPerSecondLocked() const {
  const double Secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    StartTime)
          .count();
  if (Secs <= 0)
    return 0;
  return static_cast<double>(readStat(Stats.EventsDelivered)) / Secs;
}

double Host::eventsPerSecond() const {
  std::lock_guard<std::mutex> Lock(PumpMutex);
  return eventsPerSecondLocked();
}

HostStats Host::foldedStatsLocked() const {
  // Field-by-field atomic reads: reactor-mode producers bump these
  // concurrently through bumpStat.
  HostStats S;
  S.EventsDelivered = readStat(Stats.EventsDelivered);
  S.SlicesRun = readStat(Stats.SlicesRun);
  S.MachinesCreated = readStat(Stats.MachinesCreated);
  S.EventsDropped = readStat(Stats.EventsDropped);
  S.EventsDuplicated = readStat(Stats.EventsDuplicated);
  S.EventsDelayed = readStat(Stats.EventsDelayed);
  S.MachinesCrashed = readStat(Stats.MachinesCrashed);
  S.MachinesRestarted = readStat(Stats.MachinesRestarted);
  S.QueueDepthHighWater = readStat(Stats.QueueDepthHighWater);
  S.LatencyDropped = readStat(Stats.LatencyDropped);
  S.MailboxSpills = readStat(Stats.MailboxSpills);
  S.TimersScheduled = readStat(Stats.TimersScheduled);
  S.TimersExpired = readStat(Stats.TimersExpired);
  if (R) {
    S.SlicesRun += R->slicesRun();
    S.LatencyDropped += R->latencyDropped();
    S.TimersExpired += R->timersExpired();
    S.MailboxSpills += R->mailboxSpills();
    S.QueueDepthHighWater =
        std::max(S.QueueDepthHighWater, R->queueHighWaterMax());
  }
  return S;
}

const HostStats &Host::stats() const {
  std::lock_guard<std::mutex> Lock(PumpMutex);
  Folded = foldedStatsLocked();
  return Folded;
}

std::vector<uint32_t> Host::queueHighWater() const {
  std::lock_guard<std::mutex> Lock(PumpMutex);
  std::vector<uint32_t> Out = QueueHighWater;
  if (R) {
    int32_t N = R->machineCount();
    Out.resize(std::max<size_t>(Out.size(), N), 0);
    for (int32_t Id = 0; Id != N; ++Id)
      Out[Id] = std::max(Out[Id], R->queueHighWater(Id));
    return Out;
  }
  Out.resize(Cfg.Machines.size(), 0);
  return Out;
}

bool Host::restartMachine(int32_t Id) {
  std::lock_guard<std::mutex> Lock(PumpMutex);
  const std::vector<std::pair<int32_t, Value>> NoInits;
  const auto &Inits = Id >= 0 &&
                              Id < static_cast<int32_t>(CreationInits.size())
                          ? CreationInits[Id]
                          : NoInits;
  if (ReactorOn.load(std::memory_order_acquire)) {
    // Requires the crash to have been processed (postCrash is async;
    // runToCompletion between crash and restart makes it determinate).
    if (!R->restartMachine(Id, Inits))
      return false;
    bumpStat(Stats.MachinesRestarted);
    return !Cfg.hasError();
  }
  if (!Exec.restartMachine(Cfg, Id, Inits))
    return false;
  ++Stats.MachinesRestarted;
  Sched.arm(Id);
  drain();
  return !Cfg.hasError();
}

void *Host::getContext(int32_t Id) const {
  if (Id < 0 || Id >= static_cast<int32_t>(Contexts.size()))
    return nullptr;
  return Contexts[Id];
}

void Host::setContext(int32_t Id, void *Context) {
  if (Id >= 0 && Id < static_cast<int32_t>(Contexts.size()))
    Contexts[Id] = Context;
}

std::string Host::currentStateName(int32_t Id) const {
  if (!Cfg.isLive(Id))
    return "";
  const MachineState &M = *Cfg.Machines[Id];
  if (M.Frames.empty())
    return "";
  return Prog.Machines[M.MachineIndex].States[M.Frames.back().State].Name;
}

void Host::attachTrace(obs::TraceRecorder &Recorder) {
  std::lock_guard<std::mutex> Lock(PumpMutex);
  Exec.setTraceSink(&Recorder.openSink());
}

void Host::detachTrace() {
  std::lock_guard<std::mutex> Lock(PumpMutex);
  Exec.setTraceSink(nullptr);
}

void Host::exportMetrics(obs::MetricsRegistry &Registry) const {
  std::lock_guard<std::mutex> Lock(PumpMutex);
  const HostStats S = foldedStatsLocked();
  Registry.counter("p_host_events_total", "SMAddEvent calls accepted")
      .inc(S.EventsDelivered);
  Registry
      .counter("p_host_slices_total", "Run-to-completion slices executed")
      .inc(S.SlicesRun);
  Registry.counter("p_host_machines_total", "Machines created")
      .inc(S.MachinesCreated);
  if (!R) // Racy against worker-side `new` while the reactor runs.
    Registry.gauge("p_host_machines_live", "Machines currently alive")
        .set(static_cast<double>(
            std::count_if(Cfg.Machines.begin(), Cfg.Machines.end(),
                          [](const CowMachine &M) { return M->Alive; })));
  Registry
      .counter("p_host_faults_dropped_total",
               "SMAddEvent calls swallowed by the fault plan")
      .inc(S.EventsDropped);
  Registry
      .counter("p_host_faults_duplicated_total",
               "SMAddEvent calls delivered twice by the fault plan")
      .inc(S.EventsDuplicated);
  Registry
      .counter("p_host_faults_delayed_total",
               "Deliveries deferred to a later pump by the fault plan")
      .inc(S.EventsDelayed);
  Registry
      .counter("p_host_faults_crashed_total",
               "Machines crashed (fault plan or crashMachine)")
      .inc(S.MachinesCrashed);
  Registry.counter("p_host_restarts_total", "Machines restarted")
      .inc(S.MachinesRestarted);
  Registry
      .counter("p_host_overflow_dropped_total",
               "Events discarded by OverflowPolicy::DropNewest")
      .inc(std::atomic_ref<uint64_t>(
               const_cast<uint64_t &>(Cfg.OverflowDropped))
               .load(std::memory_order_relaxed));
  Registry
      .counter("p_host_latency_dropped_total",
               "Dispatch-latency samples evicted past the pending cap")
      .inc(S.LatencyDropped);
  Registry
      .counter("p_host_mailbox_spills_total",
               "Mailbox ring overflows that took the spill list")
      .inc(S.MailboxSpills);
  Registry
      .counter("p_host_timers_scheduled_total",
               "Timer-wheel entries scheduled")
      .inc(S.TimersScheduled);
  Registry
      .counter("p_host_timers_expired_total",
               "Timer-wheel entries expired and delivered")
      .inc(S.TimersExpired);
  Registry
      .gauge("p_host_queue_depth_highwater",
             "Deepest any machine queue ever got")
      .set(static_cast<double>(S.QueueDepthHighWater));
  Registry
      .gauge("p_host_events_per_sec",
             "Accepted deliveries per wall-clock second")
      .set(eventsPerSecondLocked());
  Registry
      .histogram("p_host_dispatch_latency_seconds",
                 DispatchLatency.bounds(),
                 "Enqueue-to-dispatch latency of host-delivered events")
      .merge(DispatchLatency);
}

Value Host::readVar(int32_t Id, const std::string &VarName) const {
  if (!Cfg.isLive(Id))
    return Value::null();
  const MachineState &M = *Cfg.Machines[Id];
  const MachineInfo &Info = Prog.Machines[M.MachineIndex];
  for (size_t I = 0; I != Info.Vars.size(); ++I)
    if (Info.Vars[I].Name == VarName)
      return M.Vars[I];
  return Value::null();
}
