//===- checker/Liveness.cpp ---------------------------------------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "checker/Liveness.h"

#include "checker/Replay.h"
#include "checker/StateHash.h"
#include "checker/Successors.h"
#include "runtime/Executor.h"
#include "support/Hashing.h"

#include <map>
#include <set>
#include <unordered_map>
#include <vector>

using namespace p;

namespace {

using MachineEvent = std::pair<int32_t, int32_t>;

/// One node of the DFS path, with the edge that led into it.
struct PathNode {
  Config Cfg;
  SchedStack Sched;
  int DelaysUsed = 0;
  int FaultsUsed = 0; ///< Always 0: the graph has no fault edges.
  int32_t MustRun = -1;
  uint64_t Key = 0;

  // Edge into this node:
  int32_t ScheduledMachine = -1; ///< -1 for delay edges and the root.
  std::set<MachineEvent> Dequeued{};
  std::string Desc{};

  // Iteration state: children not yet explored.
  std::vector<PathNode> Pending{};
  bool Expanded = false;
};

class LivenessSearch {
public:
  LivenessSearch(const CompiledProgram &Prog, const LivenessOptions &Opts)
      : Prog(Prog), Opts(Opts), Exec(Prog, execOptions(Opts)),
        Succ(Exec, SearchStrategy::DelayBounded, Opts.DelayBound) {
    Exec.addDequeueObserver([this](int32_t Machine, int32_t Event) {
      CurrentDequeues.insert({Machine, Event});
    });
  }

  LivenessResult run();

private:
  static Executor::Options execOptions(const LivenessOptions &Opts) {
    Executor::Options EO;
    EO.UseModelBodies = Opts.UseModelBodies;
    EO.MaxStepsPerSlice = Opts.MaxStepsPerSlice;
    return EO;
  }

  /// The safety search's node key: the config hash with the stack, top
  /// first, and MustRun folded in at full width.
  static uint64_t keyOf(const PathNode &N) {
    uint64_t H = hashConfig(N.Cfg);
    for (int32_t Id : N.Sched)
      H = hashCombine(H, static_cast<uint32_t>(Id));
    return hashCombine(H, static_cast<uint32_t>(N.MustRun));
  }

  struct Sink;

  /// Checks the cycle path[Start..] closed by \p Closing for a fair
  /// starvation; fills the result on violation.
  bool analyzeCycle(size_t Start, const PathNode &Closing);

  const CompiledProgram &Prog;
  const LivenessOptions &Opts;
  Executor Exec;
  Successors Succ;
  std::set<MachineEvent> CurrentDequeues;

  std::vector<PathNode> Path;
  std::unordered_map<uint64_t, size_t> OnPath; ///< key -> path index.
  std::unordered_map<uint64_t, int> Done;      ///< key -> min delays used.
  LivenessResult Result;
};

/// The DFS's side of Successors::expand: each child becomes a pending
/// PathNode of \p Parent that carries its edge. Slices run on the
/// executor, whose dequeue observer rules out the slice memo.
struct LivenessSearch::Sink {
  LivenessSearch &S;
  PathNode &Parent;

  Executor::StepResult run(PathNode &C, int32_t Id) {
    C.Desc = "run " + S.Exec.describeMachine(C.Cfg, Id);
    C.ScheduledMachine = Id;
    S.CurrentDequeues.clear();
    const Executor::StepResult R = S.Exec.step(C.Cfg, Id);
    C.Dequeued = S.CurrentDequeues;
    return R;
  }
  void choose(Config &Cfg, int32_t Id, bool Choice) {
    applyDecision(S.Exec, Cfg, {SchedDecision::Kind::Choose, -1, Choice}, Id);
  }
  void child(PathNode &&C, const SchedDecision &D) {
    if (D.K == SchedDecision::Kind::Delay)
      C.Desc = "delay " + S.Exec.describeMachine(C.Cfg, D.Machine);
    Parent.Pending.push_back(std::move(C));
  }
  void choice(PathNode &&True, PathNode &&False) {
    True.Desc += " (choose true)";
    False.Desc += " (choose false)";
    Parent.Pending.push_back(std::move(True));
    Parent.Pending.push_back(std::move(False));
  }
  /// Safety errors are the Checker's job; a liveness search just does
  /// not continue past them.
  void error(PathNode &&) {}
  bool stopped() const { return false; }
};

bool LivenessSearch::analyzeCycle(size_t Start, const PathNode &Closing) {
  ++Result.CyclesChecked;

  // Collect the cycle's states and edges. Edges are the ones into
  // path[Start+1..] plus the closing edge.
  std::vector<const Config *> States;
  for (size_t I = Start; I != Path.size(); ++I)
    States.push_back(&Path[I].Cfg);

  std::set<int32_t> Scheduled;
  std::set<MachineEvent> Dequeued;
  for (size_t I = Start + 1; I < Path.size(); ++I) {
    if (Path[I].ScheduledMachine >= 0)
      Scheduled.insert(Path[I].ScheduledMachine);
    Dequeued.insert(Path[I].Dequeued.begin(), Path[I].Dequeued.end());
  }
  if (Closing.ScheduledMachine >= 0)
    Scheduled.insert(Closing.ScheduledMachine);
  Dequeued.insert(Closing.Dequeued.begin(), Closing.Dequeued.end());

  // Weak fairness: a machine enabled at every state of the loop must be
  // scheduled in it; otherwise the loop is an unfair schedule and not a
  // genuine violation.
  size_t NumMachines = States.front()->Machines.size();
  for (size_t M = 0; M != NumMachines; ++M) {
    bool AlwaysEnabled = true;
    for (const Config *Cfg : States)
      AlwaysEnabled &= M < Cfg->Machines.size() &&
                       Exec.isEnabled(*Cfg, static_cast<int32_t>(M));
    if (AlwaysEnabled && !Scheduled.count(static_cast<int32_t>(M)))
      return false;
  }

  // Starvation: a queue entry present at every state, never dequeued on
  // any edge, and not always postponed.
  const Config &First = *States.front();
  for (size_t M = 0; M != First.Machines.size(); ++M) {
    const MachineState &MS = *First.Machines[M];
    if (!MS.Alive)
      continue;
    for (const auto &[Event, Arg] : MS.Queue) {
      if (Dequeued.count({static_cast<int32_t>(M), Event}))
        continue;
      bool Persistent = true;
      bool AlwaysPostponed = true;
      for (const Config *Cfg : States) {
        if (M >= Cfg->Machines.size() || !Cfg->Machines[M]->Alive) {
          Persistent = false;
          break;
        }
        const MachineState &CMS = *Cfg->Machines[M];
        bool Present = false;
        for (const auto &[E2, V2] : CMS.Queue)
          Present |= (E2 == Event && V2 == Arg);
        if (!Present) {
          Persistent = false;
          break;
        }
        if (!CMS.Frames.empty()) {
          const StateInfo &St = Prog.Machines[CMS.MachineIndex]
                                    .States[CMS.Frames.back().State];
          AlwaysPostponed &= St.Postponed.test(Event);
        }
      }
      if (!Persistent || AlwaysPostponed)
        continue;

      Result.ViolationFound = true;
      Result.Message =
          "event '" + Prog.Events[Event].Name + "' pending at " +
          Exec.describeMachine(First, static_cast<int32_t>(M)) +
          " can be deferred forever under fair scheduling";
      for (size_t I = Start; I != Path.size(); ++I)
        Result.CycleTrace.push_back(Path[I].Desc.empty() ? "(start)"
                                                         : Path[I].Desc);
      Result.CycleTrace.push_back(Closing.Desc + " (closes the loop)");
      return true;
    }
  }
  return false;
}

LivenessResult LivenessSearch::run() {
  PathNode Root;
  Root.Cfg = Exec.makeInitialConfig();
  Root.Sched.push(0);
  Root.Key = keyOf(Root);
  Path.push_back(std::move(Root));
  OnPath[Path.back().Key] = 0;
  ++Result.NodesExplored;

  while (!Path.empty()) {
    if (Opts.MaxNodes && Result.NodesExplored >= Opts.MaxNodes) {
      Result.Exhausted = false;
      break;
    }
    PathNode &Top = Path.back();
    // A quiescent node has no outgoing edges, so no cycle runs through
    // it. The children grow from a copy of the node's search state; the
    // node keeps its own edge and its place on the path.
    if (!Top.Expanded && normalize(Exec, Top.Cfg, Top.Sched)) {
      Sink Out{*this, Top};
      Succ.expand(PathNode{.Cfg = Top.Cfg,
                           .Sched = Top.Sched,
                           .DelaysUsed = Top.DelaysUsed,
                           .MustRun = Top.MustRun},
                  Out);
    }
    Top.Expanded = true;

    if (Top.Pending.empty()) {
      auto It = Done.find(Top.Key);
      if (It == Done.end() || It->second > Top.DelaysUsed)
        Done[Top.Key] = Top.DelaysUsed;
      OnPath.erase(Top.Key);
      Path.pop_back();
      continue;
    }

    PathNode Child = std::move(Top.Pending.back());
    Top.Pending.pop_back();
    Child.Key = keyOf(Child);

    auto OnIt = OnPath.find(Child.Key);
    if (OnIt != OnPath.end()) {
      if (analyzeCycle(OnIt->second, Child))
        return Result;
      continue;
    }
    auto DoneIt = Done.find(Child.Key);
    if (DoneIt != Done.end() && DoneIt->second <= Child.DelaysUsed)
      continue;
    if (static_cast<int>(Path.size()) >= Opts.DepthBound) {
      Result.Exhausted = false;
      continue;
    }
    ++Result.NodesExplored;
    OnPath[Child.Key] = Path.size();
    Path.push_back(std::move(Child));
  }
  return Result;
}

} // namespace

LivenessResult p::checkLiveness(const CompiledProgram &Prog,
                                const LivenessOptions &Opts) {
  LivenessSearch Search(Prog, Opts);
  return Search.run();
}
