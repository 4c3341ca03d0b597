//===- checker/Liveness.cpp ---------------------------------------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "checker/Liveness.h"

#include "checker/Replay.h"
#include "checker/SchedStack.h"
#include "checker/StateHash.h"
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
  int32_t MustRun = -1;
  uint64_t Key = 0;

  // Edge into this node:
  int32_t ScheduledMachine = -1; ///< -1 for delay edges and the root.
  std::set<MachineEvent> Dequeued;
  std::string Desc;

  // Iteration state: children not yet explored.
  std::vector<PathNode> Pending;
  bool Expanded = false;
};

class LivenessSearch {
public:
  LivenessSearch(const CompiledProgram &Prog, const LivenessOptions &Opts)
      : Prog(Prog), Opts(Opts), Exec(Prog, execOptions(Opts)) {
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

  /// Generates the children of \p N (after normalization).
  void expand(PathNode &N);

  /// Checks the cycle path[Start..] closed by \p Closing for a fair
  /// starvation; fills the result on violation.
  bool analyzeCycle(size_t Start, const PathNode &Closing);

  const CompiledProgram &Prog;
  const LivenessOptions &Opts;
  Executor Exec;
  std::set<MachineEvent> CurrentDequeues;

  std::vector<PathNode> Path;
  std::unordered_map<uint64_t, size_t> OnPath; ///< key -> path index.
  std::unordered_map<uint64_t, int> Done;      ///< key -> min delays used.
  LivenessResult Result;
};

void LivenessSearch::expand(PathNode &N) {
  N.Expanded = true;

  // Normalize the scheduler stack.
  while (!N.Sched.empty() && !Exec.isEnabled(N.Cfg, N.Sched.top()))
    N.Sched.pop();
  if (N.Sched.empty())
    return; // Quiescent: no outgoing edges, no cycles through here.

  // Delay child.
  if (N.MustRun < 0 && N.DelaysUsed < Opts.DelayBound && N.Sched.size() > 1) {
    PathNode Child;
    Child.Cfg = N.Cfg;
    Child.Sched = N.Sched;
    Child.Sched.rotate();
    Child.DelaysUsed = N.DelaysUsed + 1;
    Child.Desc = "delay " + Exec.describeMachine(N.Cfg, N.Sched.top());
    N.Pending.push_back(std::move(Child));
  }

  // Run child(ren).
  int32_t Top = N.MustRun >= 0 ? N.MustRun : N.Sched.top();
  PathNode Child;
  Child.Cfg = N.Cfg;
  Child.Sched = N.Sched;
  Child.DelaysUsed = N.DelaysUsed;
  Child.Desc = "run " + Exec.describeMachine(N.Cfg, Top);
  Child.ScheduledMachine = Top;

  CurrentDequeues.clear();
  Executor::StepResult R = Exec.step(Child.Cfg, Top);
  Child.Dequeued = CurrentDequeues;

  // Safety errors are the Checker's job; a liveness search just does
  // not continue past them.
  if (R.Outcome == Executor::StepOutcome::Error)
    return;
  Child.Sched.afterSlice(Top, R);
  if (R.Outcome == Executor::StepOutcome::ChoicePoint) {
    // The chooser resumes with its `*` resolved each way.
    Child.MustRun = Top;
    SchedDecision Choose;
    Choose.K = SchedDecision::Kind::Choose;
    PathNode TrueChild = Child;
    Choose.Choice = true;
    applyDecision(Exec, TrueChild.Cfg, Choose, Top);
    TrueChild.Desc += " (choose true)";
    N.Pending.push_back(std::move(TrueChild));
    Choose.Choice = false;
    applyDecision(Exec, Child.Cfg, Choose, Top);
    Child.Desc += " (choose false)";
  }
  N.Pending.push_back(std::move(Child));
}

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
    if (!Top.Expanded)
      expand(Top);

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
