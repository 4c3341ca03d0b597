//===- checker/Successors.h - The children of one search node -------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one statement of the schedule graph of Section 5's delaying
/// scheduler. A node is a configuration, the scheduler's stack S, the
/// delays and faults its path spent, and MustRun, the machine that
/// resumes after a `*` or a foreign call. normalize pops disabled
/// machines off S (an empty S is quiescent); expand emits the children
/// in push order:
///
///  1. with fault budget left and no MustRun, the fault children:
///     crashes, duplicates, drops, each descending by (machine, index);
///  2. with delays left, no MustRun and two machines in S, the Delay
///     child, which rotates the top of S to the bottom;
///  3. the Run child of MustRun or the top of S (depth-bounded: of every
///     enabled machine, descending). A `*` yields a true/false pair; a
///     foreign call its failing branch (within the fault budget), then
///     its success branch.
///
/// A DFS that pops the last child first visits them in compareDecision
/// order, the reverse of push order: lex order is the serial order.
///
/// Invariant: every enabled machine is in S. SchedStack::afterSlice
/// pushes every send or `new` target, the host arms every external one,
/// and only a disabled machine leaves S; normalize asserts it.
///
/// ParallelSearch normalizes, admits and expands a node; the liveness
/// DFS normalizes and expands with no fault spec; Host::drain
/// normalizes and runs the top (d = 0, no `*` branches).
///
//===----------------------------------------------------------------------===//

#ifndef P_CHECKER_SUCCESSORS_H
#define P_CHECKER_SUCCESSORS_H

#include "checker/Checker.h"
#include "checker/Replay.h"
#include "checker/SchedStack.h"

#include <type_traits>
#include <vector>

namespace p {

/// Orders sibling decisions the way the serial DFS explores them: by
/// kind (Run, Delay, Choose, then the faults), then machine, queue index
/// and choice (false first). Lex order over schedules is the serial
/// visit order, so the lex-least counterexample is the serial one.
int compareDecision(const SchedDecision &A, const SchedDecision &B);
int compareSchedule(const std::vector<SchedDecision> &A,
                    const std::vector<SchedDecision> &B);

/// True when \p D costs one fault: a queue fault, a crash, or a failed
/// foreign call.
inline bool spendsFault(const SchedDecision &D) {
  return D.K >= SchedDecision::Kind::DropEvent &&
         (D.K != SchedDecision::Kind::ForeignFault || D.Choice);
}

/// The highest id below \p Below of an enabled machine, or -1.
inline int32_t lastEnabled(const Executor &Exec, const Config &Cfg,
                           int32_t Below) {
  while (Below-- > 0)
    if (Exec.isEnabled(Cfg, Below))
      return Below;
  return -1;
}

/// Pops disabled machines off \p S. False when S empties: quiescence.
bool normalize(const Executor &Exec, const Config &Cfg, SchedStack &S);

/// The children of a normalized node. NodeT has members Cfg, Sched,
/// DelaysUsed, FaultsUsed and MustRun; each child is a copy of the node
/// except the Run child, which is the node itself. SinkT provides:
///
///   Executor::StepResult run(NodeT &N, int32_t Id); // Id's slice on N
///   void choose(Config &Cfg, int32_t Id, bool Choice); // resolve a `*`
///   void child(NodeT &&C, const SchedDecision &D); // C, made by D
///   void choice(NodeT &&True, NodeT &&False); // the branches of a `*`
///   void error(NodeT &&N); // the slice ended in an error
///   bool stopped() const;  // ends a depth-bounded expansion early
class Successors {
public:
  /// \p Faults, when given, adds fault children under its budget.
  Successors(const Executor &Exec, SearchStrategy Strategy, int DelayBound,
             const FaultSpec *Faults = nullptr)
      : Exec(Exec), Strategy(Strategy), DelayBound(DelayBound),
        Faults(Faults && Faults->enabled() ? Faults : nullptr) {}

  /// Emits \p N's children to \p Sink, consuming \p N. False when a
  /// depth-bounded node has no enabled machine.
  template <typename NodeT, typename SinkT>
  bool expand(NodeT &&N, SinkT &Sink) const {
    static_assert(!std::is_lvalue_reference_v<NodeT>,
                  "expand consumes its node");
    if (N.MustRun >= 0) { // Resume the machine stopped mid-slice.
      const int32_t Id = N.MustRun;
      runChild(std::move(N), Id, Sink);
      return true;
    }
    if (Faults && N.FaultsUsed < Faults->Budget)
      emitFaults(N, Sink);
    if (Strategy == SearchStrategy::DelayBounded) {
      if (N.DelaysUsed < DelayBound && N.Sched.size() > 1) {
        const SchedDecision D{SchedDecision::Kind::Delay, N.Sched.top()};
        NodeT C = N; // copy
        C.Sched.rotate();
        C.DelaysUsed += 1;
        applyDecision(Exec, C.Cfg, D, -1);
        Sink.child(std::move(C), D);
      }
      const int32_t Top = N.Sched.top();
      runChild(std::move(N), Top, Sink);
      return true;
    }
    const int32_t NumM = static_cast<int32_t>(N.Cfg.Machines.size());
    int32_t Id = lastEnabled(Exec, N.Cfg, NumM);
    if (Id < 0)
      return false;
    for (;;) {
      const int32_t Next = lastEnabled(Exec, N.Cfg, Id);
      if (Next < 0) {
        runChild(std::move(N), Id, Sink);
        return true;
      }
      runChild(NodeT(N), Id, Sink); // copy per further machine
      if (Sink.stopped())
        return true;
      Id = Next;
    }
  }

private:
  /// Emits the copy of \p N that spends one fault on \p D.
  template <typename NodeT, typename SinkT>
  void emitFault(const NodeT &N, const SchedDecision &D, SinkT &Sink) const {
    NodeT C = N; // copy
    C.FaultsUsed += 1;
    applyDecision(Exec, C.Cfg, D, -1);
    if (D.K == SchedDecision::Kind::Crash)
      C.Sched.remove(D.Machine);
    Sink.child(std::move(C), D);
  }

  /// One fault child per crashable live machine, duplicable queue entry
  /// and droppable queue entry, in that order, each descending.
  template <typename NodeT, typename SinkT>
  void emitFaults(const NodeT &N, SinkT &Sink) const {
    using Kind = SchedDecision::Kind;
    const FaultSpec &F = *Faults;
    const int32_t NumM = static_cast<int32_t>(N.Cfg.Machines.size());
    for (int32_t Id = NumM; F.Crash && Id-- > 0;) {
      const MachineState &M = *N.Cfg.Machines[Id];
      if (M.Alive && F.crashTypeAllowed(M.MachineIndex))
        emitFault(N, {Kind::Crash, Id}, Sink);
    }
    for (const Kind K : {Kind::DupEvent, Kind::DropEvent}) {
      if (K == Kind::DupEvent ? !F.Duplicate : !F.Drop)
        continue;
      for (int32_t Id = NumM; Id-- > 0;) {
        const MachineState &M = *N.Cfg.Machines[Id];
        for (auto Q = M.Alive ? static_cast<int32_t>(M.Queue.size()) : 0;
             Q-- > 0;)
          if (F.eventAllowed(M.Queue[Q].first))
            emitFault(N, {K, Id, false, Q}, Sink);
      }
    }
  }

  /// Runs machine \p Id's slice on \p N and emits what it leads to.
  template <typename NodeT, typename SinkT>
  void runChild(NodeT &&N, int32_t Id, SinkT &Sink) const {
    const Executor::StepResult R = Sink.run(N, Id);
    if (R.Outcome == Executor::StepOutcome::Error)
      return Sink.error(std::move(N));
    if (Strategy == SearchStrategy::DelayBounded)
      N.Sched.afterSlice(Id, R);
    // After a `*` or a foreign call the same machine resumes.
    const bool Choice = R.Outcome == Executor::StepOutcome::ChoicePoint;
    const bool Foreign = R.Outcome == Executor::StepOutcome::ForeignCall;
    N.MustRun = Choice || Foreign ? Id : -1;
    if (Choice) {
      NodeT True = N; // copy
      Sink.choose(True.Cfg, Id, true);
      Sink.choose(N.Cfg, Id, false);
      return Sink.choice(std::move(True), std::move(N));
    }
    SchedDecision D{SchedDecision::Kind::Run, Id};
    if (Foreign) { // The environment fails the call, for a fault, or not.
      D.K = SchedDecision::Kind::ForeignFault;
      if (Faults && Faults->FailForeign && N.FaultsUsed < Faults->Budget)
        emitFault(N, {D.K, Id, true}, Sink);
      applyDecision(Exec, N.Cfg, D, Id);
    }
    Sink.child(std::move(N), D);
  }

  const Executor &Exec;
  const SearchStrategy Strategy;
  const int DelayBound;
  const FaultSpec *const Faults; ///< Null without a fault budget.
};

} // namespace p

#endif // P_CHECKER_SUCCESSORS_H
