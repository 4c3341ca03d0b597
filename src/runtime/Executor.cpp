//===- runtime/Executor.cpp --------------------------------------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Rule-to-code map (Figures 4–6):
//   ASSIGN/SEQ/IF/WHILE  — straight-line bytecode in execInstr
//   NEW                  — Opcode::New + createMachine
//   SEND (+ ⊎)           — Opcode::Send + enqueueEvent
//   DELETE               — Opcode::Delete
//   ASSERT-PASS/FAIL     — Opcode::Assert
//   RAISE                — Opcode::Raise sets the pending raise; exit
//                          insertion happens in dispatchRaise
//   LEAVE                — Opcode::Leave clears the exec stack
//   RETURN + POP2        — Opcode::Return schedules TransferKind::PopReturn
//   DEQUEUE              — the dequeue branch of step()
//   STEP/CALL/ACTION/POP1 — dispatchRaise + applyTransfer
//   SEND-FAIL1/2, POP-FAIL — raiseError sites
//
//===----------------------------------------------------------------------===//

#include "runtime/Executor.h"

#include "ast/AST.h"
#include "fault/Fault.h"
#include "obs/Trace.h"

#include <cassert>

using namespace p;
using obs::TraceKind;

void Executor::registerForeign(const std::string &Machine,
                               const std::string &Fun, ForeignFn Fn) {
  ForeignFns[{Machine, Fun}] = std::move(Fn);
}

void Executor::raiseError(Config &Cfg, int32_t Id, ErrorKind Kind,
                          std::string Message) const {
  if (ErrorMu) {
    // Reactor mode: first error wins, and the message fields are
    // published before the flag (storeErrorKind is a release store that
    // hasError()'s acquire load pairs with).
    std::lock_guard<std::mutex> Lock(*ErrorMu);
    if (Cfg.hasError())
      return;
    Cfg.ErrorMessage = std::move(Message);
    Cfg.ErrorMachine = Id;
    Cfg.storeErrorKind(Kind);
  } else {
    Cfg.ErrorMessage = std::move(Message);
    Cfg.ErrorMachine = Id;
    Cfg.storeErrorKind(Kind);
  }
  if (Trace)
    Trace->record(TraceKind::Error, Id, static_cast<int32_t>(Kind));
}

void Executor::pushBodyFrame(MachineState &M, int32_t Body,
                             FrameKind Kind) const {
  assert(Body >= 0 && "pushing a missing body");
  ExecFrame F;
  F.Body = Body;
  F.Kind = Kind;
  M.Exec.push_back(std::move(F));
}

int32_t Executor::createMachine(
    Config &Cfg, int32_t MachineIndex,
    const std::vector<std::pair<int32_t, Value>> &Inits) const {
  assert(MachineIndex >= 0 &&
         MachineIndex < static_cast<int32_t>(Prog.Machines.size()));
  const MachineInfo &Info = Prog.Machines[MachineIndex];
  assert(!Info.States.empty() && "machine with no states");

  MachineState M;
  M.MachineIndex = MachineIndex;
  M.Alive = true;
  M.Vars.assign(Info.Vars.size(), Value::null());
  for (const auto &[VarIndex, V] : Inits) {
    assert(VarIndex >= 0 &&
           VarIndex < static_cast<int32_t>(M.Vars.size()));
    M.Vars[VarIndex] = V;
  }

  StateFrame Frame;
  Frame.State = 0; // Init(m) is the first declared state.
  Frame.Inherit.assign(Prog.Events.size(), InheritNone);
  M.Frames.push_back(std::move(Frame));

  if (Info.States[0].EntryBody >= 0)
    pushBodyFrame(M, Info.States[0].EntryBody, FrameKind::Entry);

  int32_t Id;
  {
    // Reactor mode: the push_back must not move the handle array under
    // lock-free readers, so growth past the pre-reserved capacity is a
    // fail-stop error instead of a reallocation.
    std::unique_lock<std::mutex> Lock;
    if (StructuralMu) {
      Lock = std::unique_lock<std::mutex>(*StructuralMu);
      if (Cfg.Machines.size() == Cfg.Machines.capacity()) {
        Lock.unlock();
        raiseError(Cfg, static_cast<int32_t>(Cfg.Machines.size()),
                   ErrorKind::ResourceExhausted,
                   "machine table full (" +
                       std::to_string(Cfg.Machines.capacity()) +
                       " reserved); raise ReactorOptions::MaxMachines");
        return -1;
      }
    }
    Cfg.Machines.push_back(CowMachine(std::move(M)));
    Id = static_cast<int32_t>(Cfg.Machines.size()) - 1;
    if (CreateHook)
      CreateHook(Cfg, Id);
  }
  if (Trace) {
    Trace->record(TraceKind::New, Id, MachineIndex);
    Trace->record(TraceKind::StateEnter, Id, 0, MachineIndex);
  }
  return Id;
}

Config Executor::makeInitialConfig() const {
  Config Cfg;
  assert(Prog.MainMachine >= 0 &&
         "program has no main machine; create one explicitly");
  createMachine(Cfg, Prog.MainMachine);
  return Cfg;
}

bool Executor::enqueueEvent(Config &Cfg, int32_t Target, int32_t Event,
                            Value Arg) const {
  if (Target < 0 || Target >= static_cast<int32_t>(Cfg.Machines.size())) {
    raiseError(Cfg, Target, ErrorKind::SendToNull,
               "send to invalid machine id " + std::to_string(Target));
    return false;
  }
  const MachineState &M = *Cfg.Machines[Target];
  if (M.Crashed)
    // Fault model: a crashed process neither receives nor errors the
    // sender — the message vanishes on the wire (unlike SEND-FAIL2,
    // which models a program bug, not an environment fault).
    return true;
  if (!M.Alive) {
    raiseError(Cfg, Target, ErrorKind::SendToDeleted,
               "send to deleted machine id " + std::to_string(Target));
    return false;
  }
  // The ⊎ append: an identical (event, payload) pair already queued is
  // not duplicated (guards against event flooding; Section 3.1). Read
  // through the snapshot — the COW clone happens only on the actual
  // append below.
  for (const auto &[E, V] : M.Queue)
    if (E == Event && V == Arg)
      return true;
  if (Cfg.MaxQueue != 0 && M.Queue.size() >= Cfg.MaxQueue) {
    if (Cfg.Overflow == OverflowPolicy::DropNewest) {
      Cfg.countOverflowDrop();
      if (Trace)
        Trace->record(TraceKind::QueueOverflow, Target, Event,
                      static_cast<int32_t>(Cfg.Overflow));
      return true;
    }
    // Error, and Block at the machine-to-machine level (only the host
    // boundary can actually wait; see OverflowPolicy).
    raiseError(Cfg, Target, ErrorKind::QueueOverflow,
               "queue of machine id " + std::to_string(Target) +
                   " exceeded MaxQueue=" + std::to_string(Cfg.MaxQueue));
    return false;
  }
  Cfg.Machines[Target].mut().Queue.emplace_back(Event, Arg);
  return true;
}

bool Executor::crashMachine(Config &Cfg, int32_t Id) const {
  if (!Cfg.isLive(Id))
    return false;
  MachineState &M = Cfg.Machines[Id].mut();
  // Discard the whole machine configuration, like Opcode::Delete, but
  // remember that the death was a fault so sends keep dropping silently
  // and restartMachine can bring the id back.
  M.Alive = false;
  M.Crashed = true;
  M.Exec.clear();
  M.Frames.clear();
  M.Queue.clear();
  M.Vars.clear();
  M.HasRaise = false;
  M.Transfer = TransferKind::None;
  M.InjectedChoice.reset();
  M.InjectedForeignFail.reset();
  if (Trace)
    Trace->record(TraceKind::FaultInjected, Id,
                  static_cast<int32_t>(FaultKind::CrashMachine));
  return true;
}

bool Executor::restartMachine(
    Config &Cfg, int32_t Id,
    const std::vector<std::pair<int32_t, Value>> &Inits) const {
  if (Id < 0 || Id >= static_cast<int32_t>(Cfg.Machines.size()))
    return false;
  if (!Cfg.Machines[Id]->Crashed)
    return false;
  MachineState &M = Cfg.Machines[Id].mut();
  const MachineInfo &Info = Prog.Machines[M.MachineIndex];

  // Rebuild the machine configuration the way createMachine does, in
  // place: fresh variables, initial state, entry statement pending.
  M.Alive = true;
  M.Crashed = false;
  M.Vars.assign(Info.Vars.size(), Value::null());
  for (const auto &[VarIndex, V] : Inits) {
    assert(VarIndex >= 0 && VarIndex < static_cast<int32_t>(M.Vars.size()));
    M.Vars[VarIndex] = V;
  }
  M.Msg = Value::null();
  M.Arg = Value::null();

  StateFrame Frame;
  Frame.State = 0;
  Frame.Inherit.assign(Prog.Events.size(), InheritNone);
  M.Frames.push_back(std::move(Frame));
  if (Info.States[0].EntryBody >= 0)
    pushBodyFrame(M, Info.States[0].EntryBody, FrameKind::Entry);

  if (Trace) {
    Trace->record(TraceKind::FaultInjected, Id,
                  static_cast<int32_t>(FaultKind::RestartMachine));
    Trace->record(TraceKind::StateEnter, Id, 0, M.MachineIndex);
  }
  return true;
}

int Executor::findEligibleEvent(const Config &Cfg,
                                const MachineState &M) const {
  (void)Cfg;
  if (M.Frames.empty())
    return -1;
  const StateFrame &Top = M.Frames.back();
  const StateInfo &St =
      Prog.Machines[M.MachineIndex].States[Top.State];
  for (size_t I = 0; I != M.Queue.size(); ++I) {
    int32_t E = M.Queue[I].first;
    // t: events with a static transition or action here always dequeue.
    if (St.OnEvent[E].Kind != TransitionKind::None)
      return static_cast<int>(I);
    // d' = (inherited-deferred ∪ Deferred(m,n)) − t.
    bool Deferred =
        Top.Inherit[E] == InheritDeferred || St.Deferred.test(E);
    if (!Deferred)
      return static_cast<int>(I);
  }
  return -1;
}

bool Executor::isEnabled(const Config &Cfg, int32_t Id) const {
  if (!Cfg.isLive(Id))
    return false;
  const MachineState &M = *Cfg.Machines[Id];
  if (!M.Exec.empty() || M.HasRaise || M.Transfer != TransferKind::None)
    return true;
  return findEligibleEvent(Cfg, M) >= 0;
}

std::vector<int32_t>
Executor::computeCallInherit(const MachineState &M) const {
  // The a' map of the CALL rule: transitions null out the entry, static
  // actions bind it, static deferral marks ⊤, everything else inherits.
  const StateFrame &Top = M.Frames.back();
  const StateInfo &St = Prog.Machines[M.MachineIndex].States[Top.State];
  std::vector<int32_t> Result = Top.Inherit;
  for (size_t E = 0; E != Result.size(); ++E) {
    const Transition &T = St.OnEvent[E];
    switch (T.Kind) {
    case TransitionKind::Step:
    case TransitionKind::Call:
      Result[E] = InheritNone;
      break;
    case TransitionKind::Action:
      Result[E] = T.Target;
      break;
    case TransitionKind::None:
      if (St.Deferred.test(static_cast<int>(E)))
        Result[E] = InheritDeferred;
      break;
    }
  }
  return Result;
}

void Executor::applyTransfer(Config &Cfg, int32_t Id) const {
  MachineState &M = Cfg.Machines[Id].mut();
  const MachineInfo &Info = Prog.Machines[M.MachineIndex];
  TransferKind Kind = M.Transfer;
  int32_t Target = M.TransferTarget;
  M.Transfer = TransferKind::None;
  M.TransferTarget = -1;

  switch (Kind) {
  case TransferKind::None:
    assert(false && "applyTransfer with no pending transfer");
    return;
  case TransferKind::Step: {
    // STEP: replace the top state, keep the inherited map, run entry.
    assert(!M.Frames.empty());
    if (Trace) {
      Trace->record(TraceKind::StateExit, Id, M.Frames.back().State,
                    M.MachineIndex);
      Trace->record(TraceKind::StateEnter, Id, Target, M.MachineIndex);
    }
    M.Frames.back().State = Target;
    M.Frames.back().SavedCont.clear();
    if (Info.States[Target].EntryBody >= 0)
      pushBodyFrame(M, Info.States[Target].EntryBody, FrameKind::Entry);
    return;
  }
  case TransferKind::PopRaise: {
    // POP1: the event propagates to the caller; a continuation saved by
    // a `call S;` statement is aborted (the raise terminates it).
    assert(!M.Frames.empty());
    if (Trace)
      Trace->record(TraceKind::StateExit, Id, M.Frames.back().State,
                    M.MachineIndex);
    M.Frames.pop_back();
    if (M.Frames.empty()) {
      const std::string EventName =
          M.HasRaise ? Prog.Events[M.RaiseEvent].Name : "<none>";
      raiseError(Cfg, Id, ErrorKind::UnhandledEvent,
                 "machine " + Info.Name + " (id " + std::to_string(Id) +
                     ") cannot handle event '" + EventName + "'");
    }
    return;
  }
  case TransferKind::PopReturn: {
    // POP2: pop and resume the saved continuation, if any.
    assert(!M.Frames.empty());
    if (Trace)
      Trace->record(TraceKind::StateExit, Id, M.Frames.back().State,
                    M.MachineIndex);
    std::vector<ExecFrame> Cont = std::move(M.Frames.back().SavedCont);
    M.Frames.pop_back();
    M.HasRaise = false;
    if (M.Frames.empty()) {
      raiseError(Cfg, Id, ErrorKind::PopFromEmptyStack,
                 "machine " + Info.Name + " (id " + std::to_string(Id) +
                     ") returned from its bottom state");
      return;
    }
    if (!Cont.empty())
      M.Exec = std::move(Cont);
    return;
  }
  }
}

void Executor::dispatchRaise(Config &Cfg, int32_t Id) const {
  MachineState &M = Cfg.Machines[Id].mut();
  const MachineInfo &Info = Prog.Machines[M.MachineIndex];
  assert(M.HasRaise && M.Exec.empty() &&
         M.Transfer == TransferKind::None);

  if (M.Frames.empty()) {
    raiseError(Cfg, Id, ErrorKind::UnhandledEvent,
               "machine " + Info.Name + " (id " + std::to_string(Id) +
                   ") raised '" + Prog.Events[M.RaiseEvent].Name +
                   "' with an empty call stack");
    return;
  }

  StateFrame &Top = M.Frames.back();
  const StateInfo &St = Info.States[Top.State];
  const int32_t E = M.RaiseEvent;
  const Transition &T = St.OnEvent[E];

  if (!DispatchObservers.empty()) {
    // Inherited actions report as Action; everything unhandled as None.
    TransitionKind Kind = T.Kind;
    if (Kind == TransitionKind::None && Top.Inherit[E] >= 0)
      Kind = TransitionKind::Action;
    for (const DispatchObserverFn &Observer : DispatchObservers)
      Observer(M.MachineIndex, Top.State, E, Kind);
  }

  switch (T.Kind) {
  case TransitionKind::Step: {
    // The transition consumes the event now; the exit statement runs
    // first when present (DEQUEUE/RAISE insert Exit when stepping).
    M.HasRaise = false;
    M.Transfer = TransferKind::Step;
    M.TransferTarget = T.Target;
    if (St.ExitBody >= 0)
      pushBodyFrame(M, St.ExitBody, FrameKind::Exit);
    return;
  }
  case TransitionKind::Call: {
    // CALL: push (n', a'); no exit statement runs.
    std::vector<int32_t> Inherit = computeCallInherit(M);
    M.HasRaise = false;
    StateFrame Frame;
    Frame.State = T.Target;
    Frame.Inherit = std::move(Inherit);
    M.Frames.push_back(std::move(Frame));
    if (Trace)
      Trace->record(TraceKind::StateEnter, Id, T.Target, M.MachineIndex);
    if (Info.States[T.Target].EntryBody >= 0)
      pushBodyFrame(M, Info.States[T.Target].EntryBody, FrameKind::Entry);
    return;
  }
  case TransitionKind::Action: {
    // ACTION with a static binding (overrides any inherited one).
    M.HasRaise = false;
    int32_t Body = Info.ActionBodies[T.Target];
    if (Body >= 0)
      pushBodyFrame(M, Body, FrameKind::Action);
    return;
  }
  case TransitionKind::None:
    break;
  }

  int32_t Inherited = Top.Inherit[E];
  if (Inherited >= 0) {
    // ACTION with an inherited binding.
    M.HasRaise = false;
    int32_t Body = Info.ActionBodies[Inherited];
    if (Body >= 0)
      pushBodyFrame(M, Body, FrameKind::Action);
    return;
  }

  // POP1: nothing here handles the event (inherited entry is ⊥ or ⊤);
  // pop after running the exit statement, keeping the raise pending.
  M.Transfer = TransferKind::PopRaise;
  if (St.ExitBody >= 0)
    pushBodyFrame(M, St.ExitBody, FrameKind::Exit);
  return;
}

//===----------------------------------------------------------------------===//
// Instruction execution
//===----------------------------------------------------------------------===//

namespace {

Value evalUnary(UnaryOp Op, const Value &V) {
  if (V.isNull())
    return Value::null(); // ⊥ propagates through operators.
  switch (Op) {
  case UnaryOp::Not:
    return V.isBool() ? Value::boolean(!V.asBool()) : Value::null();
  case UnaryOp::Neg:
    return V.isInt() ? Value::integer(-V.asInt()) : Value::null();
  }
  return Value::null();
}

Value evalBinary(BinaryOp Op, const Value &L, const Value &R) {
  // All operators are strict in ⊥ (Section 3: "Binary and unary
  // operators evaluate to ⊥ if any of the operand expressions evaluate
  // to ⊥"), including equality.
  if (L.isNull() || R.isNull())
    return Value::null();
  switch (Op) {
  case BinaryOp::Add:
  case BinaryOp::Sub:
  case BinaryOp::Mul:
  case BinaryOp::Div: {
    if (!L.isInt() || !R.isInt())
      return Value::null();
    int64_t A = L.asInt(), B = R.asInt();
    switch (Op) {
    case BinaryOp::Add:
      return Value::integer(A + B);
    case BinaryOp::Sub:
      return Value::integer(A - B);
    case BinaryOp::Mul:
      return Value::integer(A * B);
    case BinaryOp::Div:
      return B == 0 ? Value::null() : Value::integer(A / B);
    default:
      break;
    }
    return Value::null();
  }
  case BinaryOp::And:
  case BinaryOp::Or: {
    if (!L.isBool() || !R.isBool())
      return Value::null();
    bool A = L.asBool(), B = R.asBool();
    return Value::boolean(Op == BinaryOp::And ? (A && B) : (A || B));
  }
  case BinaryOp::Eq:
    return Value::boolean(L == R);
  case BinaryOp::Ne:
    return Value::boolean(!(L == R));
  case BinaryOp::Lt:
  case BinaryOp::Le:
  case BinaryOp::Gt:
  case BinaryOp::Ge: {
    if (!L.isInt() || !R.isInt())
      return Value::null();
    int64_t A = L.asInt(), B = R.asInt();
    switch (Op) {
    case BinaryOp::Lt:
      return Value::boolean(A < B);
    case BinaryOp::Le:
      return Value::boolean(A <= B);
    case BinaryOp::Gt:
      return Value::boolean(A > B);
    case BinaryOp::Ge:
      return Value::boolean(A >= B);
    default:
      break;
    }
    return Value::null();
  }
  }
  return Value::null();
}

} // namespace

Executor::InstrResult Executor::execInstr(Config &Cfg, int32_t Id) const {
  // The COW clone for this slice: the first mut() on a shared snapshot
  // copies it; every later one on the same (now unique) snapshot is one
  // acquire load of its reference count. References into the snapshot stay valid across
  // Cfg.Machines growth because snapshots live on the heap.
  MachineState &M = Cfg.Machines[Id].mut();
  const MachineInfo &Info = Prog.Machines[M.MachineIndex];
  ExecFrame &Frame = M.Exec.back();
  const Body &B = Info.Bodies[Frame.Body];

  InstrResult Res;
  auto fail = [&](ErrorKind Kind, std::string Message) {
    raiseError(Cfg, Id, Kind, std::move(Message));
    Res.Kind = InstrResult::Error;
    return Res;
  };

  assert(Frame.PC >= 0 && Frame.PC < static_cast<int32_t>(B.Code.size()) &&
         "PC out of range");
  const Instr I = B.Code[Frame.PC];
  const SourceLoc Loc = B.Locs[Frame.PC];
  auto &Stack = Frame.Operands;
  auto popValue = [&Stack]() {
    assert(!Stack.empty() && "operand stack underflow");
    Value V = Stack.back();
    Stack.pop_back();
    return V;
  };

  switch (I.Op) {
  case Opcode::PushNull:
    Stack.push_back(Value::null());
    break;
  case Opcode::PushBool:
    Stack.push_back(Value::boolean(I.A != 0));
    break;
  case Opcode::PushInt:
    Stack.push_back(Value::integer(I.A));
    break;
  case Opcode::PushEvent:
    Stack.push_back(Value::event(I.A));
    break;
  case Opcode::LoadVar:
    Stack.push_back(M.Vars[I.A]);
    break;
  case Opcode::StoreVar:
    M.Vars[I.A] = popValue();
    break;
  case Opcode::LoadThis:
    Stack.push_back(Value::machine(Id));
    break;
  case Opcode::LoadMsg:
    Stack.push_back(M.Msg);
    break;
  case Opcode::LoadArg:
    Stack.push_back(M.Arg);
    break;
  case Opcode::LoadParam:
    assert(Frame.Kind == FrameKind::Model && "LoadParam outside a model");
    Stack.push_back(Frame.Params[I.A]);
    break;
  case Opcode::StoreResult:
    assert(Frame.Kind == FrameKind::Model &&
           "StoreResult outside a model");
    Frame.Result = popValue();
    break;
  case Opcode::Nondet: {
    if (M.InjectedChoice) {
      Stack.push_back(Value::boolean(*M.InjectedChoice));
      M.InjectedChoice.reset();
      break;
    }
    if (ChoiceProvider) {
      Stack.push_back(Value::boolean(ChoiceProvider()));
      break;
    }
    // Leave PC at the Nondet so the caller can inject and re-step.
    Res.Kind = InstrResult::ChoicePoint;
    return Res;
  }
  case Opcode::UnOp:
    Stack.push_back(evalUnary(static_cast<UnaryOp>(I.A), popValue()));
    break;
  case Opcode::BinOp: {
    Value R = popValue();
    Value L = popValue();
    Stack.push_back(evalBinary(static_cast<BinaryOp>(I.A), L, R));
    break;
  }
  case Opcode::Pop:
    popValue();
    break;
  case Opcode::Jump:
    Frame.PC = I.A;
    return Res;
  case Opcode::JumpIfFalse: {
    Value C = popValue();
    if (!C.isBool())
      return fail(ErrorKind::UndefinedBranch,
                  "branch condition is undefined at " + Loc.str() +
                      " in " + B.Name);
    if (!C.asBool()) {
      Frame.PC = I.A;
      return Res;
    }
    break;
  }
  case Opcode::New: {
    const std::vector<int32_t> &Fields = Info.InitTables[I.B];
    std::vector<std::pair<int32_t, Value>> Inits(Fields.size());
    for (size_t K = Fields.size(); K-- > 0;)
      Inits[K] = {Fields[K], popValue()};
    int32_t Child = createMachine(Cfg, I.A, Inits);
    if (Child < 0) {
      // Machine table exhausted (reactor mode); the error config is
      // already raised.
      Res.Kind = InstrResult::Error;
      return Res;
    }
    // Frame stays valid: it lives in this machine's heap snapshot, which
    // createMachine's push_back on Cfg.Machines does not move.
    Frame.Operands.push_back(Value::machine(Child));
    ++Frame.PC;
    Res.Kind = InstrResult::SchedulingPoint;
    Res.Other = Child;
    Res.Created = true;
    return Res;
  }
  case Opcode::Send: {
    Value Payload = popValue();
    Value Event = popValue();
    Value Target = popValue();
    if (!Event.isEvent())
      return fail(ErrorKind::UndefinedEvent,
                  "send with an undefined event at " + Loc.str() + " in " +
                      B.Name);
    if (Target.isNull())
      return fail(ErrorKind::SendToNull,
                  "send target is ⊥ at " + Loc.str() + " in " + B.Name);
    if (!Target.isMachine())
      return fail(ErrorKind::SendToNull,
                  "send target is not a machine id at " + Loc.str() +
                      " in " + B.Name);
    int32_t To = Target.asMachine();
    // Reactor mode: the hook routes the send through the target's
    // mailbox (or enqueues self-sends owner-side) so this worker never
    // touches another machine's state — including the liveness checks
    // below, which would race with concurrent crash/create.
    if (SendHook && SendHook(Cfg, Id, To, Event.asEvent(), Payload)) {
      if (Trace)
        Trace->record(TraceKind::Send, Id, Event.asEvent(), To);
      ++Frame.PC;
      Res.Kind = InstrResult::SchedulingPoint;
      Res.Other = To;
      return Res;
    }
    // Fault model: a crashed process neither receives nor errors the
    // sender (unlike a deleted one — SEND-FAIL2 stays a program bug).
    // The message vanishes but the send still executed, so the slice
    // boundary is the same one a delivered send produces.
    if (To >= 0 && To < static_cast<int32_t>(Cfg.Machines.size()) &&
        Cfg.Machines[To]->Crashed) {
      if (Trace)
        Trace->record(TraceKind::Send, Id, Event.asEvent(), To);
      ++Frame.PC;
      Res.Kind = InstrResult::SchedulingPoint;
      Res.Other = To;
      return Res;
    }
    if (!Cfg.isLive(To))
      return fail(ErrorKind::SendToDeleted,
                  "send to deleted/uninitialized machine id " +
                      std::to_string(To) + " at " + Loc.str() + " in " +
                      B.Name);
    enqueueEvent(Cfg, To, Event.asEvent(), Payload);
    if (Trace)
      Trace->record(TraceKind::Send, Id, Event.asEvent(), To);
    ++Frame.PC;
    Res.Kind = InstrResult::SchedulingPoint;
    Res.Other = To;
    Res.Event = Event.asEvent();
    Res.Payload = Payload;
    return Res;
  }
  case Opcode::Raise: {
    Value Payload = popValue();
    Value Event = popValue();
    if (!Event.isEvent())
      return fail(ErrorKind::UndefinedEvent,
                  "raise with an undefined event at " + Loc.str() + " in " +
                      B.Name);
    // RAISE: update msg/arg, abandon the remaining statement. Whether
    // the exit statement runs is decided at dispatch (Figure 5).
    M.Msg = Event;
    M.Arg = Payload;
    M.HasRaise = true;
    M.RaiseEvent = Event.asEvent();
    M.RaiseArg = Payload;
    M.Exec.clear();
    if (Trace)
      Trace->record(TraceKind::Raise, Id, M.RaiseEvent);
    return Res;
  }
  case Opcode::CallForeign: {
    const ForeignFunInfo &F = Info.Funs[I.A];
    if (Opts.ForeignFaultPoints) {
      if (!M.InjectedForeignFail) {
        // Leave PC at the call so the checker can decide whether it
        // fails (set InjectedForeignFail) and re-step.
        Res.Kind = InstrResult::ForeignCall;
        return Res;
      }
      const bool Fail = *M.InjectedForeignFail;
      M.InjectedForeignFail.reset();
      if (Fail) {
        // The explored failure: the call never runs; its arguments are
        // consumed and it yields ⊥, like a non-strict unknown foreign.
        for (int32_t K = 0; K != I.B; ++K)
          popValue();
        Stack.push_back(Value::null());
        if (Trace)
          Trace->record(TraceKind::FaultInjected, Id,
                        static_cast<int32_t>(FaultKind::FailForeign));
        break;
      }
    }
    std::vector<Value> Args(I.B);
    for (size_t K = Args.size(); K-- > 0;)
      Args[K] = popValue();
    if (Opts.UseModelBodies && F.ModelBody >= 0) {
      ++Frame.PC; // Resume after the call once the model frame pops.
      ExecFrame Model;
      Model.Body = F.ModelBody;
      Model.Kind = FrameKind::Model;
      Model.Params = std::move(Args);
      M.Exec.push_back(std::move(Model));
      return Res;
    }
    auto It = ForeignFns.find({Info.Name, F.Name});
    if (It != ForeignFns.end()) {
      Value Result = It->second(Cfg, Id, Args);
      // Re-establish mutable access: the foreign function received the
      // Config and may have copied it (sharing our snapshot again).
      MachineState &MM = Cfg.Machines[Id].mut();
      MM.Exec.back().Operands.push_back(Result);
      ++MM.Exec.back().PC;
      return Res;
    }
    if (Opts.StrictForeign)
      return fail(ErrorKind::UnknownForeign,
                  "no implementation for foreign function " + Info.Name +
                      "::" + F.Name);
    Stack.push_back(Value::null());
    break;
  }
  case Opcode::CallState: {
    // The `call S;` statement: like a call transition, but saving the
    // current continuation (everything still on the exec stack).
    std::vector<int32_t> Inherit = computeCallInherit(M);
    ++Frame.PC; // The continuation resumes after this instruction.
    StateFrame NewFrame;
    NewFrame.State = I.A;
    NewFrame.Inherit = std::move(Inherit);
    NewFrame.SavedCont = std::move(M.Exec);
    M.Exec.clear();
    M.Frames.push_back(std::move(NewFrame));
    if (Trace)
      Trace->record(TraceKind::StateEnter, Id, I.A, M.MachineIndex);
    if (Info.States[I.A].EntryBody >= 0)
      pushBodyFrame(M, Info.States[I.A].EntryBody, FrameKind::Entry);
    return Res;
  }
  case Opcode::Assert: {
    Value C = popValue();
    // ASSERT-FAIL only when the condition evaluates to false; like the
    // paper, an undefined condition behaves like skip (ASSERT-PASS).
    if (C.isBool() && !C.asBool())
      return fail(ErrorKind::AssertFailed,
                  "assertion failed at " + Loc.str() + " in " + B.Name);
    break;
  }
  case Opcode::Delete: {
    // DELETE: M[id] := ⊥.
    M.Alive = false;
    M.Exec.clear();
    M.Frames.clear();
    M.Queue.clear();
    M.Vars.clear();
    M.HasRaise = false;
    M.Transfer = TransferKind::None;
    if (Trace)
      Trace->record(TraceKind::Halt, Id);
    Res.Kind = InstrResult::Halted;
    return Res;
  }
  case Opcode::Leave:
    // LEAVE: jump to the end of the entry function and wait for events.
    M.Exec.clear();
    return Res;
  case Opcode::Return: {
    // RETURN: run Exit(m, n), then pop (POP2 via PopReturn).
    bool InExit = Frame.Kind == FrameKind::Exit;
    M.Exec.clear();
    M.Transfer = TransferKind::PopReturn;
    const StateInfo &St = Info.States[M.Frames.back().State];
    if (!InExit && St.ExitBody >= 0)
      pushBodyFrame(M, St.ExitBody, FrameKind::Exit);
    return Res;
  }
  case Opcode::Halt: {
    // End of body: pop the frame; models hand their result back.
    ExecFrame Done = std::move(M.Exec.back());
    M.Exec.pop_back();
    if (Done.Kind == FrameKind::Model) {
      assert(!M.Exec.empty() && "model frame without a caller");
      M.Exec.back().Operands.push_back(Done.Result);
    }
    return Res;
  }
  }

  ++Frame.PC;
  return Res;
}

Executor::StepResult Executor::step(Config &Cfg, int32_t Id) const {
  assert(Id >= 0 && Id < static_cast<int32_t>(Cfg.Machines.size()));
  uint64_t Steps = 0;
  while (true) {
    if (Cfg.hasError())
      return {StepOutcome::Error};
    // Dispatch on a read-only view; the COW clone happens inside the
    // helper that actually mutates (execInstr/applyTransfer/
    // dispatchRaise, or the dequeue below). A Blocked slice touches
    // nothing and keeps the snapshot shared.
    const MachineState &M = *Cfg.Machines[Id];
    if (!M.Alive)
      return {StepOutcome::Halted};
    if (++Steps > Opts.MaxStepsPerSlice) {
      raiseError(Cfg, Id, ErrorKind::Divergence,
                 "machine " + Prog.Machines[M.MachineIndex].Name + " (id " +
                     std::to_string(Id) +
                     ") executed " + std::to_string(Steps) +
                     " steps without reaching a scheduling point");
      return {StepOutcome::Error};
    }

    if (!M.Exec.empty()) {
      InstrResult R = execInstr(Cfg, Id);
      switch (R.Kind) {
      case InstrResult::Continue:
        continue;
      case InstrResult::SchedulingPoint:
        return {StepOutcome::SchedulingPoint, R.Other, R.Created, R.Event,
                R.Payload};
      case InstrResult::ChoicePoint:
        return {StepOutcome::ChoicePoint};
      case InstrResult::Halted:
        return {StepOutcome::Halted};
      case InstrResult::Error:
        return {StepOutcome::Error};
      case InstrResult::ForeignCall:
        return {StepOutcome::ForeignCall};
      }
      continue;
    }

    if (M.Transfer != TransferKind::None) {
      applyTransfer(Cfg, Id);
      continue;
    }

    if (M.HasRaise) {
      dispatchRaise(Cfg, Id);
      continue;
    }

    // DEQUEUE: take the first event outside the effective deferred set.
    int Index = findEligibleEvent(Cfg, M);
    if (Index < 0)
      return {StepOutcome::Blocked};
    MachineState &MW = Cfg.Machines[Id].mut();
    auto [Event, Arg] = MW.Queue[Index];
    MW.Queue.erase(MW.Queue.begin() + Index);
    for (const DequeueObserverFn &Observer : DequeueObservers)
      Observer(Id, Event);
    if (Trace)
      Trace->record(TraceKind::Dequeue, Id, Event);
    MW.Msg = Value::event(Event);
    MW.Arg = Arg;
    MW.HasRaise = true;
    MW.RaiseEvent = Event;
    MW.RaiseArg = Arg;
  }
}

std::string Executor::describeMachine(const Config &Cfg, int32_t Id) const {
  if (Id < 0 || Id >= static_cast<int32_t>(Cfg.Machines.size()))
    return "<invalid machine id>";
  const MachineState &M = *Cfg.Machines[Id];
  if (!M.Alive)
    return "<deleted machine " + std::to_string(Id) + ">";
  const MachineInfo &Info = Prog.Machines[M.MachineIndex];
  std::string Out = Info.Name + "#" + std::to_string(Id);
  if (!M.Frames.empty())
    Out += " @ " + Info.States[M.Frames.back().State].Name;
  if (!M.Queue.empty()) {
    Out += " [queue:";
    for (const auto &[E, V] : M.Queue) {
      Out += ' ';
      Out += Prog.Events[E].Name;
    }
    Out += ']';
  }
  return Out;
}
