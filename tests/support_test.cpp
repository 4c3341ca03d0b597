//===- tests/support_test.cpp - Support library tests -----------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "checker/StateHash.h"
#include "corpus/Corpus.h"
#include "frontend/Frontend.h"
#include "pir/Program.h"
#include "runtime/Executor.h"
#include "runtime/Value.h"
#include "support/Diagnostics.h"
#include "support/Hashing.h"

#include <gtest/gtest.h>

#include <map>
#include <random>

using namespace p;

namespace {

TEST(Diagnostics, CountsAndRenders) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(Diags.hasErrors());
  Diags.warning(SourceLoc(1, 2), "watch out");
  EXPECT_FALSE(Diags.hasErrors());
  Diags.error(SourceLoc(3, 4), "bad");
  Diags.note(SourceLoc(), "context");
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Diags.errorCount(), 1u);
  std::string Text = Diags.str();
  EXPECT_NE(Text.find("1:2: warning: watch out"), std::string::npos);
  EXPECT_NE(Text.find("3:4: error: bad"), std::string::npos);
  EXPECT_NE(Text.find("note: context"), std::string::npos);
  Diags.clear();
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_TRUE(Diags.diagnostics().empty());
}

TEST(Hashing, DeterministicAndSensitive) {
  EXPECT_EQ(hashBytes("abc", 3), hashBytes("abc", 3));
  EXPECT_NE(hashBytes("abc", 3), hashBytes("abd", 3));
  EXPECT_NE(hashBytes("abc", 3), hashBytes("abc", 2));
  uint64_t H1 = hashCombine(1, 2);
  uint64_t H2 = hashCombine(2, 1);
  EXPECT_NE(H1, H2) << "hashCombine must be order-sensitive";
}

TEST(Values, ConstructorsAndEquality) {
  EXPECT_TRUE(Value::null().isNull());
  EXPECT_EQ(Value::boolean(true).asBool(), true);
  EXPECT_EQ(Value::integer(-7).asInt(), -7);
  EXPECT_EQ(Value::event(3).asEvent(), 3);
  EXPECT_EQ(Value::machine(5).asMachine(), 5);
  // Structural equality distinguishes kinds with equal payloads.
  EXPECT_NE(Value::integer(3), Value::event(3));
  EXPECT_EQ(Value::integer(3), Value::integer(3));
  EXPECT_EQ(Value::null(), Value::null());
}

TEST(Values, Rendering) {
  EXPECT_EQ(Value::null().str(), "null");
  EXPECT_EQ(Value::boolean(false).str(), "false");
  EXPECT_EQ(Value::integer(12).str(), "12");
  EXPECT_EQ(Value::machine(2).str(), "mid(2)");
}

TEST(StateHash, EqualConfigsSerializeEqually) {
  Config A;
  MachineState M;
  M.MachineIndex = 0;
  M.Alive = true;
  M.Vars = {Value::integer(1), Value::null()};
  StateFrame F;
  F.State = 2;
  F.Inherit = {InheritNone, InheritDeferred, 3};
  M.Frames.push_back(F);
  M.Queue = {{1, Value::integer(9)}};
  A.Machines.push_back(CowMachine(M));

  Config B = A;
  EXPECT_EQ(hashConfig(A), hashConfig(B));

  std::string SA, SB;
  serializeConfig(A, SA);
  serializeConfig(B, SB);
  EXPECT_EQ(SA, SB);
}

TEST(StateHash, SensitiveToEverySemanticComponent) {
  Config Base;
  MachineState M;
  M.MachineIndex = 0;
  M.Alive = true;
  M.Vars = {Value::integer(1)};
  StateFrame F;
  F.State = 0;
  F.Inherit = {InheritNone};
  M.Frames.push_back(F);
  Base.Machines.push_back(CowMachine(M));
  uint64_t H0 = hashConfig(Base);

  {
    Config C = Base;
    C.mutableMachine(0).Vars[0] = Value::integer(2);
    EXPECT_NE(hashConfig(C), H0) << "variable values";
  }
  {
    Config C = Base;
    C.mutableMachine(0).Vars[0] = Value::boolean(true); // Same data word.
    EXPECT_NE(hashConfig(C), H0) << "value kinds";
  }
  {
    Config C = Base;
    C.mutableMachine(0).Frames[0].State = 1;
    EXPECT_NE(hashConfig(C), H0) << "control state";
  }
  {
    Config C = Base;
    C.mutableMachine(0).Frames[0].Inherit[0] = InheritDeferred;
    EXPECT_NE(hashConfig(C), H0) << "inherited handler map";
  }
  {
    Config C = Base;
    C.mutableMachine(0).Queue.push_back({0, Value::null()});
    EXPECT_NE(hashConfig(C), H0) << "queue contents";
  }
  {
    Config C = Base;
    C.mutableMachine(0).HasRaise = true;
    C.mutableMachine(0).RaiseEvent = 0;
    EXPECT_NE(hashConfig(C), H0) << "pending raise";
  }
  {
    Config C = Base;
    C.mutableMachine(0).Transfer = TransferKind::PopRaise;
    EXPECT_NE(hashConfig(C), H0) << "pending transfer";
  }
  {
    Config C = Base;
    ExecFrame E;
    E.Body = 0;
    E.PC = 3;
    E.Operands = {Value::integer(4)};
    C.mutableMachine(0).Exec.push_back(E);
    EXPECT_NE(hashConfig(C), H0) << "resumable exec frames";
  }
  {
    Config C = Base;
    C.mutableMachine(0).InjectedChoice = true;
    EXPECT_NE(hashConfig(C), H0) << "injected choices";
  }
  {
    Config C = Base;
    C.mutableMachine(0).Alive = false;
    EXPECT_NE(hashConfig(C), H0) << "deleted machines";
  }
  {
    Config C = Base;
    StateFrame G;
    G.State = 0;
    G.Inherit = {InheritNone};
    ExecFrame Cont;
    Cont.Body = 1;
    G.SavedCont.push_back(Cont);
    C.mutableMachine(0).Frames.push_back(G);
    EXPECT_NE(hashConfig(C), H0) << "saved continuations";
  }
  {
    Config C = Base;
    C.mutableMachine(0).Msg = Value::event(1);
    EXPECT_NE(hashConfig(C), H0) << "msg register";
  }
  {
    Config C = Base;
    C.mutableMachine(0).Arg = Value::integer(5);
    EXPECT_NE(hashConfig(C), H0) << "arg register";
  }
  {
    Config C = Base;
    C.mutableMachine(0).RaiseArg = Value::integer(5);
    EXPECT_NE(hashConfig(C), H0) << "raise payload";
  }
  {
    Config C = Base;
    C.mutableMachine(0).TransferTarget = 1;
    EXPECT_NE(hashConfig(C), H0) << "transfer target";
  }
  {
    Config Deleted = Base, Crashed = Base;
    Deleted.mutableMachine(0).Alive = false;
    Crashed.mutableMachine(0).Alive = false;
    Crashed.mutableMachine(0).Crashed = true;
    EXPECT_NE(hashConfig(Crashed), H0) << "crashed machines";
    EXPECT_NE(hashConfig(Crashed), hashConfig(Deleted))
        << "crashed vs deleted";
  }
  {
    Config Fail = Base, Ok = Base;
    Fail.mutableMachine(0).InjectedForeignFail = true;
    Ok.mutableMachine(0).InjectedForeignFail = false;
    EXPECT_NE(hashConfig(Fail), H0) << "injected foreign failure";
    EXPECT_NE(hashConfig(Ok), H0) << "injected foreign success";
    EXPECT_NE(hashConfig(Fail), hashConfig(Ok)) << "foreign fail vs ok";
  }
  {
    ExecFrame E;
    E.Kind = FrameKind::Model;
    E.Params = {Value::integer(1)};
    Config P = Base, Q = Base, R = Base;
    P.mutableMachine(0).Exec.push_back(E);
    E.Params = {Value::integer(2)};
    Q.mutableMachine(0).Exec.push_back(E);
    E.Params = {Value::integer(1)};
    E.Result = Value::integer(3);
    R.mutableMachine(0).Exec.push_back(E);
    EXPECT_NE(hashConfig(P), hashConfig(Q)) << "model-frame params";
    EXPECT_NE(hashConfig(P), hashConfig(R)) << "model-frame result";
  }
  {
    // The same values split differently between the operand stack and
    // the params: a hash that dropped element counts would merge them.
    ExecFrame E;
    E.Operands = {Value::integer(1), Value::integer(2)};
    Config Two = Base, One = Base;
    Two.mutableMachine(0).Exec.push_back(E);
    E.Operands = {Value::integer(1)};
    E.Params = {Value::integer(2)};
    One.mutableMachine(0).Exec.push_back(E);
    EXPECT_NE(hashConfig(Two), hashConfig(One)) << "operands/params boundary";
  }
}

// A seeded random walk over real programs: for every pair of sampled
// configurations, equal canonical bytes must hold exactly when the
// streamed fingerprints are equal (no collision in the sample), and
// every sample's cached, cache-oblivious and identity-permuted hashes
// must agree.
TEST(StateHash, HashAgreesWithBytes) {
  for (const std::string &Src :
       {corpus::german(2), corpus::workerPool(3), corpus::elevator()}) {
    CompileResult CR = compileString(Src);
    ASSERT_TRUE(CR.ok()) << CR.Diags.str();
    Executor::Options EO;
    EO.UseModelBodies = true;
    const Executor Exec(*CR.Program, EO);
    const Config Root = Exec.makeInitialConfig();
    std::mt19937_64 Rng(7);
    std::map<std::string, uint64_t> HashOf;
    std::map<uint64_t, std::string> BytesOf;
    Config C = Root;
    int Depth = 0;
    int32_t MustRun = -1;
    std::vector<int32_t> Enabled, Identity;
    for (int Sample = 0; Sample != 3000; ++Sample) {
      std::string Bytes;
      serializeConfig(C, Bytes);
      const uint64_t H = hashConfig(C);
      EXPECT_EQ(hashConfigFresh(C), H);
      Identity.resize(C.Machines.size());
      for (size_t I = 0; I != Identity.size(); ++I)
        Identity[I] = static_cast<int32_t>(I);
      // A full support forces every machine through the renaming walk.
      EXPECT_EQ(hashConfigPermuted(C, Identity, Identity, ~0ull), H);
      EXPECT_EQ(HashOf.emplace(Bytes, H).first->second, H)
          << "equal bytes, different hashes";
      EXPECT_EQ(BytesOf.emplace(H, Bytes).first->second, Bytes)
          << "different bytes, equal hashes";

      Enabled.clear();
      if (MustRun >= 0)
        Enabled.push_back(MustRun);
      else
        for (int32_t I = 0; I != static_cast<int32_t>(C.Machines.size()); ++I)
          if (Exec.isEnabled(C, I))
            Enabled.push_back(I);
      if (Enabled.empty() || C.hasError() || Depth == 200) {
        C = Root;
        Depth = 0;
        MustRun = -1;
        continue;
      }
      const int32_t Id = Enabled[Rng() % Enabled.size()];
      MustRun = -1;
      if (Exec.step(C, Id).Outcome == Executor::StepOutcome::ChoicePoint) {
        C.mutableMachine(Id).InjectedChoice = (Rng() & 1) != 0;
        MustRun = Id;
      }
      ++Depth;
    }
    EXPECT_GT(HashOf.size(), 100u) << "the walk must reach many configs";
  }
}

TEST(EventSet, BasicOperations) {
  EventSet S(130); // Multiple words.
  EXPECT_FALSE(S.test(0));
  EXPECT_FALSE(S.test(129));
  S.set(0);
  S.set(64);
  S.set(129);
  EXPECT_TRUE(S.test(0));
  EXPECT_TRUE(S.test(64));
  EXPECT_TRUE(S.test(129));
  EXPECT_FALSE(S.test(63));
  EXPECT_FALSE(S.test(500)) << "out-of-range probes are false";
  EventSet T(130);
  T.set(0);
  T.set(64);
  T.set(129);
  EXPECT_EQ(S, T);
}

} // namespace
