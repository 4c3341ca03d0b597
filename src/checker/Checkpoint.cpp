//===- checker/Checkpoint.cpp ------------------------------------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "checker/Checkpoint.h"

#include "pir/Bytecode.h"
#include "support/AtomicFile.h"
#include "support/Hashing.h"

#include <array>
#include <cstdio>
#include <cstring>

using namespace p;
using namespace p::ckpt;

//===----------------------------------------------------------------------===//
// CRC-32
//===----------------------------------------------------------------------===//

uint32_t ckpt::crc32(const void *Data, size_t Len) {
  // IEEE 802.3 reflected polynomial, table generated once.
  static const auto Table = [] {
    std::array<uint32_t, 256> T{};
    for (uint32_t I = 0; I != 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K != 8; ++K)
        C = (C & 1) ? 0xedb88320u ^ (C >> 1) : C >> 1;
      T[I] = C;
    }
    return T;
  }();
  uint32_t C = 0xffffffffu;
  const auto *P = static_cast<const uint8_t *>(Data);
  for (size_t I = 0; I != Len; ++I)
    C = Table[(C ^ P[I]) & 0xffu] ^ (C >> 8);
  return C ^ 0xffffffffu;
}

//===----------------------------------------------------------------------===//
// Scalar codec pieces
//===----------------------------------------------------------------------===//

void ByteWriter::f64(double V) {
  uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(V));
  std::memcpy(&Bits, &V, sizeof(Bits));
  u64(Bits);
}

double ByteReader::f64() {
  uint64_t Bits = u64();
  double V;
  std::memcpy(&V, &Bits, sizeof(V));
  return V;
}

namespace {

void appendValue(const Value &V, ByteWriter &W) {
  W.u8(static_cast<uint8_t>(V.Kind));
  W.u64(static_cast<uint64_t>(V.Data));
}

Value readValue(ByteReader &R) {
  Value V;
  V.Kind = static_cast<ValueKind>(R.u8());
  V.Data = static_cast<int64_t>(R.u64());
  return V;
}

void appendValues(const std::vector<Value> &Vs, ByteWriter &W) {
  W.u64(Vs.size());
  for (const Value &V : Vs)
    appendValue(V, W);
}

bool readValues(ByteReader &R, std::vector<Value> &Vs) {
  uint64_t N = R.u64();
  if (!R.ok())
    return false;
  Vs.clear();
  Vs.reserve(N);
  for (uint64_t I = 0; I != N; ++I)
    Vs.push_back(readValue(R));
  return R.ok();
}

void appendOptBool(const std::optional<bool> &O, ByteWriter &W) {
  W.u8(!O.has_value() ? 0 : *O ? 2 : 1);
}

std::optional<bool> readOptBool(ByteReader &R) {
  switch (R.u8()) {
  case 1:
    return false;
  case 2:
    return true;
  default:
    return std::nullopt;
  }
}

void appendExecFrame(const ExecFrame &F, ByteWriter &W) {
  W.i32(F.Body);
  W.i32(F.PC);
  W.u8(static_cast<uint8_t>(F.Kind));
  appendValues(F.Operands, W);
  appendValues(F.Params, W);
  appendValue(F.Result, W);
}

bool readExecFrame(ByteReader &R, ExecFrame &F) {
  F.Body = R.i32();
  F.PC = R.i32();
  F.Kind = static_cast<FrameKind>(R.u8());
  if (!readValues(R, F.Operands) || !readValues(R, F.Params))
    return false;
  F.Result = readValue(R);
  return R.ok();
}

void appendExecFrames(const std::vector<ExecFrame> &Fs, ByteWriter &W) {
  W.u64(Fs.size());
  for (const ExecFrame &F : Fs)
    appendExecFrame(F, W);
}

bool readExecFrames(ByteReader &R, std::vector<ExecFrame> &Fs) {
  uint64_t N = R.u64();
  if (!R.ok())
    return false;
  Fs.clear();
  Fs.reserve(N);
  for (uint64_t I = 0; I != N; ++I) {
    Fs.emplace_back();
    if (!readExecFrame(R, Fs.back()))
      return false;
  }
  return true;
}

void appendMachineState(const MachineState &M, ByteWriter &W) {
  W.i32(M.MachineIndex);
  W.u8(M.Alive ? 1 : 0);
  W.u8(M.Crashed ? 1 : 0);
  W.u64(M.Frames.size());
  for (const StateFrame &F : M.Frames) {
    W.i32(F.State);
    W.u64(F.Inherit.size());
    for (int32_t H : F.Inherit)
      W.i32(H);
    appendExecFrames(F.SavedCont, W);
  }
  appendExecFrames(M.Exec, W);
  appendValues(M.Vars, W);
  appendValue(M.Msg, W);
  appendValue(M.Arg, W);
  W.u8(M.HasRaise ? 1 : 0);
  W.i32(M.RaiseEvent);
  appendValue(M.RaiseArg, W);
  W.u8(static_cast<uint8_t>(M.Transfer));
  W.i32(M.TransferTarget);
  W.u64(M.Queue.size());
  for (const auto &[Ev, Arg] : M.Queue) {
    W.i32(Ev);
    appendValue(Arg, W);
  }
  appendOptBool(M.InjectedChoice, W);
  appendOptBool(M.InjectedForeignFail, W);
}

bool readMachineState(ByteReader &R, MachineState &M) {
  M.MachineIndex = R.i32();
  M.Alive = R.u8() != 0;
  M.Crashed = R.u8() != 0;
  uint64_t NFrames = R.u64();
  if (!R.ok())
    return false;
  M.Frames.clear();
  M.Frames.reserve(NFrames);
  for (uint64_t I = 0; I != NFrames; ++I) {
    StateFrame F;
    F.State = R.i32();
    uint64_t NInherit = R.u64();
    if (!R.ok())
      return false;
    F.Inherit.reserve(NInherit);
    for (uint64_t J = 0; J != NInherit; ++J)
      F.Inherit.push_back(R.i32());
    if (!readExecFrames(R, F.SavedCont))
      return false;
    M.Frames.push_back(std::move(F));
  }
  if (!readExecFrames(R, M.Exec) || !readValues(R, M.Vars))
    return false;
  M.Msg = readValue(R);
  M.Arg = readValue(R);
  M.HasRaise = R.u8() != 0;
  M.RaiseEvent = R.i32();
  M.RaiseArg = readValue(R);
  M.Transfer = static_cast<TransferKind>(R.u8());
  M.TransferTarget = R.i32();
  uint64_t NQueue = R.u64();
  if (!R.ok())
    return false;
  M.Queue.clear();
  M.Queue.reserve(NQueue);
  for (uint64_t I = 0; I != NQueue; ++I) {
    int32_t Ev = R.i32();
    M.Queue.emplace_back(Ev, readValue(R));
  }
  M.InjectedChoice = readOptBool(R);
  M.InjectedForeignFail = readOptBool(R);
  return R.ok();
}

void appendDecisions(const std::vector<SchedDecision> &Ds, ByteWriter &W) {
  W.u64(Ds.size());
  for (const SchedDecision &D : Ds) {
    W.u8(static_cast<uint8_t>(D.K));
    W.i32(D.Machine);
    W.u8(D.Choice ? 1 : 0);
    W.i32(D.Aux);
  }
}

bool readDecisions(ByteReader &R, std::vector<SchedDecision> &Ds) {
  uint64_t N = R.u64();
  if (!R.ok())
    return false;
  Ds.clear();
  Ds.reserve(N);
  for (uint64_t I = 0; I != N; ++I) {
    SchedDecision D;
    D.K = static_cast<SchedDecision::Kind>(R.u8());
    D.Machine = R.i32();
    D.Choice = R.u8() != 0;
    D.Aux = R.i32();
    Ds.push_back(D);
  }
  return R.ok();
}

void appendU64s(const std::vector<uint64_t> &Vs, ByteWriter &W) {
  W.u64(Vs.size());
  for (uint64_t V : Vs)
    W.u64(V);
}

bool readU64s(ByteReader &R, std::vector<uint64_t> &Vs) {
  uint64_t N = R.u64();
  if (!R.ok() || N > R.remaining() / 8)
    return false;
  Vs.clear();
  Vs.reserve(N);
  for (uint64_t I = 0; I != N; ++I)
    Vs.push_back(R.u64());
  return R.ok();
}

void appendImage(const VisitedImage &Img, ByteWriter &W) {
  appendU64s(Img.StripeSlots, W);
  appendU64s(Img.Words, W);
  appendU64s(Img.Cfgs, W);
}

bool readImage(ByteReader &R, VisitedImage &Img) {
  return readU64s(R, Img.StripeSlots) && readU64s(R, Img.Words) &&
         readU64s(R, Img.Cfgs);
}

} // namespace

//===----------------------------------------------------------------------===//
// Config / frontier-node codec
//===----------------------------------------------------------------------===//

void ckpt::appendConfig(const Config &Cfg, ByteWriter &W) {
  W.u64(Cfg.Machines.size());
  for (const CowMachine &M : Cfg.Machines)
    appendMachineState(*M, W);
  W.u8(static_cast<uint8_t>(Cfg.Error));
  W.str(Cfg.ErrorMessage);
  W.i32(Cfg.ErrorMachine);
  W.u32(Cfg.MaxQueue);
  W.u8(static_cast<uint8_t>(Cfg.Overflow));
  W.u64(Cfg.OverflowDropped);
}

bool ckpt::readConfig(ByteReader &R, Config &Cfg) {
  uint64_t N = R.u64();
  if (!R.ok())
    return false;
  Cfg.Machines.clear();
  Cfg.Machines.reserve(N);
  for (uint64_t I = 0; I != N; ++I) {
    MachineState M;
    if (!readMachineState(R, M))
      return false;
    Cfg.Machines.emplace_back(std::move(M));
  }
  Cfg.Error = static_cast<ErrorKind>(R.u8());
  Cfg.ErrorMessage = R.str();
  Cfg.ErrorMachine = R.i32();
  Cfg.MaxQueue = R.u32();
  Cfg.Overflow = static_cast<OverflowPolicy>(R.u8());
  Cfg.OverflowDropped = R.u64();
  return R.ok();
}

void ckpt::appendFrontierNode(const FrontierNode &N, std::string &Out) {
  ByteWriter W(Out);
  appendConfig(N.Cfg, W);
  W.u64(N.Sched.size());
  for (int32_t S : N.Sched)
    W.i32(S);
  W.i32(N.DelaysUsed);
  W.i32(N.FaultsUsed);
  W.i32(N.Depth);
  W.i32(N.MustRun);
  W.i32(N.ByType);
  appendDecisions(N.Schedule, W);
}

bool ckpt::readFrontierNode(ByteReader &R, FrontierNode &N) {
  if (!readConfig(R, N.Cfg))
    return false;
  uint64_t NSched = R.u64();
  if (!R.ok())
    return false;
  N.Sched.clear();
  N.Sched.reserve(NSched);
  for (uint64_t I = 0; I != NSched; ++I)
    N.Sched.push_back(R.i32());
  N.DelaysUsed = R.i32();
  N.FaultsUsed = R.i32();
  N.Depth = R.i32();
  N.MustRun = R.i32();
  N.ByType = R.i32();
  return readDecisions(R, N.Schedule);
}

//===----------------------------------------------------------------------===//
// Fingerprint
//===----------------------------------------------------------------------===//

uint64_t ckpt::searchFingerprint(const CompiledProgram &Prog,
                                 const CheckOptions &Opts) {
  // Serialize everything that changes what the search explores or how
  // states are keyed, then hash once. Field order is part of the
  // format: changing it invalidates old checkpoints, which is exactly
  // the conservative behavior we want.
  std::string Buf;
  ByteWriter W(Buf);

  W.u64(Prog.Events.size());
  for (const EventInfo &E : Prog.Events) {
    W.str(E.Name);
    W.u8(static_cast<uint8_t>(E.PayloadType));
    W.u8(E.Ghost ? 1 : 0);
  }
  W.u64(Prog.Machines.size());
  for (const MachineInfo &M : Prog.Machines) {
    W.str(M.Name);
    W.u8(M.Ghost ? 1 : 0);
    W.u8(M.Symmetric ? 1 : 0);
    W.u64(M.Vars.size());
    for (const VarInfo &V : M.Vars) {
      W.str(V.Name);
      W.u8(static_cast<uint8_t>(V.Type));
    }
    W.u64(M.States.size());
    for (const StateInfo &S : M.States) {
      W.str(S.Name);
      W.i32(S.EntryBody);
      W.i32(S.ExitBody);
      W.u64(S.OnEvent.size());
      for (const Transition &T : S.OnEvent) {
        W.u8(static_cast<uint8_t>(T.Kind));
        W.i32(T.Target);
      }
    }
    W.u64(M.Bodies.size());
    for (const Body &B : M.Bodies) {
      W.u64(B.Code.size());
      for (const Instr &I : B.Code) {
        W.u8(static_cast<uint8_t>(I.Op));
        W.i32(I.A);
        W.i32(I.B);
      }
    }
  }
  W.i32(Prog.MainMachine);

  W.u8(static_cast<uint8_t>(Opts.Strategy));
  W.i32(Opts.DelayBound);
  W.i32(Opts.DepthBound);
  W.u8(Opts.UseModelBodies ? 1 : 0);
  W.u8(Opts.StopOnFirstError ? 1 : 0);
  W.u8(static_cast<uint8_t>(Opts.Visited));
  W.u64(Opts.VisitedCapBytes);
  W.u64(Opts.MaxStepsPerSlice);
  W.u8(Opts.CollectTerminals ? 1 : 0);
  W.i32(Opts.Faults.Budget);
  W.u8(Opts.Faults.Drop ? 1 : 0);
  W.u8(Opts.Faults.Duplicate ? 1 : 0);
  W.u8(Opts.Faults.Crash ? 1 : 0);
  W.u8(Opts.Faults.FailForeign ? 1 : 0);
  W.u64(Opts.Faults.Events.size());
  for (int32_t E : Opts.Faults.Events)
    W.i32(E);
  W.u64(Opts.Faults.CrashTypes.size());
  for (int32_t T : Opts.Faults.CrashTypes)
    W.i32(T);
  W.u32(Opts.MaxQueue);
  W.u8(static_cast<uint8_t>(Opts.Overflow));
  W.u8(static_cast<uint8_t>(Opts.Reduce));

  uint64_t H = hashBytes(Buf.data(), Buf.size());
  // Reserve 0 as "no fingerprint" for loadCheckpoint's caller contract.
  return H ? H : 1;
}

//===----------------------------------------------------------------------===//
// Save / load
//===----------------------------------------------------------------------===//

namespace {

constexpr char Magic[8] = {'P', 'C', 'H', 'E', 'C', 'K', 'P', 'T'};

void appendPayload(const CheckpointData &D, std::string &Out) {
  ByteWriter W(Out);

  W.u64(D.DistinctStates);
  W.u64(D.NodesExplored);
  W.u64(D.Slices);
  W.u64(D.Terminals);
  W.u64(D.ErrorsFound);
  W.u64(D.FaultsInjected);
  W.u64(D.SymmetryCollapsed);
  W.u64(D.HashMismatches);
  W.u64(D.StealCount);
  W.u64(D.ContentionNs);
  W.u64(D.CheckpointsWritten);
  W.u64(D.FrontierSpilledNodes);
  W.u64(D.FrontierSpillBytes);
  W.i32(D.MaxDepth);
  W.f64(D.ElapsedSeconds);
  W.u8(D.OmissionPossible ? 1 : 0);
  W.u8(D.Exhausted ? 1 : 0);

  appendImage(D.TableImage, W);
  appendImage(D.TerminalImage, W);
  W.u64(D.Exact.size());
  for (const CheckpointData::ExactEntry &E : D.Exact) {
    W.str(E.Key);
    W.i32(E.Delays);
  }

  appendU64s(D.TerminalHashes, W);
  W.u64(D.Coverage.Machines.size());
  for (const auto &M : D.Coverage.Machines) {
    W.u64(M.StatesVisited.size());
    for (int32_t S : M.StatesVisited)
      W.i32(S);
    W.u64(M.TransitionsFired.size());
    for (const auto &[S, E] : M.TransitionsFired) {
      W.i32(S);
      W.i32(E);
    }
  }
  W.u8(D.BestFound ? 1 : 0);
  W.u8(static_cast<uint8_t>(D.BestKind));
  W.str(D.BestMessage);
  W.i32(D.BestDelays);
  W.i32(D.BestFaults);
  appendDecisions(D.BestSchedule, W);
  W.u64(D.Windows.size());
  for (const ChoiceWindow &Win : D.Windows) {
    W.u64(Win.Cfg);
    W.u64(Win.Key);
    W.u64(Win.Budget);
    W.u32(Win.Nested);
  }

  W.u64(D.Frontier.size());
  for (const FrontierNode &N : D.Frontier)
    appendFrontierNode(N, Out);
}

bool readPayload(ByteReader &R, CheckpointData &D) {
  D.DistinctStates = R.u64();
  D.NodesExplored = R.u64();
  D.Slices = R.u64();
  D.Terminals = R.u64();
  D.ErrorsFound = R.u64();
  D.FaultsInjected = R.u64();
  D.SymmetryCollapsed = R.u64();
  D.HashMismatches = R.u64();
  D.StealCount = R.u64();
  D.ContentionNs = R.u64();
  D.CheckpointsWritten = R.u64();
  D.FrontierSpilledNodes = R.u64();
  D.FrontierSpillBytes = R.u64();
  D.MaxDepth = R.i32();
  D.ElapsedSeconds = R.f64();
  D.OmissionPossible = R.u8() != 0;
  D.Exhausted = R.u8() != 0;
  if (!R.ok())
    return false;

  if (!readImage(R, D.TableImage) || !readImage(R, D.TerminalImage))
    return false;
  uint64_t N = R.u64();
  if (!R.ok())
    return false;
  D.Exact.clear();
  for (uint64_t I = 0; I != N && R.ok(); ++I) {
    CheckpointData::ExactEntry E;
    E.Key = R.str();
    E.Delays = R.i32();
    D.Exact.push_back(std::move(E));
  }

  if (!readU64s(R, D.TerminalHashes))
    return false;
  N = R.u64();
  if (!R.ok())
    return false;
  D.Coverage.Machines.clear();
  D.Coverage.Machines.resize(N);
  for (uint64_t I = 0; I != N; ++I) {
    auto &M = D.Coverage.Machines[I];
    uint64_t NS = R.u64();
    if (!R.ok())
      return false;
    for (uint64_t J = 0; J != NS; ++J)
      M.StatesVisited.insert(R.i32());
    uint64_t NT = R.u64();
    if (!R.ok())
      return false;
    for (uint64_t J = 0; J != NT; ++J) {
      int32_t S = R.i32();
      int32_t E = R.i32();
      M.TransitionsFired.insert({S, E});
    }
  }
  D.BestFound = R.u8() != 0;
  D.BestKind = static_cast<ErrorKind>(R.u8());
  D.BestMessage = R.str();
  D.BestDelays = R.i32();
  D.BestFaults = R.i32();
  if (!readDecisions(R, D.BestSchedule))
    return false;
  N = R.u64();
  if (!R.ok() || N > R.remaining() / 28)
    return false;
  D.Windows.resize(N);
  for (ChoiceWindow &Win : D.Windows) {
    Win.Cfg = R.u64();
    Win.Key = R.u64();
    Win.Budget = R.u64();
    Win.Nested = R.u32();
  }

  N = R.u64();
  if (!R.ok())
    return false;
  D.Frontier.clear();
  D.Frontier.reserve(N);
  for (uint64_t I = 0; I != N; ++I) {
    D.Frontier.emplace_back();
    if (!readFrontierNode(R, D.Frontier.back()))
      return false;
  }
  return R.ok() && R.atEnd();
}

bool readWholeFile(const std::string &Path, std::string &Out,
                   std::string &Why) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    Why = "cannot open checkpoint " + Path;
    return false;
  }
  char Buf[1 << 16];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  bool Ok = !std::ferror(F);
  std::fclose(F);
  if (!Ok)
    Why = "cannot read checkpoint " + Path;
  return Ok;
}

} // namespace

bool ckpt::saveCheckpoint(const std::string &Path, const CheckpointData &D,
                          std::string &Why, uint64_t *BytesWritten) {
  std::string File(Magic, sizeof(Magic));
  ByteWriter W(File);
  W.u32(FormatVersion);
  W.u64(D.Fingerprint);

  std::string Payload;
  appendPayload(D, Payload);
  W.u64(Payload.size());
  File += Payload;
  W.u32(crc32(File.data(), File.size()));

  if (!writeFileAtomic(Path, File, &Why))
    return false;
  if (BytesWritten)
    *BytesWritten = File.size();
  return true;
}

bool ckpt::loadCheckpoint(const std::string &Path, CheckpointData &D,
                          std::string &Why) {
  std::string File;
  if (!readWholeFile(Path, File, Why))
    return false;

  constexpr size_t HeaderLen =
      sizeof(Magic) + 4 /*version*/ + 8 /*fingerprint*/ + 8 /*payload len*/;
  if (File.size() < sizeof(Magic) ||
      std::memcmp(File.data(), Magic, sizeof(Magic)) != 0) {
    Why = Path + " is not a checkpoint file (bad magic)";
    return false;
  }
  if (File.size() < HeaderLen + 4) {
    Why = "checkpoint " + Path + " is truncated (header incomplete)";
    return false;
  }
  // CRC before anything else: every later field is only meaningful on
  // an intact file, and a bit flip in, say, the version field should
  // report corruption, not "version mismatch".
  ByteReader Trailer(File.data() + File.size() - 4, 4);
  uint32_t Stored = Trailer.u32();
  uint32_t Computed = crc32(File.data(), File.size() - 4);
  if (Stored != Computed) {
    Why = "checkpoint " + Path +
          " failed its CRC check — the file is truncated or corrupted";
    return false;
  }

  ByteReader R(File.data() + sizeof(Magic), File.size() - sizeof(Magic) - 4);
  uint32_t Version = R.u32();
  if (Version != FormatVersion) {
    Why = "checkpoint " + Path + " has format version " +
          std::to_string(Version) + ", expected " +
          std::to_string(FormatVersion);
    return false;
  }
  uint64_t Fingerprint = R.u64();
  uint64_t PayloadLen = R.u64();
  if (PayloadLen != File.size() - HeaderLen - 4) {
    Why = "checkpoint " + Path + " has an inconsistent payload length";
    return false;
  }
  if (D.Fingerprint != 0 && Fingerprint != D.Fingerprint) {
    Why = "checkpoint " + Path +
          " was written for a different program or search configuration "
          "(fingerprint mismatch)";
    return false;
  }
  D.Fingerprint = Fingerprint;
  if (!readPayload(R, D)) {
    Why = "checkpoint " + Path + " has a malformed payload";
    return false;
  }
  return true;
}
