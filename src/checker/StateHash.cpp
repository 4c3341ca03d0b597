//===- checker/StateHash.cpp -------------------------------------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "checker/StateHash.h"

#include "support/Hashing.h"

using namespace p;

namespace {

/// Renames a machine-typed value through the symmetry reduction's π
/// when one is attached; every other value passes through.
int64_t mappedData(const Value &V, const std::vector<int32_t> *Perm) {
  int64_t D = V.Data;
  if (Perm && V.Kind == ValueKind::Machine && D >= 0 &&
      D < static_cast<int64_t>(Perm->size()))
    D = (*Perm)[static_cast<size_t>(D)];
  return D;
}

/// Little-endian append helpers over a std::string buffer: the canonical
/// bytes, the oracle every fingerprint is checked against.
class ByteSink {
public:
  explicit ByteSink(std::string &Out,
                    const std::vector<int32_t> *Perm = nullptr)
      : Out(Out), Perm(Perm) {}

  void u8(uint8_t V) { Out.push_back(static_cast<char>(V)); }
  void u32(uint32_t V) {
    for (int I = 0; I != 4; ++I)
      Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
  }
  void i32(int32_t V) { u32(static_cast<uint32_t>(V)); }
  void value(const Value &V) {
    u8(static_cast<uint8_t>(V.Kind));
    const uint64_t D = static_cast<uint64_t>(mappedData(V, Perm));
    for (int I = 0; I != 8; ++I)
      Out.push_back(static_cast<char>((D >> (8 * I)) & 0xff));
  }

private:
  std::string &Out;
  const std::vector<int32_t> *Perm;
};

/// The same field walk folded straight into a fingerprint: each field
/// is one word (hashFold), element counts included, so the word stream
/// is prefix-free exactly like the bytes and no buffer is built.
class HashSink {
public:
  explicit HashSink(const std::vector<int32_t> *Perm = nullptr)
      : Perm(Perm) {}

  void u8(uint8_t V) { H = hashFold(H, V); }
  void u32(uint32_t V) { H = hashFold(H, V); }
  void i32(int32_t V) { u32(static_cast<uint32_t>(V)); }
  void value(const Value &V) {
    H = hashFold(H, static_cast<uint8_t>(V.Kind));
    H = hashFold(H, static_cast<uint64_t>(mappedData(V, Perm)));
  }
  /// 0 is the CowMachine cache's "not computed" sentinel; remap it so a
  /// valid fingerprint is never mistaken for it.
  uint64_t finish() const { return H ? H : 0x9e3779b97f4a7c15ULL; }

private:
  uint64_t H = 0x504d4348u; // "PMCH"
  const std::vector<int32_t> *Perm;
};

/// The walk's third sink: collects the machine ids its values reference
/// (the bits of machineRefsMask).
struct RefsSink {
  uint64_t Mask = RefsComputedBit;

  void u8(uint8_t) {}
  void u32(uint32_t) {}
  void i32(int32_t) {}
  void value(const Value &V) {
    if (V.Kind != ValueKind::Machine)
      return;
    Mask |= V.Data >= 0 && V.Data < 62 ? 1ull << V.Data : RefsOverflowBit;
  }
};

// The field walk. Every sink sees the same fields in the same order;
// counts precede their elements, so the sequence is prefix-free.

template <typename SinkT>
void serializeExecFrame(SinkT &Sink, const ExecFrame &F) {
  Sink.i32(F.Body);
  Sink.i32(F.PC);
  Sink.u8(static_cast<uint8_t>(F.Kind));
  Sink.u32(static_cast<uint32_t>(F.Operands.size()));
  for (const Value &V : F.Operands)
    Sink.value(V);
  Sink.u32(static_cast<uint32_t>(F.Params.size()));
  for (const Value &V : F.Params)
    Sink.value(V);
  Sink.value(F.Result);
}

template <typename SinkT>
void serializeStateFrame(SinkT &Sink, const StateFrame &F) {
  Sink.i32(F.State);
  Sink.u32(static_cast<uint32_t>(F.Inherit.size()));
  for (int32_t H : F.Inherit)
    Sink.i32(H);
  Sink.u32(static_cast<uint32_t>(F.SavedCont.size()));
  for (const ExecFrame &E : F.SavedCont)
    serializeExecFrame(Sink, E);
}

template <typename SinkT>
void serializeMachineImpl(SinkT &Sink, const MachineState &M) {
  Sink.i32(M.MachineIndex);
  // 0 = deleted, 1 = alive, 2 = crashed (a fault, restartable): a
  // crashed machine must not merge with a deleted one, but without
  // fault exploration the byte is 0/1 exactly as before.
  Sink.u8(M.Alive ? 1 : (M.Crashed ? 2 : 0));
  if (!M.Alive)
    return;
  Sink.u32(static_cast<uint32_t>(M.Frames.size()));
  for (const StateFrame &F : M.Frames)
    serializeStateFrame(Sink, F);
  Sink.u32(static_cast<uint32_t>(M.Exec.size()));
  for (const ExecFrame &F : M.Exec)
    serializeExecFrame(Sink, F);
  Sink.u32(static_cast<uint32_t>(M.Vars.size()));
  for (const Value &V : M.Vars)
    Sink.value(V);
  Sink.value(M.Msg);
  Sink.value(M.Arg);
  Sink.u8(M.HasRaise ? 1 : 0);
  Sink.i32(M.RaiseEvent);
  Sink.value(M.RaiseArg);
  Sink.u8(static_cast<uint8_t>(M.Transfer));
  Sink.i32(M.TransferTarget);
  Sink.u32(static_cast<uint32_t>(M.Queue.size()));
  for (const auto &[E, V] : M.Queue) {
    Sink.i32(E);
    Sink.value(V);
  }
  // Packs both checker resumption registers into one byte; without
  // fault exploration InjectedForeignFail is always unset, so the
  // byte equals the pre-fault encoding of InjectedChoice alone.
  Sink.u8(static_cast<uint8_t>(
      (M.InjectedChoice ? (*M.InjectedChoice ? 2 : 1) : 0) +
      3 * (M.InjectedForeignFail ? (*M.InjectedForeignFail ? 2 : 1)
                                 : 0)));
}

/// The config header, then the machine blocks in slot order: slot k
/// holds machine InvPerm[k] (nullptr: the identity, machine k).
void serializeConfigImpl(ByteSink &Sink, const Config &Cfg,
                         const std::vector<int32_t> *InvPerm) {
  Sink.u8(static_cast<uint8_t>(Cfg.Error));
  Sink.u32(static_cast<uint32_t>(Cfg.Machines.size()));
  for (size_t K = 0; K != Cfg.Machines.size(); ++K)
    serializeMachineImpl(Sink, *Cfg.Machines[InvPerm ? (*InvPerm)[K] : K]);
}

/// Fingerprint of \p M with machine-typed values renamed through
/// \p Perm (nullptr: the plain fingerprint).
uint64_t streamFingerprint(const MachineState &M,
                           const std::vector<int32_t> *Perm) {
  HashSink Sink(Perm);
  serializeMachineImpl(Sink, M);
  return Sink.finish();
}

/// Seed for the config-level combination; any fixed odd constant works,
/// but it must never change once state counts are recorded.
constexpr uint64_t ConfigHashSeed = 0x50434647u; // "PCFG"

/// The config hash: the ordered hashCombine of the error component,
/// the machine count and \p SlotFp(k) for every slot k.
template <typename SlotFpT>
uint64_t combineConfigHash(const Config &Cfg, SlotFpT SlotFp) {
  uint64_t H = hashCombine(ConfigHashSeed,
                           static_cast<uint64_t>(Cfg.Error));
  H = hashCombine(H, static_cast<uint64_t>(Cfg.Machines.size()));
  for (size_t K = 0; K != Cfg.Machines.size(); ++K)
    H = hashCombine(H, SlotFp(K));
  return H;
}

} // namespace

void p::serializeConfig(const Config &Cfg, std::string &Out) {
  ByteSink Sink(Out);
  serializeConfigImpl(Sink, Cfg, nullptr);
}

void p::serializeConfigPermuted(const Config &Cfg,
                                const std::vector<int32_t> &Perm,
                                const std::vector<int32_t> &InvPerm,
                                std::string &Out) {
  ByteSink Sink(Out, &Perm);
  serializeConfigImpl(Sink, Cfg, &InvPerm);
}

uint64_t p::machineFingerprintFresh(const MachineState &M) {
  return streamFingerprint(M, nullptr);
}

uint64_t p::machineFingerprint(const CowMachine &M) {
  if (uint64_t F = M.cachedFingerprint())
    return F;
  uint64_t F = machineFingerprintFresh(*M);
  M.cacheFingerprint(F);
  return F;
}

uint64_t p::hashConfig(const Config &Cfg) {
  return combineConfigHash(
      Cfg, [&](size_t K) { return machineFingerprint(Cfg.Machines[K]); });
}

uint64_t p::hashConfigFresh(const Config &Cfg) {
  return combineConfigHash(
      Cfg, [&](size_t K) { return machineFingerprintFresh(*Cfg.Machines[K]); });
}

//===----------------------------------------------------------------------===//
// Symmetry support
//===----------------------------------------------------------------------===//

uint64_t p::machineRefsMaskFresh(const MachineState &M) {
  // The same walk as the fingerprint, so the mask covers exactly the
  // ids that can appear in it (a dead machine's walk stops at its
  // header, so it references nothing).
  RefsSink Sink;
  serializeMachineImpl(Sink, M);
  return Sink.Mask;
}

uint64_t p::machineRefsMask(const CowMachine &M) {
  if (uint64_t R = M.cachedRefsMask())
    return R;
  uint64_t R = machineRefsMaskFresh(*M);
  M.cacheRefsMask(R);
  return R;
}

uint64_t p::hashConfigPermuted(const Config &Cfg,
                               const std::vector<int32_t> &Perm,
                               const std::vector<int32_t> &InvPerm,
                               uint64_t Support) {
  return combineConfigHash(Cfg, [&](size_t K) {
    // Slot k holds machine π⁻¹(k). One that references no renamed id
    // walks the same words under π (the slot move is encoded by the
    // combination order, not the walk), so it reuses its cached
    // fingerprint.
    const CowMachine &M = Cfg.Machines[InvPerm[K]];
    return (machineRefsMask(M) & Support) == 0 ? machineFingerprint(M)
                                               : streamFingerprint(*M, &Perm);
  });
}
