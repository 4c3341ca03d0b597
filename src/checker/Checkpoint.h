//===- checker/Checkpoint.h - Crash-safe search checkpoints ----------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// On-disk checkpoints of an in-flight check() run, so a multi-hour
/// search survives its own process: kill the checker mid-search (or let
/// it die), restart with CheckOptions::Resume, and the search finishes
/// with bit-identical DistinctStates/Terminals/TerminalHashes to an
/// uninterrupted run — the PR-1 determinism contract extended across
/// process lifetimes.
///
/// A checkpoint captures everything the search owes its future to:
///
///  * the frontier — every pending node (full machine configurations
///    via a lossless round-trip codec, scheduler stacks, delay/fault
///    budgets, and the decision path from the root so
///    counterexample traces survive the restart), including nodes the
///    FrontierStore spilled to disk;
///  * the visited tables: one positional image of the visited table
///    (node and configuration entries, each node with its tag and the
///    budget it was explored under; see
///    checker/VisitedTable.h), one of the terminal set and, in Exact
///    mode, the byte-keyed node map;
///  * CheckStats counters, the lex-least error record, collected
///    terminal hashes, and structural coverage.
///
/// File format (little-endian): an 8-byte magic, a u32 format version,
/// a u64 program+options fingerprint, a u64 payload length, the
/// payload, and a CRC-32 of everything before it. Files are published
/// with writeFileAtomic (temp + fsync + rename), so a crash during a
/// checkpoint leaves the previous checkpoint intact; a torn, truncated,
/// bit-flipped, version-skewed, or wrong-program file is *detected and
/// rejected* with a reason — never silently reused.
///
//===----------------------------------------------------------------------===//

#ifndef P_CHECKER_CHECKPOINT_H
#define P_CHECKER_CHECKPOINT_H

#include "checker/Checker.h"
#include "checker/ChoiceLedger.h"
#include "checker/VisitedTable.h"
#include "runtime/Config.h"

#include <cstdint>
#include <string>
#include <vector>

namespace p {
namespace ckpt {

/// Format version; bump on any layout change or change of what a stored
/// field means. Old files are rejected with a version-mismatch error,
/// not misparsed. Version 3: a depth-bounded run's visited entries hold
/// the depth a key was explored at (version 2 stored 0 delays there).
/// Version 4: fingerprints are streamed from the field walk, not hashed
/// from the serialized bytes, so every stored key changed.
/// Version 5: one visited image with per-slot node tags replaces the
/// separate node-dedup and distinct-state images.
/// Version 6: frontier nodes, visited images and Exact entries lose
/// their sleep-set and mask fields, and the sleep-prune counter goes.
/// Version 7: visited images hold 1024 stripe capacities, not 64.
/// Version 8: one visited entry per `*` (a true branch has none), and
/// a serial search's open choice windows.
inline constexpr uint32_t FormatVersion = 8;

/// CRC-32 (IEEE, reflected) over a byte range. Exposed so tests can
/// forge structurally-valid-but-stale files (e.g. version skew with a
/// recomputed CRC) and corrupted-file units can assert the failure mode.
uint32_t crc32(const void *Data, size_t Len);

//===----------------------------------------------------------------------===//
// Byte codec
//===----------------------------------------------------------------------===//

/// Little-endian append-only writer over a std::string buffer.
class ByteWriter {
public:
  explicit ByteWriter(std::string &Out) : Out(Out) {}

  void u8(uint8_t V) { Out.push_back(static_cast<char>(V)); }
  void u32(uint32_t V) {
    for (int I = 0; I != 4; ++I)
      Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
  }
  void i32(int32_t V) { u32(static_cast<uint32_t>(V)); }
  void u64(uint64_t V) {
    for (int I = 0; I != 8; ++I)
      Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
  }
  void f64(double V);
  void str(const std::string &S) {
    u64(S.size());
    Out.append(S);
  }

private:
  std::string &Out;
};

/// Bounds-checked little-endian reader. Every getter returns a value
/// and clears ok() on underrun; callers check ok() once at the end of a
/// section instead of after every field (a failed read yields zeros,
/// which the final check discards wholesale).
class ByteReader {
public:
  ByteReader(const char *Data, size_t Len) : Data(Data), Len(Len) {}

  uint8_t u8() {
    if (Pos + 1 > Len)
      return fail();
    return static_cast<uint8_t>(Data[Pos++]);
  }
  uint32_t u32() {
    uint32_t V = 0;
    if (Pos + 4 > Len)
      return fail();
    for (int I = 0; I != 4; ++I)
      V |= static_cast<uint32_t>(static_cast<uint8_t>(Data[Pos++]))
           << (8 * I);
    return V;
  }
  int32_t i32() { return static_cast<int32_t>(u32()); }
  uint64_t u64() {
    uint64_t V = 0;
    if (Pos + 8 > Len)
      return fail();
    for (int I = 0; I != 8; ++I)
      V |= static_cast<uint64_t>(static_cast<uint8_t>(Data[Pos++]))
           << (8 * I);
    return V;
  }
  double f64();
  std::string str() {
    uint64_t N = u64();
    if (!OkFlag || Pos + N > Len) {
      fail();
      return {};
    }
    std::string S(Data + Pos, N);
    Pos += N;
    return S;
  }

  bool ok() const { return OkFlag; }
  bool atEnd() const { return Pos == Len; }
  size_t remaining() const { return Len - Pos; }
  size_t pos() const { return Pos; }

private:
  uint8_t fail() {
    OkFlag = false;
    return 0;
  }
  const char *Data;
  size_t Len;
  size_t Pos = 0;
  bool OkFlag = true;
};

//===----------------------------------------------------------------------===//
// Frontier nodes
//===----------------------------------------------------------------------===//

/// One pending search node in engine-neutral form: the full machine
/// configuration, the delaying scheduler's stack, the budgets spent,
/// and the decision path from the root (so the restored
/// node can still materialize a counterexample trace). The same codec
/// serves both checkpoints and the FrontierStore's spill segments.
struct FrontierNode {
  Config Cfg;
  std::vector<int32_t> Sched;
  int32_t DelaysUsed = 0;
  int32_t FaultsUsed = 0;
  int32_t Depth = 0;
  int32_t MustRun = -1;
  int32_t ByType = -1;
  /// The decisions that produced this node, root-first.
  std::vector<SchedDecision> Schedule;
};

/// Lossless Config round-trip (unlike checker/StateHash.h's canonical
/// serialization, dead machines keep their residual fields too, so a
/// restored configuration is field-for-field identical).
void appendConfig(const Config &Cfg, ByteWriter &W);
bool readConfig(ByteReader &R, Config &Cfg);

void appendFrontierNode(const FrontierNode &N, std::string &Out);
bool readFrontierNode(ByteReader &R, FrontierNode &N);

//===----------------------------------------------------------------------===//
// Checkpoint payload
//===----------------------------------------------------------------------===//

/// Everything a resumed run restores, in plain data form. The engine
/// (checker/ParallelSearch.cpp) converts between this and its sharded
/// internal tables on capture/restore.
struct CheckpointData {
  /// Compatibility token (see searchFingerprint): resuming under a
  /// different program or search-relevant options is rejected.
  uint64_t Fingerprint = 0;

  // Deterministic and diagnostic counters of the run so far.
  uint64_t DistinctStates = 0;
  uint64_t NodesExplored = 0;
  uint64_t Slices = 0;
  uint64_t Terminals = 0;
  uint64_t ErrorsFound = 0;
  uint64_t FaultsInjected = 0;
  uint64_t SymmetryCollapsed = 0;
  uint64_t HashMismatches = 0;
  uint64_t StealCount = 0;
  uint64_t ContentionNs = 0;
  uint64_t CheckpointsWritten = 0;
  uint64_t FrontierSpilledNodes = 0;
  uint64_t FrontierSpillBytes = 0;
  int32_t MaxDepth = 0;
  double ElapsedSeconds = 0;
  bool OmissionPossible = false;
  bool Exhausted = true;

  /// The visited table (Exact mode: configurations only) and the
  /// terminal set. A bounded (Compact) table's stripes must match on
  /// restore — guaranteed by VisitedCapBytes joining the fingerprint.
  VisitedImage TableImage;
  VisitedImage TerminalImage;

  /// Exact mode's node map, flattened across shards.
  struct ExactEntry {
    std::string Key;
    int32_t Delays = 0;
  };
  std::vector<ExactEntry> Exact;

  // Result-side state.
  std::vector<uint64_t> TerminalHashes; ///< CollectTerminals only.
  CoverageReport Coverage;              ///< TrackCoverage only.
  bool BestFound = false;
  ErrorKind BestKind = ErrorKind::None;
  std::string BestMessage;
  int32_t BestDelays = -1;
  int32_t BestFaults = -1;
  std::vector<SchedDecision> BestSchedule;
  /// A serial search's open choice windows (checker/ChoiceLedger.h).
  std::vector<ChoiceWindow> Windows;

  /// Pending nodes (in-memory frontiers in worker order plus spilled
  /// segments), in capture order — a serial resume replays the exact
  /// DFS stack.
  std::vector<FrontierNode> Frontier;
};

/// Compatibility fingerprint of (program, search-relevant options).
/// Covers the program's structure (events, machines, states, bodies)
/// and every option that changes what is explored or how it is keyed
/// (strategy, bounds, visited mode and cap, fault spec, queue policy,
/// reduction, terminal collection). Deliberately excludes Workers —
/// the determinism contract makes resuming under a different worker
/// count legal — and pure observers (coverage, tracing, metrics,
/// progress, profiling).
uint64_t searchFingerprint(const CompiledProgram &Prog,
                           const CheckOptions &Opts);

/// Serializes \p D and publishes it at \p Path atomically. On success
/// fills \p BytesWritten (when given) with the file size. On failure
/// returns false with a reason in \p Why; the previous checkpoint file,
/// if any, is left intact.
bool saveCheckpoint(const std::string &Path, const CheckpointData &D,
                    std::string &Why, uint64_t *BytesWritten = nullptr);

/// Loads and verifies a checkpoint: magic, format version, CRC-32, and
/// the program/options fingerprint (compared against D.Fingerprint,
/// which the caller pre-fills with the current run's value) are all
/// checked before any payload field is trusted. Returns false with a
/// specific reason — "not a checkpoint", "version N (expected M)",
/// "CRC mismatch (truncated or corrupted)", "fingerprint mismatch" —
/// on any defect.
bool loadCheckpoint(const std::string &Path, CheckpointData &D,
                    std::string &Why);

} // namespace ckpt
} // namespace p

#endif // P_CHECKER_CHECKPOINT_H
