//===- checker/ParallelSearch.cpp --------------------------------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "checker/ParallelSearch.h"

#include "checker/Checkpoint.h"
#include "checker/ChoiceLedger.h"
#include "checker/FrontierStore.h"
#include "checker/Replay.h"
#include "checker/SchedStack.h"
#include "checker/SliceMemo.h"
#include "checker/Successors.h"
#include "checker/StateHash.h"
#include "checker/VisitedTable.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Hashing.h"
#include "support/RefCount.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif
#if defined(__linux__)
#include <cinttypes>
#endif

using namespace p;

namespace {

//===----------------------------------------------------------------------===//
// Trace tree
//===----------------------------------------------------------------------===//

/// One decision along an admitted path, packed by packDecision. Text
/// is not stored: a counterexample's lines are rendered by re-executing
/// its schedule. An entry never changes after it is made; it lives
/// while a node or a child entry holds it.
constexpr uint64_t NoDecision = ~0ull;
struct TraceEntry {
  RefCount Refs;
  uint64_t Decision;
  TraceEntry *Parent; ///< Holds one reference; nullptr at the root.
};

/// A node's hold on its committed decision chain.
class TraceRef {
public:
  TraceRef() = default;
  TraceRef(const TraceRef &O) : E(O.E) {
    if (E)
      E->Refs.retain();
  }
  TraceRef(TraceRef &&O) noexcept : E(std::exchange(O.E, nullptr)) {}
  TraceRef &operator=(TraceRef O) noexcept {
    std::swap(E, O.E);
    return *this;
  }
  /// Releases in a loop, not by recursion: a chain is as long as the
  /// deepest path.
  ~TraceRef() {
    while (E && E->Refs.release())
      delete std::exchange(E, E->Parent);
  }

  /// Appends \p Decision; the new entry takes over this hold as its
  /// Parent.
  void extend(uint64_t Decision) { E = new TraceEntry{{}, Decision, E}; }
  const TraceEntry *get() const { return E; }

private:
  TraceEntry *E = nullptr;
};

enum class Branch : uint8_t { None, False, True };

/// A node of the schedule tree.
struct Node {
  Config Cfg;
  SchedStack Sched; ///< The delaying scheduler's stack S.
  int DelaysUsed = 0;
  int FaultsUsed = 0; ///< Faults injected along this path (≤ Budget).
  int Depth = 0;
  int32_t MustRun = -1; ///< Machine to resume after a choice point.
  /// Profiling only (CheckOptions::Profile): the machine *type* whose
  /// slice (or injected fault) produced this node's configuration; -1
  /// for the root. Attribution metadata — never part of a dedup key or
  /// serialization, so it cannot change what is explored.
  int32_t ByType = -1;
  Branch Choice = Branch::None; ///< Of a `*`; see admitBranch.
  bool ChoiceIdentity = true; ///< See NodeKeys::Identity.
  TraceRef Trace; ///< The committed decision chain.
  /// The packed decision that made this node; see commitTrace.
  uint64_t Pending = NoDecision;
  uint64_t ChoiceCfg = 0, ChoiceKey = 0; ///< The false branch's keys.
};

//===----------------------------------------------------------------------===//
// Shared tables
//===----------------------------------------------------------------------===//

/// Exact mode shards its byte-keyed map like the hashed tables stripe
/// theirs: by the top bits of the key's hash.
constexpr unsigned NumShards = VisitedTable::NumStripes;

unsigned shardOf(uint64_t Hash) {
  return static_cast<unsigned>(Hash >> (64 - VisitedTable::StripeBits));
}

/// Sets a flag that every worker reads, skipping the store — and the
/// invalidation of its cache line — when the flag already holds \p V.
void setOnce(std::atomic<bool> &Flag, bool V) {
  if (Flag.load(std::memory_order_relaxed) != V)
    Flag.store(V, std::memory_order_relaxed);
}

/// Appends \p V little-endian: Exact-mode node keys extend the config
/// bytes with the key suffix this way.
void appendI32(std::string &Out, int32_t V) {
  for (int B = 0; B != 4; ++B)
    Out.push_back(static_cast<char>((V >> (8 * B)) & 0xff));
}

/// Estimated footprint of one exact-mode entry, counting the string
/// header, map-node overhead, and the heap block behind non-SSO keys.
uint64_t exactEntryBytes(const std::string &Key) {
  uint64_t Bytes = sizeof(std::string) + sizeof(int32_t) + 2 * sizeof(void *);
  if (Key.size() > 15) // Past the usual small-string capacity.
    Bytes += Key.capacity() + 1;
  return Bytes;
}

/// One shard of Exact mode's node-dedup map: serialized node bytes ->
/// the budget it was explored under (see dominates(), the rule every
/// visited table shares). The oracle for the hashed tables, so it keys
/// on the full bytes, not a fingerprint.
struct ExactShard {
  std::mutex Mu;
  std::unordered_map<std::string, int32_t> Map;
  /// Running footprint of this shard. Written under Mu; atomic so the
  /// progress heartbeat can read it without taking every shard lock.
  std::atomic<uint64_t> Bytes{0};
};

/// The winning counterexample (lexicographically-least schedule).
struct ErrorRecord {
  bool Found = false;
  ErrorKind Kind = ErrorKind::None;
  std::string Message;
  int DelaysUsed = -1;
  int FaultsUsed = -1;
  std::vector<SchedDecision> Schedule;
};

class ParallelSearch;

/// Per-worker state. The frontier deque is LIFO for its owner (DFS) and
/// FIFO for thieves, who take the shallowest nodes from the front.
struct Worker {
  Worker(unsigned Id, const Executor &Base, const CheckOptions &Opts)
      : Id(Id), Exec(Base),
        Succ(Exec, Opts.Strategy, Opts.DelayBound, &Opts.Faults) {}

  unsigned Id;
  Executor Exec; ///< Own copy: observer callbacks stay thread-local.
  Successors Succ; ///< A node's children, through Exec.
  std::unique_ptr<SliceMemo> Memo; ///< Runs every slice of this worker.

  std::mutex FrontierMu;
  std::deque<Node> Frontier;
  /// Frontier.size(), stored relaxed by whoever holds FrontierMu, so the
  /// heartbeat and the spill trigger can read it without the lock.
  std::atomic<uint64_t> FrontierSize{0};

  std::string Buf; ///< Reusable serialization buffer (Exact keys).
  ChoiceLedger Ledger; ///< Windows of this worker's open `*` pairs.

  // Symmetry-reduction scratch (Reduction::Symmetry).
  std::string SymBuf;                        ///< Candidate node bytes.
  std::vector<int32_t> Perm, Inv;            ///< Current π and π⁻¹.
  std::vector<std::vector<int32_t>> Classes; ///< Permutable id classes.
  std::vector<int32_t> ClassTypes;           ///< Machine type per class.
  std::vector<std::vector<int32_t>> Arr;     ///< Odometer arrangements.

  /// This worker's trace ring (see CheckOptions::Trace); nullptr when
  /// tracing is off. Single-writer: only this worker records into it.
  obs::TraceSink *Trace = nullptr;

  // Locally accumulated counters, summed by snapshotStats(). Single-writer
  // (only the owning worker mutates them), so no cache line is written
  // by every worker per node; atomic so the heartbeat, the MaxNodes
  // check and checkpoint capture can read them mid-run.
  std::atomic<uint64_t> NodesExplored{0};
  std::atomic<uint64_t> DistinctStates{0};
  std::atomic<uint64_t> SymmetryCollapsed{0};
  std::atomic<uint64_t> FaultsInjected{0};
  std::atomic<uint64_t> Slices{0};
  std::atomic<uint64_t> SlicesInterpreted{0};
  std::atomic<uint64_t> Terminals{0};
  std::atomic<uint64_t> StealCount{0};
  std::atomic<uint64_t> ContentionNs{0};
  std::atomic<int> MaxDepth{0};
  std::vector<uint64_t> TerminalHashes;
  CoverageReport Coverage;
  /// Per-worker profile (CheckOptions::Profile): single-writer, no
  /// locks; merged in worker-index order after the join.
  obs::SearchProfile Prof;
};

//===----------------------------------------------------------------------===//
// The engine
//===----------------------------------------------------------------------===//

class ParallelSearch {
public:
  ParallelSearch(const CompiledProgram &Prog, const CheckOptions &Opts,
                 Executor *ExternalExec)
      : Prog(Prog), Opts(Opts), OwnedExec(Prog),
        BaseExec(ExternalExec ? *ExternalExec : OwnedExec),
        Mode(Opts.Visited),
        DoVerifyHashes(Opts.VerifyHashes ||
                       std::getenv("P_VERIFY_HASHES") != nullptr),
        SymOn(Opts.Reduce == Reduction::Symmetry && anySymmetricType(Prog)),
        ProfileOn(Opts.Profile) {
    if (SymOn) {
      TypeIsSym.resize(Prog.Machines.size(), 0);
      for (size_t I = 0; I != Prog.Machines.size(); ++I)
        TypeIsSym[I] = Prog.Machines[I].Symmetric ? 1 : 0;
    }
  }

  CheckResult run();

private:
  static bool anySymmetricType(const CompiledProgram &Prog) {
    for (const MachineInfo &M : Prog.Machines)
      if (M.Symmetric)
        return true;
    return false;
  }

  /// A copy of the base executor under this check's UseModelBodies and
  /// MaxStepsPerSlice: an external one lends observers, not limits.
  Executor deriveExec() const {
    Executor E(BaseExec);
    Executor::Options EO = E.options();
    EO.UseModelBodies = Opts.UseModelBodies;
    EO.MaxStepsPerSlice = Opts.MaxStepsPerSlice;
    E.setOptions(EO);
    return E;
  }

  unsigned resolveWorkers() const {
    if (Opts.Workers == 1)
      return 1;
    unsigned N = Opts.Workers <= 0
                     ? std::max(1u, std::thread::hardware_concurrency())
                     : static_cast<unsigned>(Opts.Workers);
    return std::min(N, 256u);
  }

  /// Commits \p N's pending decision to its chain. Only admitted and
  /// branching nodes commit, so pruned ones allocate nothing.
  static void commitTrace(Node &N) {
    if (N.Pending == NoDecision)
      return;
    N.Trace.extend(N.Pending);
    N.Pending = NoDecision;
  }

  /// \p N's schedule from the root: the committed chain, then Pending.
  /// No lock: \p N holds its chain, and entries never change.
  static std::vector<SchedDecision> materializeSchedule(const Node &N) {
    std::vector<SchedDecision> Out;
    if (N.Pending != NoDecision)
      Out.push_back(unpackDecision(N.Pending));
    for (const TraceEntry *E = N.Trace.get(); E; E = E->Parent)
      Out.push_back(unpackDecision(E->Decision));
    std::reverse(Out.begin(), Out.end());
    return Out;
  }

  /// Publishes \p W's frontier size; the caller holds W.FrontierMu.
  static void noteSize(Worker &W) {
    W.FrontierSize.store(W.Frontier.size(), std::memory_order_relaxed);
  }

  void pushNode(Worker &W, Node &&N) {
    size_t Size;
    {
      auto L = lockTimed(W.FrontierMu, &W.ContentionNs);
      W.Frontier.push_back(std::move(N));
      noteSize(W);
      Size = W.Frontier.size();
    }
    if (Spill && Size >= 2 * MinResident)
      maybeSpill(W);
  }

  bool popLocal(Worker &W, Node &N) {
    auto L = lockTimed(W.FrontierMu, &W.ContentionNs);
    if (W.Frontier.empty())
      return false;
    N = std::move(W.Frontier.back());
    W.Frontier.pop_back();
    noteSize(W);
    return true;
  }

  /// Steals up to half of a victim's frontier, oldest (shallowest)
  /// nodes first, so breadth created near the root keeps feeding idle
  /// workers while owners descend depth-first. The idle thief counts
  /// itself busy before it lets go of the victim's lock (see workerLoop).
  bool trySteal(Worker &W, Node &N) {
    for (unsigned K = 1; K != NumWorkers; ++K) {
      Worker &V = *Workers[(W.Id + K) % NumWorkers];
      // Never hold two frontier locks at once (two thieves stealing
      // from each other would deadlock): drain into a local batch
      // first, then re-lock our own deque.
      std::vector<Node> Batch;
      {
        std::unique_lock<std::mutex> L(V.FrontierMu, std::try_to_lock);
        if (!L.owns_lock() || V.Frontier.empty())
          continue;
        size_t Take = std::min<size_t>((V.Frontier.size() + 1) / 2, 8);
        for (size_t I = 0; I != Take; ++I) {
          Batch.push_back(std::move(V.Frontier.front()));
          V.Frontier.pop_front();
        }
        noteSize(V);
        BusyWorkers.fetch_add(1, std::memory_order_acq_rel);
      }
      N = std::move(Batch.back());
      Batch.pop_back();
      if (!Batch.empty()) {
        auto Mine = lockTimed(W.FrontierMu, &W.ContentionNs);
        for (Node &B : Batch)
          W.Frontier.push_back(std::move(B));
        noteSize(W);
      }
      W.StealCount.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Notes configuration \p CfgHash without a node.
  void noteConfig(Worker &W, uint64_t CfgHash, const Config &Cfg,
                  int32_t ByType) {
    countConfig(W, Visited.note(CfgHash, &W.ContentionNs), Cfg, ByType);
  }

  /// Counts \p Cfg as \p States states when \p V, the visited table's
  /// answer, is NewConfig; Full records that the search may have
  /// omitted states. \p ByType is the profiler's producer attribution
  /// (the type whose slice made the configuration; -1 for the root),
  /// ignored unless profiling.
  void countConfig(Worker &W, VisitedTable::Visit V, const Config &Cfg,
                   int32_t ByType, unsigned States = 1) {
    if (V == VisitedTable::Visit::Full)
      setOnce(Omission, true);
    if (V != VisitedTable::Visit::NewConfig)
      return;
    W.DistinctStates.fetch_add(States, std::memory_order_relaxed);
    if (ProfileOn)
      W.Prof.Machines[W.Prof.rowOf(ByType)].States += States;
    if (Opts.TrackCoverage) {
      // Every state on a reachable call stack counts as visited.
      for (const CowMachine &CM : Cfg.Machines) {
        const MachineState &M = *CM;
        if (!M.Alive)
          continue;
        auto &Cov = W.Coverage.Machines[M.MachineIndex];
        for (const StateFrame &F : M.Frames)
          Cov.StatesVisited.insert(F.State);
      }
    }
  }

  /// Counts a quiescent configuration, deduplicated by fingerprint so
  /// the total is independent of how many paths reach it.
  void noteTerminal(Worker &W, uint64_t CfgHash) {
    // The terminal table grows in every mode, so the set stays exact:
    // quiescent configurations are few, and TerminalHashes feeds the
    // d=0 ≡ runtime tests.
    if (Terminals.note(CfgHash, &W.ContentionNs) !=
        VisitedTable::Visit::NewConfig)
      return;
    W.Terminals.fetch_add(1, std::memory_order_relaxed);
    if (Opts.CollectTerminals)
      W.TerminalHashes.push_back(CfgHash);
  }

  /// Keys of one node (see nodeKeys). Under symmetry they are canonical:
  /// the minimum over candidate machine permutations π (products of
  /// per-class permutations of symmetric instances) of the π-renamed
  /// node. Renaming a machine id everywhere it occurs is a bisimulation
  /// — P programs can only compare ids for equality — so two nodes with
  /// equal canonical keys have isomorphic futures and may share one
  /// visited-set entry.
  struct NodeKeys {
    uint64_t CfgHash = 0; ///< Config hash: the state's identity.
    uint64_t Key = 0;     ///< Node tag (Exact: the hash of W.Buf).
    bool Identity = true; ///< The canonical form is the raw node itself.
  };

  NodeKeys nodeKeys(Worker &W, const Node &N);

  /// Hands \p Put the scheduler suffix of a node key, machine ids
  /// renamed through \p Perm (nullptr: none): the delaying scheduler's
  /// stack, MustRun and, with a fault budget, the faults spent — the
  /// node's future depends on each. Full 4-byte ids: truncation here
  /// once made distinct stacks collide. The faults join only when fault
  /// exploration is on, keeping budget-0 runs bit-identical to a
  /// checker without the fault layer.
  template <typename PutT>
  void keySuffix(const Node &N, const std::vector<int32_t> *Perm,
                 PutT Put) const {
    auto Id = [&](int32_t I) { return Perm && I >= 0 ? (*Perm)[I] : I; };
    if (Opts.Strategy == SearchStrategy::DelayBounded)
      for (int32_t S : N.Sched)
        Put(Id(S));
    Put(Id(N.MustRun));
    if (Opts.Faults.enabled())
      Put(N.FaultsUsed);
  }

  /// True when \p N is to be expanded. One visited-table probe checks
  /// node (K.CfgHash, K.Key) under \p Spent — see dominates() — and
  /// whether its configuration is new, which counts as \p States states;
  /// a Full Compact window prunes. \p Spent is the node's delays, or its
  /// depth in a depth-bounded search. Exact mode keys nodes on W.Buf.
  /// \p Met, when given, receives the budget the node's entry held (see
  /// VisitedTable::visit), or 0 when Full.
  bool admit(Worker &W, Node &N, const NodeKeys &K, int Spent,
             unsigned States = 1, uint64_t *Met = nullptr) {
    using Visit = VisitedTable::Visit;
    Visit V = Visit::Explore;
    if (Mode != VisitedMode::Exact) {
      V = Visited.visit(K.CfgHash, K.Key, Spent, &W.ContentionNs, Met);
      countConfig(W, V, N.Cfg, N.ByType, States);
    } else {
      ExactShard &S = Exact[shardOf(K.Key)];
      auto L = lockTimed(S.Mu, &W.ContentionNs);
      auto [It, Inserted] = S.Map.try_emplace(W.Buf, Spent);
      if (Met)
        *Met = Inserted ? VisitedTable::NoBudget : It->second;
      if (Inserted)
        S.Bytes += exactEntryBytes(It->first);
      else if (dominates(It->second, Spent))
        V = Visit::Dominated;
      else
        It->second = Spent;
      L.unlock();
      if (V != Visit::Dominated)
        countConfig(W, Visited.note(K.CfgHash, &W.ContentionNs), N.Cfg,
                    N.ByType, States);
    }
    if (Met && V == Visit::Full)
      *Met = 0; // Nothing stored: a pair's true branch is pruned too.
    return admitted(W, N, V == Visit::Dominated || V == Visit::Full,
                    K.Identity);
  }

  /// True when branch \p N of a `*` is to be expanded (DESIGN.md, "One
  /// visited entry per `*`"): the false branch probes for both branches,
  /// and W's ledger decides the true one.
  bool admitBranch(Worker &W, Node &N, int Spent) {
    if (N.Choice == Branch::True) {
      const ChoiceLedger::Verdict V = W.Ledger.onTrue(
          N.ChoiceCfg, N.ChoiceKey, VisitedTable::storedBudget(Spent));
      if (ProfileOn)
        ++(V == ChoiceLedger::Verdict::NoWindow ? W.Prof.ChoiceUnwindowed
                                                : W.Prof.ChoiceDecided);
      return admitted(W, N, V == ChoiceLedger::Verdict::Prune,
                      N.ChoiceIdentity);
    }
    // Exact mode keys on the node's bytes, which W.Buf no longer holds.
    const NodeKeys K =
        Mode == VisitedMode::Exact
            ? nodeKeys(W, N)
            : NodeKeys{N.ChoiceCfg, N.ChoiceKey, N.ChoiceIdentity};
    uint64_t Met = VisitedTable::NoBudget;
    const bool Expand = admit(W, N, K, Spent, 2, &Met);
    W.Ledger.onFalse(K.CfgHash, K.Key, Met);
    if (ProfileOn)
      W.Prof.ChoiceProbes += 1;
    return Expand;
  }

  /// Ends admission: a \p Pruned node not keyed as itself (\p Identity)
  /// counts a symmetry collapse. An admitted one counts as explored and
  /// commits its pending decision; one at the depth bound is not
  /// expanded, and the search is then not exhausted.
  bool admitted(Worker &W, Node &N, bool Pruned, bool Identity) {
    if (Pruned) {
      if (!Identity) {
        W.SymmetryCollapsed.fetch_add(1, std::memory_order_relaxed);
        if (ProfileOn)
          profileCollapse(W);
      }
      return false;
    }
    W.NodesExplored.fetch_add(1, std::memory_order_relaxed);
    if (ProfileOn)
      W.Prof.noteNode(N.ByType, N.Depth, N.DelaysUsed,
                      Opts.Faults.enabled() ? N.FaultsUsed : -1);
    if (N.Depth >= Opts.DepthBound) {
      setOnce(Exhausted, false);
      return false;
    }
    commitTrace(N);
    return true;
  }

  /// Makes \p N branch \p B of the choice point keyed \p K.
  static void setChoice(Node &N, Branch B, const NodeKeys &K) {
    N.Choice = B;
    N.ChoiceCfg = K.CfgHash;
    N.ChoiceKey = K.Key;
    N.ChoiceIdentity = K.Identity;
  }

  /// Records \p N's error, kept as the counterexample while its
  /// schedule is the lex-least, and stops the search on it when
  /// StopOnFirstError.
  void failed(Worker &W, const Node &N) {
    ErrorsFound.fetch_add(1, std::memory_order_relaxed);
    ErrorRecord R;
    R.Found = true;
    R.Kind = N.Cfg.Error;
    R.Message = N.Cfg.ErrorMessage;
    R.DelaysUsed =
        Opts.Strategy == SearchStrategy::DelayBounded ? N.DelaysUsed : -1;
    R.FaultsUsed = Opts.Faults.enabled() ? N.FaultsUsed : -1;
    R.Schedule = materializeSchedule(N);
    {
      auto L = lockTimed(BestMu, &W.ContentionNs);
      if (!Best.Found || compareSchedule(R.Schedule, Best.Schedule) < 0)
        Best = std::move(R);
    }
    if (Opts.StopOnFirstError)
      Stop.store(true, std::memory_order_relaxed);
  }

  /// Incremental config hash (cached per-machine fingerprints), with
  /// the optional cache-oblivious cross-check counted per node.
  uint64_t configHash(const Config &Cfg) {
    uint64_t H = hashConfig(Cfg);
    if (DoVerifyHashes && hashConfigFresh(Cfg) != H)
      HashMismatches.fetch_add(1, std::memory_order_relaxed);
    return H;
  }

  //===--------------------------------------------------------------------===//
  // Symmetry canonicalization (Reduction::Symmetry)
  //===--------------------------------------------------------------------===//

  /// Collects the permutable id classes of \p Cfg into W.Classes: for
  /// each `symmetric` machine type, the ids of its instances (ascending;
  /// classes of fewer than two instances are dropped). False when there
  /// is nothing to permute (or the config is too large for the
  /// hashConfigPermuted support mask), in which case the caller uses
  /// the unreduced key path.
  bool buildSymClasses(Worker &W, const Config &Cfg) {
    W.Classes.clear();
    W.ClassTypes.clear();
    const size_t NumM = Cfg.Machines.size();
    if (NumM > 62)
      return false;
    for (int32_t T = 0; T != static_cast<int32_t>(TypeIsSym.size()); ++T) {
      if (!TypeIsSym[T])
        continue;
      std::vector<int32_t> Ids;
      for (size_t Id = 0; Id != NumM; ++Id)
        if (Cfg.Machines[Id]->MachineIndex == T)
          Ids.push_back(static_cast<int32_t>(Id));
      if (Ids.size() >= 2) {
        W.Classes.push_back(std::move(Ids));
        W.ClassTypes.push_back(T);
      }
    }
    return !W.Classes.empty();
  }

  /// Profiler: credit a symmetry collapse to every symmetric type that
  /// contributed a permutable class (they earned the fold).
  void profileCollapse(Worker &W) {
    for (int32_t T : W.ClassTypes)
      W.Prof.Machines[W.Prof.rowOf(T)].SymmetryCollapsed += 1;
  }

  /// Upper bound on enumerated permutations per node. The enumeration
  /// order is deterministic (odometer over per-class next_permutation,
  /// identity first), so a capped prefix still canonicalizes
  /// consistently — equal canonical keys always certify a genuine
  /// permutation — it just merges fewer orbit members.
  static constexpr int MaxSymCandidates = 1024;

  NodeKeys canonicalNodeKeys(Worker &W, const Node &N);

  struct Sink;
  void process(Worker &W, Node &&N);
  void workerLoop(Worker &W);

  /// Point-in-time CheckStats for the progress heartbeat, checkpoint
  /// capture and the final stats: relaxed loads of the engine's flags
  /// and every worker's single-writer atomics. Exact once the workers
  /// have stopped, slightly stale across workers mid-run. FrontierNodes
  /// is the nodes in every frontier and in the spill store.
  CheckStats snapshotStats() const {
    CheckStats S;
    S.ErrorsFound = ErrorsFound.load(std::memory_order_relaxed);
    S.HashMismatches = HashMismatches.load(std::memory_order_relaxed);
    S.Exhausted = Exhausted.load(std::memory_order_relaxed);
    S.WorkersUsed = static_cast<int>(NumWorkers);
    for (const auto &W : Workers) {
      S.NodesExplored += W->NodesExplored.load(std::memory_order_relaxed);
      S.DistinctStates += W->DistinctStates.load(std::memory_order_relaxed);
      S.SymmetryCollapsed +=
          W->SymmetryCollapsed.load(std::memory_order_relaxed);
      S.FaultsInjected += W->FaultsInjected.load(std::memory_order_relaxed);
      S.Slices += W->Slices.load(std::memory_order_relaxed);
      S.SlicesInterpreted +=
          W->SlicesInterpreted.load(std::memory_order_relaxed);
      S.Terminals += W->Terminals.load(std::memory_order_relaxed);
      S.StealCount += W->StealCount.load(std::memory_order_relaxed);
      S.ContentionNs += W->ContentionNs.load(std::memory_order_relaxed);
      S.MaxDepth =
          std::max(S.MaxDepth, W->MaxDepth.load(std::memory_order_relaxed));
      S.FrontierNodes += W->FrontierSize.load(std::memory_order_relaxed);
    }
    S.VisitedBytes = visitedBytes();
    S.OmissionPossible = Omission.load(std::memory_order_relaxed);
    S.Interrupted = Interrupted.load(std::memory_order_relaxed);
    S.Resumed = DidResume;
    S.CheckpointsWritten =
        CheckpointsWritten.load(std::memory_order_relaxed);
    S.LastCheckpointBytes =
        LastCheckpointBytes.load(std::memory_order_relaxed);
    S.FrontierSpilledNodes = PriorSpilledNodes;
    S.FrontierSpillBytes = PriorSpillBytes;
    if (Spill) {
      S.FrontierNodes += Spill->pendingNodes();
      S.FrontierSpilledNodes += Spill->spilledNodes();
      S.FrontierSpillBytes += Spill->spilledBytes();
    }
    S.Seconds = PriorSeconds +
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - StartTime)
                    .count();
    return S;
  }

  /// Nodes explored so far, summed over the workers (the MaxNodes cut).
  uint64_t nodesExplored() const {
    uint64_t N = 0;
    for (const auto &W : Workers)
      N += W->NodesExplored.load(std::memory_order_relaxed);
    return N;
  }

  /// Honest visited-set footprint across every table that deduplicates
  /// exploration: the allocated slots of the visited and terminal
  /// tables, plus Exact mode's running map estimate. Slot arrays only
  /// grow and the map estimate only adds, so the total is monotone
  /// non-decreasing over a run.
  uint64_t visitedBytes() const {
    uint64_t B = Visited.bytes() + Terminals.bytes();
    for (const ExactShard &S : Exact)
      B += S.Bytes.load(std::memory_order_relaxed);
    return B;
  }

  /// Resets the kernel's RSS high-water mark so peakRssBytes() reports
  /// this run's peak, not the process-lifetime peak left behind by
  /// earlier check() calls in the same process. Linux only (writing "5"
  /// to /proc/self/clear_refs); best-effort — where it is unavailable
  /// the sample silently stays the lifetime peak.
  static void resetPeakRss() {
#if defined(__linux__)
    if (std::FILE *F = std::fopen("/proc/self/clear_refs", "w")) {
      std::fputs("5", F);
      std::fclose(F);
    }
#endif
  }

  /// Process peak RSS in bytes since the last resetPeakRss(). Linux
  /// reads VmHWM from /proc/self/status (the value clear_refs resets;
  /// ru_maxrss is not reset by it), everything else falls back to
  /// getrusage's lifetime ru_maxrss (KiB on Linux, bytes on macOS);
  /// 0 where neither source is available.
  static uint64_t peakRssBytes() {
#if defined(__linux__)
    if (std::FILE *F = std::fopen("/proc/self/status", "r")) {
      char Line[128];
      uint64_t KiB = 0;
      bool Found = false;
      while (std::fgets(Line, sizeof(Line), F))
        if (std::sscanf(Line, "VmHWM: %" SCNu64, &KiB) == 1) {
          Found = true;
          break;
        }
      std::fclose(F);
      if (Found)
        return KiB * 1024;
    }
#endif
#if defined(__unix__) || defined(__APPLE__)
    struct rusage RU;
    if (getrusage(RUSAGE_SELF, &RU) != 0)
      return 0;
#if defined(__APPLE__)
    return static_cast<uint64_t>(RU.ru_maxrss);
#else
    return static_cast<uint64_t>(RU.ru_maxrss) * 1024;
#endif
#else
    return 0;
#endif
  }

  /// Renders the human-readable counterexample by re-executing the
  /// schedule (decisions alone determine every line).
  std::vector<std::string> renderTrace(const std::vector<SchedDecision> &S);

  const CompiledProgram &Prog;
  const CheckOptions &Opts;
  Executor OwnedExec;
  Executor &BaseExec;

  unsigned NumWorkers = 1;
  std::vector<std::unique_ptr<Worker>> Workers;

  std::chrono::steady_clock::time_point StartTime;
  /// Frontier-depth distribution, resolved once from Opts.Metrics in
  /// run(); nullptr when no registry was supplied.
  obs::Histogram *DepthHist = nullptr;

  const VisitedMode Mode;
  /// Cross-check incremental vs. fresh hashes on every node.
  const bool DoVerifyHashes;
  /// Symmetry canonicalization active: requested and the program
  /// declares at least one symmetric machine type.
  const bool SymOn;
  /// Search profiler requested (CheckOptions::Profile).
  const bool ProfileOn;
  /// Indexed by machine type: declared `symmetric`. Empty unless SymOn.
  std::vector<char> TypeIsSym;
  /// The visited tables (see run() for each one's growth policy): nodes
  /// and configurations (Exact mode: configurations only), terminal
  /// configurations, and Exact mode's byte-keyed node map.
  VisitedTable Visited;
  VisitedTable Terminals;
  std::array<ExactShard, NumShards> Exact;

  std::atomic<uint64_t> ErrorsFound{0};
  std::atomic<uint64_t> HashMismatches{0};
  std::atomic<bool> Omission{false};
  /// Workers holding work (see workerLoop). Written when a worker goes
  /// idle or takes work from a victim or the spill store, not per node.
  alignas(64) std::atomic<unsigned> BusyWorkers{0};
  /// Read by every loop iteration, so alone on its cache line.
  alignas(64) std::atomic<bool> Stop{false};
  alignas(64) std::atomic<bool> Exhausted{true};

  std::mutex BestMu;
  ErrorRecord Best;

  //===--------------------------------------------------------------------===//
  // Crash safety: checkpoints, interruption, frontier spilling
  //===--------------------------------------------------------------------===//

  ckpt::FrontierNode toFrontierNode(const Node &N);
  Node fromFrontierNode(Worker &W, ckpt::FrontierNode &&F);
  void requestCheckpoint();
  void checkpointBarrier(Worker &W);
  void workerExited();
  bool captureCheckpoint(ckpt::CheckpointData &D);
  void performCheckpoint();
  bool restoreCheckpoint(ckpt::CheckpointData &&D, std::string &Why);
  void maybeSpill(Worker &W);
  bool tryReloadSpill(Worker &W, Node &N);

  /// Program+options compatibility token; 0 unless checkpointing or
  /// resuming (computed once in run()).
  uint64_t Fingerprint = 0;
  /// Out-of-core frontier (CheckOptions::FrontierMemLimitBytes); null
  /// when spilling is off or the spill file could not be created.
  std::unique_ptr<FrontierStore> Spill;
  /// Rough per-node footprint, measured from the first frontier node's
  /// serialized size; the frontiers' summed FrontierSize times this
  /// against the limit decides when to spill.
  uint64_t NodeBytesEstimate = 1024;
  /// Nodes a worker keeps in memory: it spills only from a frontier of
  /// at least twice this many.
  static constexpr size_t MinResident = 16;
  /// One-shot stderr warnings (checkpoint/spill I/O failure).
  std::atomic<bool> WarnedCkptFailure{false};
  std::atomic<bool> WarnedSpillFailure{false};

  std::atomic<bool> Interrupted{false};
  std::atomic<uint64_t> CheckpointsWritten{0};
  std::atomic<uint64_t> LastCheckpointBytes{0};
  /// Restored from a resumed checkpoint; added to this process's own
  /// elapsed time and spill counters so cumulative stats cover the
  /// whole logical search.
  double PriorSeconds = 0;
  uint64_t PriorSpilledNodes = 0;
  uint64_t PriorSpillBytes = 0;
  bool DidResume = false;

  /// Periodic-checkpoint barrier. Worker 0's loop requests a checkpoint
  /// (CkptFlag); every worker parks at its loop top; the last to park
  /// has exclusive access and snapshots the engine; a worker *exiting*
  /// the loop while others are parked completes the barrier on their
  /// behalf (workerExited), so the barrier can never outlive its
  /// participants.
  std::mutex CkptMu;
  std::condition_variable CkptCv;
  std::atomic<bool> CkptFlag{false};
  bool CkptRequested = false; ///< Guarded by CkptMu.
  unsigned CkptParked = 0;    ///< Guarded by CkptMu.
  uint64_t CkptGen = 0;       ///< Guarded by CkptMu.
  unsigned ActiveWorkers = 0; ///< Guarded by CkptMu.
};

/// Enumerates candidate permutations (an odometer over per-class
/// std::next_permutation, identity first, capped at MaxSymCandidates)
/// and returns the minimal keys. Exact mode keeps the lexicographically
/// least serialized node in W.Buf — the visited map keys on those bytes
/// — and takes the canonical config hash from its config prefix (every
/// candidate's config part has equal length, so the prefix of the
/// minimal node bytes is the minimal config serialization). Hashed
/// modes take the lexicographically least (config hash, node tag)
/// pair, so CfgHash is the least candidate config hash; cached
/// per-machine fingerprints are reused for machines whose refs mask is
/// disjoint from the permutation's support.
ParallelSearch::NodeKeys ParallelSearch::canonicalNodeKeys(Worker &W,
                                                          const Node &N) {
  const Config &Cfg = N.Cfg;
  const size_t NumM = Cfg.Machines.size();
  const bool Exact = Mode == VisitedMode::Exact;

  W.Perm.resize(NumM);
  W.Inv.resize(NumM);
  for (size_t I = 0; I != NumM; ++I)
    W.Perm[I] = static_cast<int32_t>(I);
  W.Arr.resize(W.Classes.size());
  for (size_t C = 0; C != W.Classes.size(); ++C)
    W.Arr[C] = W.Classes[C]; // Ascending ids: the identity arrangement.

  NodeKeys Out;
  bool First = true;
  size_t CfgLen = 0; // Exact: length of the bytes' config prefix.
  int Candidates = 0;
  for (;;) {
    // Materialize π: the j-th id of class C (ascending) maps to the
    // j-th id of its current arrangement; everything else is fixed.
    for (size_t C = 0; C != W.Classes.size(); ++C)
      for (size_t J = 0; J != W.Classes[C].size(); ++J)
        W.Perm[W.Classes[C][J]] = W.Arr[C][J];
    for (size_t I = 0; I != NumM; ++I)
      W.Inv[W.Perm[I]] = static_cast<int32_t>(I);

    if (Exact) {
      W.SymBuf.clear();
      serializeConfigPermuted(Cfg, W.Perm, W.Inv, W.SymBuf);
      if (First)
        CfgLen = W.SymBuf.size();
      keySuffix(N, &W.Perm, [&](int32_t V) { appendI32(W.SymBuf, V); });
      if (First || W.SymBuf < W.Buf) {
        Out.Identity = First;
        std::swap(W.Buf, W.SymBuf);
      }
    } else {
      uint64_t Support = 0;
      for (size_t I = 0; I != NumM; ++I)
        if (W.Perm[I] != static_cast<int32_t>(I))
          Support |= 1ull << I;
      uint64_t Hc = hashConfigPermuted(Cfg, W.Perm, W.Inv, Support);
      uint64_t K = Hc;
      keySuffix(N, &W.Perm, [&](int32_t V) {
        K = hashCombine(K, static_cast<uint32_t>(V));
      });
      if (First || Hc < Out.CfgHash || (Hc == Out.CfgHash && K < Out.Key)) {
        Out.CfgHash = Hc;
        Out.Key = K;
        Out.Identity = First;
      }
    }
    First = false;
    if (++Candidates >= MaxSymCandidates)
      break;
    // Odometer: advance the last class; a wrap (next_permutation back
    // to ascending) carries into the class before it.
    int C = static_cast<int>(W.Arr.size());
    while (C-- > 0)
      if (std::next_permutation(W.Arr[C].begin(), W.Arr[C].end()))
        break;
    if (C < 0)
      break;
  }
  if (Exact) {
    Out.Key = hashBytes(W.Buf.data(), W.Buf.size());
    Out.CfgHash = hashBytes(W.Buf.data(), CfgLen);
  }
  return Out;
}

/// The search's side of Successors::expand: slices run through W's
/// memo, and each child, pending the decision that made it, is pushed.
struct ParallelSearch::Sink {
  ParallelSearch &S;
  Worker &W;

  Executor::StepResult run(Node &N, int32_t Id) {
    if (W.Trace)
      W.Trace->record(obs::TraceKind::Slice, Id);
    std::chrono::steady_clock::time_point T0;
    if (S.ProfileOn)
      T0 = std::chrono::steady_clock::now();
    bool Interpreted = true;
    const Executor::StepResult R = W.Memo->run(N.Cfg, Id, Interpreted);
    if (Interpreted)
      W.SlicesInterpreted.fetch_add(1, std::memory_order_relaxed);
    if (S.ProfileOn) {
      const uint64_t Ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - T0)
              .count();
      // Every child of this slice — and the node keyed from its result —
      // is this type's doing.
      N.ByType = N.Cfg.Machines[Id]->MachineIndex;
      obs::MachineProfile &Row = W.Prof.Machines[W.Prof.rowOf(N.ByType)];
      Row.Slices += 1;
      Row.SlicesInterpreted += Interpreted;
      Row.SliceNs += Ns;
      W.Prof.SliceSeconds.observe(static_cast<double>(Ns) * 1e-9);
    }
    W.Slices.fetch_add(1, std::memory_order_relaxed);
    N.Depth += 1;
    N.Choice = Branch::None;
    // Single-writer max: only this worker stores, heartbeat only reads.
    if (N.Depth > W.MaxDepth.load(std::memory_order_relaxed))
      W.MaxDepth.store(N.Depth, std::memory_order_relaxed);
    N.Pending = packDecision({SchedDecision::Kind::Run, Id});
    // Both branches of a `*` or a foreign call share the Run decision.
    if (R.Outcome == Executor::StepOutcome::ChoicePoint ||
        R.Outcome == Executor::StepOutcome::ForeignCall)
      commitTrace(N);
    return R;
  }
  void choose(Config &Cfg, int32_t Id, bool Choice) {
    W.Memo->choose(Cfg, Id, Choice);
  }
  void child(Node &&C, const SchedDecision &D) {
    C.Pending = packDecision(D);
    if (spendsFault(D)) {
      W.FaultsInjected.fetch_add(1, std::memory_order_relaxed);
      if (S.ProfileOn) {
        // A fault is charged to the type of the machine it acts on.
        C.ByType = C.Cfg.Machines[D.Machine]->MachineIndex;
        // FaultKinds is indexed DropEvent, DupEvent, Crash, ForeignFault.
        W.Prof.FaultKinds[static_cast<int>(D.K) -
                          static_cast<int>(SchedDecision::Kind::DropEvent)] +=
            1;
      }
    }
    S.pushNode(W, std::move(C));
  }
  /// Both branches carry the false branch's keys, taken once here.
  void choice(Node &&True, Node &&False) {
    True.Pending = packDecision({SchedDecision::Kind::Choose, -1, true});
    False.Pending = packDecision({SchedDecision::Kind::Choose, -1, false});
    const NodeKeys K = S.nodeKeys(W, False);
    setChoice(False, Branch::False, K);
    setChoice(True, Branch::True, K);
    S.pushNode(W, std::move(True));
    S.pushNode(W, std::move(False));
  }
  void error(Node &&N) {
    S.noteConfig(W, S.configHash(N.Cfg), N.Cfg, N.ByType);
    S.failed(W, N);
  }
  bool stopped() const { return S.Stop.load(std::memory_order_relaxed); }
};

/// Keys \p N after its stack is normalized (see NodeKeys): its
/// configuration plus keySuffix. Exact mode serializes the whole node
/// into W.Buf and keys on the bytes; hashed modes fold the suffix into
/// the incremental config hash and never serialize.
ParallelSearch::NodeKeys ParallelSearch::nodeKeys(Worker &W, const Node &N) {
  // Incremental fingerprint: the combination of the per-machine cached
  // fingerprints — a successor re-hashes only the one machine its slice
  // mutated (the CowMachine cache survives for the rest).
  const uint64_t CfgHash = configHash(N.Cfg);
  if (SymOn && buildSymClasses(W, N.Cfg))
    return canonicalNodeKeys(W, N);
  NodeKeys K;
  K.CfgHash = CfgHash;
  if (Mode == VisitedMode::Exact) {
    W.Buf.clear();
    serializeConfig(N.Cfg, W.Buf);
    keySuffix(N, nullptr, [&](int32_t V) { appendI32(W.Buf, V); });
    K.Key = hashBytes(W.Buf.data(), W.Buf.size());
  } else {
    K.Key = CfgHash;
    keySuffix(N, nullptr, [&](int32_t V) {
      K.Key = hashCombine(K.Key, static_cast<uint32_t>(V));
    });
  }
  return K;
}

void ParallelSearch::process(Worker &W, Node &&N) {
  if (DepthHist)
    DepthHist->observe(N.Depth);
  if (N.Cfg.hasError()) {
    // Error configs produced directly (e.g. by enqueue) get recorded
    // here; Sink::error records errors from slices.
    failed(W, N);
    return;
  }
  // A delay-bounded node is keyed on its normalized S. A branch of a
  // `*` is keyed already, and never quiescent.
  const bool DelayBounded = Opts.Strategy == SearchStrategy::DelayBounded;
  const bool Runnable = !DelayBounded || normalize(W.Exec, N.Cfg, N.Sched);
  const bool IsBranch = N.Choice != Branch::None;
  const NodeKeys K = IsBranch ? NodeKeys() : nodeKeys(W, N);
  if (!IsBranch && !Runnable) { // Every machine awaits events.
    noteConfig(W, K.CfgHash, N.Cfg, N.ByType);
    noteTerminal(W, K.CfgHash);
    return;
  }
  // The dominance value of a depth-bounded search is the depth, not the
  // delays: a key first reached near the cut had its subtree cut short,
  // so a later, shallower visit — more slices left before the cut —
  // explores it again. The explored set is then every configuration
  // reachable within DepthBound slices, whatever order the workers
  // reach it in.
  const int Spent = DelayBounded ? N.DelaysUsed : N.Depth;
  if (IsBranch ? !admitBranch(W, N, Spent) : !admit(W, N, K, Spent))
    return;
  Sink Out{*this, W};
  if (!W.Succ.expand(std::move(N), Out))
    noteTerminal(W, K.CfgHash); // No machine is enabled.
}

void ParallelSearch::workerLoop(Worker &W) {
  // The progress heartbeat runs on worker 0's loop: cheap clock checks
  // between nodes, a stats snapshot when the interval elapses. The
  // callback runs on this thread, so it must not re-enter check().
  const bool Heartbeat =
      W.Id == 0 && Opts.Progress && Opts.ProgressIntervalSeconds > 0;
  const auto Interval = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(Opts.ProgressIntervalSeconds));
  auto NextBeat = std::chrono::steady_clock::now() + Interval;

  // Periodic checkpoints ride worker 0's loop the same way; the flag
  // then pulls every worker into the barrier. Interrupt polling is also
  // worker 0's job: one relaxed load per iteration, and the Stop flag
  // fans the decision out.
  const bool CkptTimer = W.Id == 0 && !Opts.CheckpointPath.empty() &&
                         Opts.CheckpointIntervalSeconds > 0;
  const auto CkptInterval = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(Opts.CheckpointIntervalSeconds));
  auto NextCkpt = std::chrono::steady_clock::now() + CkptInterval;
  const bool PollInterrupt = W.Id == 0 && Opts.InterruptFlag != nullptr;
  const bool CkptOn = !Opts.CheckpointPath.empty() &&
                      Opts.CheckpointIntervalSeconds > 0;

  // Termination: BusyWorkers counts the workers holding work, a node in
  // hand or a non-empty own frontier. Every worker starts busy and goes
  // idle when popLocal finds its own frontier empty; only its owner
  // pushes to a frontier, so it stays empty until a steal or a spill
  // reload hands the worker nodes, and those count it busy before they
  // release the victim's or the store's lock. The count is thus above 0
  // whenever a node sits in a frontier or a worker's hand, and a worker
  // that finds the spill store empty and then reads 0 knows no node is
  // left. Nothing here is written per node.
  bool Busy = true;
  int IdleSpins = 0;
  while (!Stop.load(std::memory_order_relaxed)) {
    if (Heartbeat && std::chrono::steady_clock::now() >= NextBeat) {
      Opts.Progress(snapshotStats());
      NextBeat = std::chrono::steady_clock::now() + Interval;
    }
    if (PollInterrupt &&
        Opts.InterruptFlag->load(std::memory_order_relaxed)) {
      // Cooperative interruption: stop draining the frontier. What is
      // left in flight lands in the final checkpoint (written
      // single-threaded after the join).
      Interrupted.store(true, std::memory_order_relaxed);
      Stop.store(true, std::memory_order_relaxed);
      break;
    }
    if (CkptTimer && std::chrono::steady_clock::now() >= NextCkpt) {
      requestCheckpoint();
      NextCkpt = std::chrono::steady_clock::now() + CkptInterval;
    }
    if (CkptOn && CkptFlag.load(std::memory_order_acquire))
      checkpointBarrier(W);
    if (Opts.MaxNodes && nodesExplored() >= Opts.MaxNodes) {
      // Checked *before* popping so the cut discards nothing: every
      // pending node stays in some frontier, which is what lets a
      // checkpointed MaxNodes run resume losslessly.
      Stop.store(true, std::memory_order_relaxed);
      break;
    }
    Node N;
    bool Have = popLocal(W, N);
    if (!Have && Busy) {
      Busy = false;
      BusyWorkers.fetch_sub(1, std::memory_order_acq_rel);
    }
    if (!Have && NumWorkers > 1) {
      // Windows of true branches that left this frontier are stale.
      W.Ledger.clear();
      Have = trySteal(W, N);
    }
    if (!Have && Spill)
      Have = tryReloadSpill(W, N);
    if (!Have) {
      if ((!Spill || Spill->pendingNodes() == 0) &&
          BusyWorkers.load(std::memory_order_acquire) == 0)
        break;
      if (++IdleSpins < 64)
        std::this_thread::yield();
      else
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      continue;
    }
    Busy = true;
    IdleSpins = 0;
    process(W, std::move(N));
  }
  workerExited();
}

std::vector<std::string>
ParallelSearch::renderTrace(const std::vector<SchedDecision> &Schedule) {
  Executor RExec = deriveExec();
  ReplayResult R = replaySchedule(RExec, Schedule, Opts);
  R.Steps.insert(R.Steps.begin(), std::move(R.Initial));
  return std::move(R.Steps);
}

//===----------------------------------------------------------------------===//
// Crash safety: checkpoints, interruption, frontier spilling
//===----------------------------------------------------------------------===//

ckpt::FrontierNode ParallelSearch::toFrontierNode(const Node &N) {
  ckpt::FrontierNode F;
  F.Cfg = N.Cfg; // COW handles: shares snapshots, no deep copy.
  F.Sched.assign(N.Sched.begin(), N.Sched.end());
  F.DelaysUsed = N.DelaysUsed;
  F.FaultsUsed = N.FaultsUsed;
  F.Depth = N.Depth;
  F.MustRun = N.MustRun;
  F.ByType = N.ByType;
  // Decisions from the root, so the node survives without its chain,
  // which this node's destruction may free.
  F.Schedule = materializeSchedule(N);
  return F;
}

Node ParallelSearch::fromFrontierNode(Worker &W, ckpt::FrontierNode &&F) {
  Node N;
  N.Cfg = std::move(F.Cfg);
  for (auto It = F.Sched.rbegin(); It != F.Sched.rend(); ++It)
    N.Sched.push(*It); // F.Sched is top first.
  N.DelaysUsed = F.DelaysUsed;
  N.FaultsUsed = F.FaultsUsed;
  N.Depth = F.Depth;
  N.MustRun = F.MustRun;
  N.ByType = F.ByType;
  // Rebuild the decision chain so a counterexample found below this
  // node still materializes a complete schedule; the last decision
  // stays pending, as it was when the node was captured.
  for (const SchedDecision &D : F.Schedule) {
    commitTrace(N);
    N.Pending = packDecision(D);
  }
  // A branch of a `*` re-derives its choice point's keys (false's).
  if (!F.Schedule.empty() && N.Cfg.isLive(N.MustRun) &&
      F.Schedule.back().K == SchedDecision::Kind::Choose) {
    const bool True = F.Schedule.back().Choice;
    N.Cfg.mutableMachine(N.MustRun).InjectedChoice = false;
    setChoice(N, True ? Branch::True : Branch::False, nodeKeys(W, N));
    N.Cfg.mutableMachine(N.MustRun).InjectedChoice = True;
  }
  return N;
}

void ParallelSearch::requestCheckpoint() {
  {
    std::lock_guard<std::mutex> L(CkptMu);
    if (CkptRequested)
      return;
    CkptRequested = true;
  }
  CkptFlag.store(true, std::memory_order_release);
}

void ParallelSearch::checkpointBarrier(Worker &) {
  std::unique_lock<std::mutex> L(CkptMu);
  if (!CkptRequested)
    return;
  const uint64_t Gen = CkptGen;
  if (++CkptParked == ActiveWorkers) {
    // Everyone else is parked in the wait below (holding no locks), so
    // the last arrival snapshots the engine with exclusive access.
    performCheckpoint();
    CkptParked = 0;
    CkptRequested = false;
    CkptFlag.store(false, std::memory_order_release);
    ++CkptGen;
    CkptCv.notify_all();
  } else {
    CkptCv.wait(L, [&] { return CkptGen != Gen; });
  }
}

void ParallelSearch::workerExited() {
  std::lock_guard<std::mutex> L(CkptMu);
  --ActiveWorkers;
  if (!CkptRequested)
    return;
  // A worker leaving mid-request would strand the others in the
  // barrier: complete it on their behalf, or drop the request when
  // this was the last worker (the final checkpoint written after the
  // join supersedes it).
  if (ActiveWorkers == 0 || CkptParked == ActiveWorkers) {
    if (ActiveWorkers > 0)
      performCheckpoint();
    CkptParked = 0;
    CkptRequested = false;
    CkptFlag.store(false, std::memory_order_release);
    ++CkptGen;
    CkptCv.notify_all();
  }
}

bool ParallelSearch::captureCheckpoint(ckpt::CheckpointData &D) {
  D.Fingerprint = Fingerprint;

  const CheckStats S = snapshotStats();
  D.DistinctStates = S.DistinctStates;
  D.NodesExplored = S.NodesExplored;
  D.ErrorsFound = S.ErrorsFound;
  D.FaultsInjected = S.FaultsInjected;
  D.SymmetryCollapsed = S.SymmetryCollapsed;
  D.HashMismatches = S.HashMismatches;
  D.OmissionPossible = S.OmissionPossible;
  // Depth-truncation state only: a Stop (interrupt, MaxNodes, error)
  // leaves its pending work in this very checkpoint, so it is not a
  // permanent loss and must not poison the resumed run's verdict.
  D.Exhausted = S.Exhausted;
  // Count this checkpoint in its own image, so the cumulative counter
  // survives the restart it enables.
  D.CheckpointsWritten = S.CheckpointsWritten + 1;
  D.Slices = S.Slices;
  D.Terminals = S.Terminals;
  D.StealCount = S.StealCount;
  D.ContentionNs = S.ContentionNs;
  D.MaxDepth = S.MaxDepth;
  D.ElapsedSeconds = S.Seconds;
  for (const auto &W : Workers)
    D.TerminalHashes.insert(D.TerminalHashes.end(),
                            W->TerminalHashes.begin(),
                            W->TerminalHashes.end());

  Visited.exportImage(D.TableImage);
  Terminals.exportImage(D.TerminalImage);
  for (ExactShard &S : Exact) {
    std::lock_guard<std::mutex> L(S.Mu);
    for (const auto &[Key, Delays] : S.Map)
      D.Exact.push_back({Key, Delays});
  }

  for (const auto &W : Workers)
    D.Coverage.merge(W->Coverage);
  {
    std::lock_guard<std::mutex> L(BestMu);
    D.BestFound = Best.Found;
    D.BestKind = Best.Kind;
    D.BestMessage = Best.Message;
    D.BestDelays = Best.DelaysUsed;
    D.BestFaults = Best.FaultsUsed;
    D.BestSchedule = Best.Schedule;
  }

  // The frontier: in-memory deques in worker order, front to back (a
  // serial resume replays the exact DFS stack, so a serial search's
  // open windows stay valid), then spilled segments.
  if (NumWorkers == 1)
    Workers[0]->Ledger.exportWindows(D.Windows);
  for (const auto &WP : Workers) {
    Worker &W = *WP;
    std::lock_guard<std::mutex> L(W.FrontierMu);
    for (const Node &N : W.Frontier)
      D.Frontier.push_back(toFrontierNode(N));
  }
  if (Spill) {
    std::vector<ckpt::FrontierNode> Spilled;
    std::string Why;
    if (!Spill->snapshot(Spilled, &Why)) {
      // A checkpoint that silently lost spilled nodes would resume an
      // incomplete search and still claim exhaustion — refuse instead.
      if (!WarnedCkptFailure.exchange(true))
        std::fprintf(stderr,
                     "warning: skipping checkpoint (cannot snapshot "
                     "spilled frontier: %s)\n",
                     Why.c_str());
      return false;
    }
    for (ckpt::FrontierNode &FN : Spilled)
      D.Frontier.push_back(std::move(FN));
    D.FrontierSpilledNodes = PriorSpilledNodes + Spill->spilledNodes();
    D.FrontierSpillBytes = PriorSpillBytes + Spill->spilledBytes();
  } else {
    D.FrontierSpilledNodes = PriorSpilledNodes;
    D.FrontierSpillBytes = PriorSpillBytes;
  }
  return true;
}

void ParallelSearch::performCheckpoint() {
  ckpt::CheckpointData D;
  if (!captureCheckpoint(D))
    return; // Warned already.
  std::string Why;
  uint64_t Bytes = 0;
  if (ckpt::saveCheckpoint(Opts.CheckpointPath, D, Why, &Bytes)) {
    CheckpointsWritten.fetch_add(1, std::memory_order_relaxed);
    LastCheckpointBytes.store(Bytes, std::memory_order_relaxed);
  } else if (!WarnedCkptFailure.exchange(true)) {
    // A failing disk must not kill a running search; the previous
    // checkpoint (if any) is still intact.
    std::fprintf(stderr, "warning: could not write checkpoint: %s\n",
                 Why.c_str());
  }
}

bool ParallelSearch::restoreCheckpoint(ckpt::CheckpointData &&D,
                                       std::string &Why) {
  ErrorsFound.store(D.ErrorsFound, std::memory_order_relaxed);
  HashMismatches.store(D.HashMismatches, std::memory_order_relaxed);
  Omission.store(D.OmissionPossible, std::memory_order_relaxed);
  Exhausted.store(D.Exhausted, std::memory_order_relaxed);
  CheckpointsWritten.store(D.CheckpointsWritten,
                           std::memory_order_relaxed);
  PriorSeconds = D.ElapsedSeconds;
  PriorSpilledNodes = D.FrontierSpilledNodes;
  PriorSpillBytes = D.FrontierSpillBytes;

  // Worker-local accumulators all land on worker 0; merges are sums,
  // so placement does not matter.
  Worker &W0 = *Workers[0];
  W0.NodesExplored.store(D.NodesExplored, std::memory_order_relaxed);
  W0.DistinctStates.store(D.DistinctStates, std::memory_order_relaxed);
  W0.SymmetryCollapsed.store(D.SymmetryCollapsed, std::memory_order_relaxed);
  W0.FaultsInjected.store(D.FaultsInjected, std::memory_order_relaxed);
  W0.Slices.store(D.Slices, std::memory_order_relaxed);
  W0.Terminals.store(D.Terminals, std::memory_order_relaxed);
  W0.StealCount.store(D.StealCount, std::memory_order_relaxed);
  W0.ContentionNs.store(D.ContentionNs, std::memory_order_relaxed);
  W0.MaxDepth.store(D.MaxDepth, std::memory_order_relaxed);
  W0.TerminalHashes = std::move(D.TerminalHashes);
  if (Opts.TrackCoverage)
    W0.Coverage.merge(D.Coverage);

  // Visited tables: the hashed ones restore positionally; Exact's map
  // re-shards by the same key hash the engine uses (byte accounting
  // mirrors the insert-time formula).
  if (!Visited.importImage(D.TableImage) ||
      !Terminals.importImage(D.TerminalImage)) {
    Why = "checkpoint's visited tables do not match this run's table shape";
    return false;
  }
  for (ckpt::CheckpointData::ExactEntry &E : D.Exact) {
    ExactShard &S = Exact[shardOf(hashBytes(E.Key.data(), E.Key.size()))];
    auto [It, Inserted] =
        S.Map.try_emplace(std::move(E.Key), E.Delays);
    if (Inserted)
      S.Bytes += exactEntryBytes(It->first);
  }

  if (D.BestFound) {
    Best.Found = true;
    Best.Kind = D.BestKind;
    Best.Message = std::move(D.BestMessage);
    Best.DelaysUsed = D.BestDelays;
    Best.FaultsUsed = D.BestFaults;
    Best.Schedule = std::move(D.BestSchedule);
    // The stored verdict is final under StopOnFirstError: do not
    // re-explore the pending frontier just to re-find it.
    if (Opts.StopOnFirstError)
      Stop.store(true, std::memory_order_relaxed);
  }

  // Frontier: serial runs take every node on worker 0 in capture order
  // (the exact DFS stack resumes); parallel runs deal round-robin.
  size_t Next = 0;
  for (ckpt::FrontierNode &FN : D.Frontier) {
    Worker &W = *Workers[NumWorkers == 1 ? 0 : Next++ % NumWorkers];
    W.Frontier.push_back(fromFrontierNode(W, std::move(FN)));
  }
  if (NumWorkers == 1) // Windows hold in a serial search's order only.
    W0.Ledger.importWindows(D.Windows);
  for (const auto &W : Workers)
    noteSize(*W);
  DidResume = true;
  return true;
}

void ParallelSearch::maybeSpill(Worker &W) {
  uint64_t InMem = 0;
  for (const auto &WP : Workers)
    InMem += WP->FrontierSize.load(std::memory_order_relaxed);
  if (InMem * NodeBytesEstimate <= Opts.FrontierMemLimitBytes)
    return;
  // Spill the cold half of our own frontier — the *front*, the oldest
  // breadth, which our DFS will not revisit for the longest and which
  // thieves can live without.
  std::vector<Node> Victims;
  {
    auto L = lockTimed(W.FrontierMu, &W.ContentionNs);
    if (W.Frontier.size() < 2 * MinResident)
      return;
    size_t Take = W.Frontier.size() / 2;
    Victims.reserve(Take);
    for (size_t I = 0; I != Take; ++I) {
      Victims.push_back(std::move(W.Frontier.front()));
      W.Frontier.pop_front();
    }
    noteSize(W);
  }
  std::vector<ckpt::FrontierNode> Batch;
  Batch.reserve(Victims.size());
  for (const Node &N : Victims)
    Batch.push_back(toFrontierNode(N));
  std::string Why;
  if (Spill->spill(Batch, &Why))
    return;
  // Disk refused: put the victims back in their original order and
  // keep searching in memory.
  if (!WarnedSpillFailure.exchange(true))
    std::fprintf(stderr,
                 "warning: frontier spill failed (%s); continuing "
                 "in-memory\n",
                 Why.c_str());
  auto L = lockTimed(W.FrontierMu, &W.ContentionNs);
  for (size_t I = Victims.size(); I-- > 0;)
    W.Frontier.push_front(std::move(Victims[I]));
  noteSize(W);
}

bool ParallelSearch::tryReloadSpill(Worker &W, Node &N) {
  std::vector<ckpt::FrontierNode> Seg;
  std::string Why;
  uint64_t Dropped = 0;
  if (!Spill->reload(Seg, &Why, &Dropped, &BusyWorkers)) {
    if (Dropped) {
      // An unreadable segment is permanently lost work: the run reports
      // incompleteness instead of over-claiming.
      if (!WarnedSpillFailure.exchange(true))
        std::fprintf(stderr,
                     "warning: dropped %llu spilled frontier nodes "
                     "(%s); results will be incomplete\n",
                     static_cast<unsigned long long>(Dropped),
                     Why.c_str());
      Exhausted.store(false, std::memory_order_relaxed);
    }
    return false;
  }
  // The youngest node of the segment comes back in hand; the rest
  // rejoin the in-memory frontier.
  Node Last = fromFrontierNode(W, std::move(Seg.back()));
  Seg.pop_back();
  if (!Seg.empty()) {
    std::vector<Node> Rest;
    Rest.reserve(Seg.size());
    for (ckpt::FrontierNode &FN : Seg)
      Rest.push_back(fromFrontierNode(W, std::move(FN)));
    auto L = lockTimed(W.FrontierMu, &W.ContentionNs);
    for (Node &B : Rest)
      W.Frontier.push_back(std::move(B));
    noteSize(W);
  }
  N = std::move(Last);
  return true;
}

CheckResult ParallelSearch::run() {
  StartTime = std::chrono::steady_clock::now();
  resetPeakRss(); // PeakRssBytes reports this run, not process history.

  if (Opts.Metrics)
    DepthHist = &Opts.Metrics->histogram(
        "p_check_frontier_depth", obs::exponentialBounds(1, 2, 16),
        "Depth of nodes popped from the exploration frontier");

  // Compact mode gives its whole byte cap to the visited table, bounded
  // for the life of the run; otherwise it grows. The terminal set always
  // grows, so it stays exact.
  uint64_t Cap = 0;
  if (Mode == VisitedMode::Compact)
    Cap = Opts.VisitedCapBytes ? Opts.VisitedCapBytes : 64ull * 1024 * 1024;
  Visited.init(Cap);
  Terminals.init(0);

  NumWorkers = resolveWorkers();
  Workers.reserve(NumWorkers);
  for (unsigned I = 0; I != NumWorkers; ++I) {
    Workers.push_back(std::make_unique<Worker>(I, deriveExec(), Opts));
    Worker *W = Workers.back().get();
    // Each worker records into its own sink (sinks are single-writer).
    // Always override the executor's sink: an external executor's
    // pointer must not be shared across worker threads.
    W->Trace = Opts.Trace ? &Opts.Trace->openSink() : nullptr;
    W->Exec.setTraceSink(W->Trace);
    W->Exec.setForeignFaultPoints(Opts.Faults.enabled() &&
                                  Opts.Faults.FailForeign);
    // Before the coverage and profile observers: a hit repeats a slice
    // this worker already ran through them (see SliceMemo.h).
    W->Memo = std::make_unique<SliceMemo>(
        W->Exec, DoVerifyHashes ? &HashMismatches : nullptr);
    if (Opts.TrackCoverage) {
      W->Coverage.Machines.resize(Prog.Machines.size());
      W->Exec.addDispatchObserver([W](int32_t Type, int32_t State,
                                      int32_t Event, TransitionKind Kind) {
        auto &Cov = W->Coverage.Machines[Type];
        Cov.StatesVisited.insert(State);
        if (Kind != TransitionKind::None)
          Cov.TransitionsFired.insert({State, Event});
      });
    }
    if (ProfileOn) {
      W->Prof.init(Prog.Machines.size());
      // Hot-transition counting over the same (type, state, event) keys
      // the coverage observer uses; single-writer into this worker's map.
      W->Exec.addDispatchObserver([W](int32_t Type, int32_t State,
                                      int32_t Event, TransitionKind Kind) {
        if (Kind != TransitionKind::None)
          W->Prof.Transitions[{Type, State, Event}] += 1;
      });
    }
  }

  if (!Opts.CheckpointPath.empty() || Opts.Resume)
    Fingerprint = ckpt::searchFingerprint(Prog, Opts);

  if (Opts.FrontierMemLimitBytes > 0) {
    std::string SpillPath;
    if (!Opts.SpillDir.empty())
      SpillPath = Opts.SpillDir + "/p-frontier-" +
                  std::to_string(reinterpret_cast<uintptr_t>(this)) +
                  ".spill";
    else if (!Opts.CheckpointPath.empty())
      SpillPath = Opts.CheckpointPath + ".spill";
    else {
      const char *Tmp = std::getenv("TMPDIR");
      SpillPath = std::string(Tmp && *Tmp ? Tmp : "/tmp") + "/p-frontier-" +
                  std::to_string(reinterpret_cast<uintptr_t>(this)) +
                  ".spill";
    }
    auto Store = std::make_unique<FrontierStore>(std::move(SpillPath));
    if (Store->ok())
      Spill = std::move(Store);
    else
      std::fprintf(stderr,
                   "warning: cannot create frontier spill file %s; "
                   "running fully in-memory\n",
                   Store->path().c_str());
  }

  ActiveWorkers = NumWorkers; // Threads are not running yet.

  if (Opts.Resume) {
    std::string Why;
    bool Ok = false;
    if (Opts.CheckpointPath.empty()) {
      Why = "resume requested but no checkpoint path given";
    } else {
      ckpt::CheckpointData D;
      D.Fingerprint = Fingerprint; // What the file must match.
      Ok = ckpt::loadCheckpoint(Opts.CheckpointPath, D, Why) &&
           restoreCheckpoint(std::move(D), Why);
    }
    if (!Ok) {
      // Never fall back to a fresh search: silently restarting from
      // scratch is exactly the surprise a corrupt checkpoint should
      // not cause.
      CheckResult Failed;
      Failed.ResumeError = Why;
      Failed.Stats.WorkersUsed = static_cast<int>(NumWorkers);
      return Failed;
    }
  } else {
    Node Root;
    Root.Cfg = BaseExec.makeInitialConfig();
    Root.Cfg.MaxQueue = Opts.MaxQueue;
    Root.Cfg.Overflow = Opts.Overflow;
    Root.Sched.push(0);
    Workers[0]->Frontier.push_back(std::move(Root));
    noteSize(*Workers[0]);
  }

  if (Spill) {
    // Size the spill trigger from a real node rather than a guess; the
    // slack term covers deque/trace bookkeeping the blob omits.
    for (const auto &WP : Workers)
      if (!WP->Frontier.empty()) {
        std::string Probe;
        ckpt::appendFrontierNode(toFrontierNode(WP->Frontier.front()),
                                 Probe);
        NodeBytesEstimate = std::max<uint64_t>(Probe.size() + 160, 256);
        break;
      }
  }

  BusyWorkers.store(NumWorkers, std::memory_order_relaxed);
  if (NumWorkers == 1) {
    workerLoop(*Workers[0]);
  } else {
    std::vector<std::thread> Threads;
    Threads.reserve(NumWorkers - 1);
    for (unsigned I = 1; I != NumWorkers; ++I)
      Threads.emplace_back([this, I] { workerLoop(*Workers[I]); });
    workerLoop(*Workers[0]);
    for (std::thread &T : Threads)
      T.join();
  }

  // Final checkpoint: every way the search ends — completion,
  // interruption, MaxNodes, error stop — leaves the on-disk state
  // matching it. Resuming a completed checkpoint is a no-op that
  // reproduces the same final stats.
  if (!Opts.CheckpointPath.empty())
    performCheckpoint();

  CheckResult Result;
  CheckStats &Stats = Result.Stats;
  Stats = snapshotStats();
  // Work left in a frontier or the spill store (interrupt, MaxNodes,
  // error stop) means the search is not exhausted *yet* — but unlike a
  // depth cut it is recoverable, so it must not poison the Exhausted
  // flag that the final checkpoint persisted for the resumed run.
  Stats.Exhausted = Stats.Exhausted && Stats.FrontierNodes == 0;
  Stats.FrontierNodes = 0; // A progress-callback signal only.
  for (const auto &W : Workers)
    Result.TerminalHashes.insert(Result.TerminalHashes.end(),
                                 W->TerminalHashes.begin(),
                                 W->TerminalHashes.end());
  // Worker-count-independent order for the (set-valued) terminal list.
  std::sort(Result.TerminalHashes.begin(), Result.TerminalHashes.end());
  Stats.PeakRssBytes = peakRssBytes();

  if (ProfileOn) {
    // Deterministic merge: worker-index order, plain sums. Totals of
    // deterministic stats (states) merge deterministically; node-side
    // splits inherit the scheduling races CheckStats documents.
    Result.Profile.init(Prog.Machines.size());
    for (const auto &W : Workers) {
      W->Prof.MemoEntries = W->Memo->entries();
      W->Prof.MemoBytes = W->Memo->heldBytes();
      Result.Profile.merge(W->Prof);
    }
    Result.Profile.VisitedSlotsUsed = Visited.usedSlots();
    Result.Profile.VisitedSlots = Visited.slots();
  }

  for (const auto &W : Workers)
    Result.Coverage.merge(W->Coverage);

  if (Best.Found) {
    Result.ErrorFound = true;
    Result.Error = Best.Kind;
    Result.ErrorMessage = Best.Message;
    Result.Schedule = Best.Schedule;
    Result.DelaysUsedOnError = Best.DelaysUsed;
    Result.FaultsUsedOnError = Best.FaultsUsed;
    Result.Trace = renderTrace(Best.Schedule);
  }

  Stats.Seconds = PriorSeconds +
                  std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - StartTime)
                      .count();

  if (Opts.Metrics) {
    obs::MetricsRegistry &M = *Opts.Metrics;
    M.counter("p_check_nodes_total", "Search nodes expanded")
        .inc(Stats.NodesExplored);
    M.counter("p_check_states_total", "Distinct global configurations")
        .inc(Stats.DistinctStates);
    M.counter("p_check_slices_total", "Run-to-scheduling-point slices")
        .inc(Stats.Slices);
    M.counter("p_check_slices_interpreted_total",
              "Slices the interpreter ran (the rest hit the slice memo)")
        .inc(Stats.SlicesInterpreted);
    M.counter("p_check_terminals_total", "Distinct quiescent configurations")
        .inc(Stats.Terminals);
    M.counter("p_check_errors_total", "Error transitions found")
        .inc(Stats.ErrorsFound);
    M.counter("p_check_steals_total", "Successful work-stealing operations")
        .inc(Stats.StealCount);
    M.counter("p_check_contention_ns_total",
              "Time blocked on shared-state locks (ns)")
        .inc(Stats.ContentionNs);
    M.gauge("p_check_visited_bytes", "Visited-table footprint of the run")
        .set(static_cast<double>(Stats.VisitedBytes));
    M.gauge("p_check_peak_rss_bytes",
            "Process peak resident set size after the run")
        .set(static_cast<double>(Stats.PeakRssBytes));
    M.gauge("p_check_omission_possible",
            "1 when the bounded visited set saturated (Compact mode)")
        .set(Stats.OmissionPossible ? 1 : 0);
    M.gauge("p_check_workers", "Resolved worker count of the run")
        .set(Stats.WorkersUsed);
    M.gauge("p_check_max_depth", "Deepest explored path")
        .set(Stats.MaxDepth);
    M.gauge("p_check_nodes_per_sec", "Exploration throughput of the run")
        .set(Stats.Seconds > 0 ? Stats.NodesExplored / Stats.Seconds : 0);
    M.counter("p_check_fault_injections_total",
              "Fault transitions explored (bounded-fault search)")
        .inc(Stats.FaultsInjected);
    M.gauge("p_check_fault_budget", "Fault budget of the run")
        .set(Opts.Faults.Budget);
    M.counter("p_check_symmetry_collapsed_total",
              "Nodes collapsed onto a symmetric representative")
        .inc(Stats.SymmetryCollapsed);
    M.counter("p_check_checkpoints_total",
              "Checkpoints written across the logical run")
        .inc(Stats.CheckpointsWritten);
    M.gauge("p_check_checkpoint_bytes",
            "Size of the most recently written checkpoint")
        .set(static_cast<double>(Stats.LastCheckpointBytes));
    M.gauge("p_check_interrupted",
            "1 when the run stopped on an interrupt request")
        .set(Stats.Interrupted ? 1 : 0);
    M.gauge("p_check_resumed", "1 when the run resumed from a checkpoint")
        .set(Stats.Resumed ? 1 : 0);
    M.counter("p_check_frontier_spilled_nodes_total",
              "Frontier nodes spilled to disk across the logical run")
        .inc(Stats.FrontierSpilledNodes);
    M.counter("p_check_frontier_spill_bytes_total",
              "Bytes of frontier segments written to disk")
        .inc(Stats.FrontierSpillBytes);
  }

  return Result;
}

} // namespace

CheckResult p::runParallelSearch(const CompiledProgram &Prog,
                                 const CheckOptions &Opts, Executor *Exec) {
  // On the heap: 1024 stripes in each of two tables and 1024 Exact
  // shards are too large for a caller's stack.
  return std::make_unique<ParallelSearch>(Prog, Opts, Exec)->run();
}
