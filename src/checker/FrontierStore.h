//===- checker/FrontierStore.h - Disk-spillable search frontier ------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Out-of-core frontier storage. Breadth-heavy searches (high delay
/// bounds, fault budgets) can queue far more pending nodes than fit in
/// memory; when CheckOptions::FrontierMemLimitBytes is set, the engine
/// spills cold nodes — the *oldest* entries of a worker's deque, the
/// breadth a depth-first worker will not revisit for a long time —
/// through this store and reloads them when workers run dry.
///
/// The store is a process-lifetime append-only file of segments, each a
/// batch of ckpt::FrontierNode blobs (the same lossless codec
/// checkpoints use). Segments are reloaded LIFO. The file is never
/// meant to outlive the process: a checkpoint embeds every pending
/// spilled node (see snapshot()), so crash recovery goes through the
/// checkpoint, not the spill file, and the file is deleted on
/// destruction.
///
/// Spilling only reorders *when* pending nodes are expanded, which the
/// determinism contract already tolerates (work-stealing reorders
/// expansions the same way): on exhausted searches, dominance pruning
/// makes DistinctStates/Terminals/TerminalHashes independent of
/// expansion order.
///
//===----------------------------------------------------------------------===//

#ifndef P_CHECKER_FRONTIERSTORE_H
#define P_CHECKER_FRONTIERSTORE_H

#include "checker/Checkpoint.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace p {

class FrontierStore {
public:
  /// Opens (creates/truncates) the spill file at \p Path. Check ok().
  explicit FrontierStore(std::string Path);
  /// Closes and deletes the spill file.
  ~FrontierStore();

  FrontierStore(const FrontierStore &) = delete;
  FrontierStore &operator=(const FrontierStore &) = delete;

  /// False when the spill file could not be created; the engine then
  /// runs fully in-memory (and says so once on stderr).
  bool ok() const { return F != nullptr; }
  const std::string &path() const { return Path; }

  /// Appends \p Nodes as one segment. Thread-safe.
  bool spill(const std::vector<ckpt::FrontierNode> &Nodes,
             std::string *Why = nullptr);

  /// Pops the most recently spilled segment into \p Nodes (cleared
  /// first). Returns false with an empty \p Nodes when no segment is
  /// pending. On I/O or decode error the segment is *discarded* (it can
  /// never be read; retrying would spin forever), \p Why is set, and
  /// \p DroppedNodes receives the number of nodes lost so the caller
  /// can account for the loss. A successful reload increments \p Busy,
  /// when given, before it releases the store's lock: a worker that
  /// finds the store empty and then reads the busy-worker count cannot
  /// miss the nodes in between (see ParallelSearch's termination).
  /// Thread-safe.
  bool reload(std::vector<ckpt::FrontierNode> &Nodes,
              std::string *Why = nullptr, uint64_t *DroppedNodes = nullptr,
              std::atomic<unsigned> *Busy = nullptr);

  /// Reads every pending segment without consuming it, appending the
  /// nodes to \p Out in segment order — checkpoint capture uses this so
  /// spilled nodes land in the snapshot too. Thread-safe.
  bool snapshot(std::vector<ckpt::FrontierNode> &Out,
                std::string *Why = nullptr);

  /// Pending (spilled, not yet reloaded) node count.
  uint64_t pendingNodes() const;
  /// Cumulative counters for CheckStats.
  uint64_t spilledNodes() const { return TotalNodes; }
  uint64_t spilledBytes() const { return TotalBytes; }

private:
  struct Segment {
    uint64_t Offset = 0;
    uint64_t Bytes = 0;
    uint64_t Nodes = 0;
  };

  bool readSegment(const Segment &S, std::vector<ckpt::FrontierNode> &Out,
                   std::string *Why);

  std::string Path;
  mutable std::mutex Mu;
  std::FILE *F = nullptr;
  std::vector<Segment> Segments; ///< LIFO stack of pending segments.
  uint64_t WriteOff = 0;         ///< Append position (rewound when drained).
  uint64_t Pending = 0;          ///< Sum of Segments[i].Nodes.
  uint64_t TotalNodes = 0;       ///< Cumulative nodes ever spilled.
  uint64_t TotalBytes = 0;       ///< Cumulative bytes ever written.
};

} // namespace p

#endif // P_CHECKER_FRONTIERSTORE_H
