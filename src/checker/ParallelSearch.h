//===- checker/ParallelSearch.h - Parallel state-space exploration ---------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The exploration engine behind check(): Opts.Workers threads, each
/// with its own Executor and local DFS stack. A node's children come
/// from checker/Successors.h; this engine normalizes a node, admits it
/// through the visited table, and pushes, keys, steals, checkpoints,
/// spills and profiles what expand emits. The workers share
///
///  * one lock-striped visited table (checker/VisitedTable.h), probed
///    once per node — stripes keyed by the top bits of the
///    configuration hash, each node slot holding its tag and the
///    budget it was explored under, so the "fewer delays dominates"
///    pruning rule stays sound under concurrent insertion;
///  * a work-stealing frontier — idle workers steal the oldest
///    (shallowest) nodes from a victim's deque, keeping breadth
///    available near the root while owners run depth-first.
///
/// Independent of the threading, the hot path builds no bytes outside
/// Exact mode: the config hash combines cached, streamed per-machine
/// fingerprints, and the node tag folds the scheduler stack into it.
/// Trace entries (16 bytes) store only the packed decision and its
/// parent, and only for admitted or branching nodes; counterexample
/// text is rendered lazily by re-executing the schedule.
///
/// Determinism contract (exhausted searches): ErrorFound, Error,
/// DistinctStates, Terminals and TerminalHashes-as-a-set do not depend
/// on the worker count; the reported counterexample is the one with the
/// lexicographically-least schedule among those found before the stop.
/// Workers == 1 runs on the calling thread and explores in exactly the
/// classic serial DFS order.
///
//===----------------------------------------------------------------------===//

#ifndef P_CHECKER_PARALLELSEARCH_H
#define P_CHECKER_PARALLELSEARCH_H

#include "checker/Checker.h"

namespace p {

/// Runs the (possibly parallel) exploration of \p Prog under \p Opts.
/// \p Exec supplies foreign-function registrations and options; each
/// worker steps with its own copy so observer callbacks stay
/// thread-local. Pass nullptr to use a fresh executor.
CheckResult runParallelSearch(const CompiledProgram &Prog,
                              const CheckOptions &Opts, Executor *Exec);

} // namespace p

#endif // P_CHECKER_PARALLELSEARCH_H
