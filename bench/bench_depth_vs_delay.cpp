//===- bench/bench_depth_vs_delay.cpp - Bounding-strategy ablation ----------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Section 5's motivation for delay bounding: "the complexity of depth-
// bounded search increases exponentially with execution depth, and
// consequently does not scale ... errors may be lurking in long
// executions", while a delaying scheduler reaches arbitrarily long
// executions even with a delay bound of 0.
//
// This ablation compares the two strategies on the same seeded bugs:
//   * cost (nodes/states/time) until the bug is found, and
//   * the depth bound a depth-bounded search needs before it can find
//     the bug at all (the bug sits deep in the causal execution).
//
// --report writes the run report (obs/Report.h); --help lists the flags.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "tool/Tool.h"

#include <cstdio>
#include <string>

using namespace p;

namespace {

tool::Session S("depth_vs_delay");
std::FILE *Human = stdout; ///< Tables; stderr when the report owns stdout.

void addRecord(const char *Program, const char *Strategy, int Bound,
               uint64_t MaxNodes, const CompiledProgram &Prog,
               const CheckResult &R) {
  obs::Json Config = S.config(Program);
  Config.set("strategy", Strategy);
  Config.set("bound", Bound);
  Config.set("max_nodes", MaxNodes);
  S.record(Prog, std::move(Config), R);
}

void compareOn(const char *Name, const char *Slug,
               const CompiledProgram &Prog) {
  std::fprintf(Human, "--- %s ---\n", Name);

  // Delay-bounded: sweep d upward.
  for (int D = 0; D <= 3; ++D) {
    CheckOptions Opts = S.options("");
    Opts.DelayBound = D;
    CheckResult R = check(Prog, Opts);
    std::fprintf(Human,
                 "  delay  d=%-4d %-10s nodes=%-9llu states=%-9llu "
                 "%.3fs\n",
                 D, R.ErrorFound ? errorKindName(R.Error) : "clean",
                 static_cast<unsigned long long>(R.Stats.NodesExplored),
                 static_cast<unsigned long long>(R.Stats.DistinctStates),
                 R.Stats.Seconds);
    addRecord(Slug, "delay", D, 0, Prog, R);
    if (R.ErrorFound)
      break;
  }

  // Depth-bounded: double the depth bound until the bug appears or the
  // budget dies. Every level multiplies the schedule tree.
  for (int Depth = 8; Depth <= 256; Depth *= 2) {
    CheckOptions Opts = S.options("");
    Opts.Strategy = SearchStrategy::DepthBounded;
    Opts.DepthBound = Depth;
    Opts.MaxNodes = 2000000;
    CheckResult R = check(Prog, Opts);
    bool NodeCapped = R.Stats.NodesExplored >= Opts.MaxNodes;
    std::fprintf(Human,
                 "  depth  k=%-4d %-10s nodes=%-9llu states=%-9llu "
                 "%.3fs%s\n",
                 Depth, R.ErrorFound ? errorKindName(R.Error) : "clean",
                 static_cast<unsigned long long>(R.Stats.NodesExplored),
                 static_cast<unsigned long long>(R.Stats.DistinctStates),
                 R.Stats.Seconds, NodeCapped ? " (node-capped)" : "");
    addRecord(Slug, "depth", Depth, Opts.MaxNodes, Prog, R);
    if (R.ErrorFound || NodeCapped || R.Stats.Seconds > 30)
      break;
  }
  std::fprintf(Human, "\n");
}

} // namespace

int main(int argc, char **argv) {
  tool::CommandLine Cmd{"bench_depth_vs_delay", "[flags]",
                        S.flags({"--report"})};
  Cmd.parse(argc, argv);
  Human = S.human();
  std::fprintf(Human, "=== Ablation: depth-bounded vs delay-bounded search "
                      "(Section 5) ===\n\n");
  compareOn("elevator / missing-defer-close", "elevator_defer_close",
            tool::compileOrExit(
                corpus::elevator(corpus::ElevatorBug::MissingDeferCloseDoor)));
  compareOn("elevator / missing-defer-timer", "elevator_defer_timer",
            tool::compileOrExit(
                corpus::elevator(corpus::ElevatorBug::MissingDeferTimerFired)));
  compareOn("german / skip-owner-invalidation", "german_skip_inval",
            tool::compileOrExit(
                corpus::german(2, corpus::GermanBug::SkipOwnerInvalidation)));
  std::fprintf(Human,
               "observation (matches the paper): the delaying scheduler "
               "reaches deep causal executions at tiny bounds,\nwhile "
               "depth-bounded search pays an exponential tree before the "
               "bug's depth is even reachable.\n");

  return S.finish();
}
