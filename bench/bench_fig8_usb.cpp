//===- bench/bench_fig8_usb.cpp - Figure 8 reproduction ---------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Figure 8: "State machine sizes and exploration time" for the USB hub
// driver machines. The paper's table (proprietary Windows 8 drivers,
// Zing, multicore, hours):
//
//   machine   P-states  P-transitions  explored(M)  time     memory(MB)
//   HSM       196       361            5.9          2:30     1712
//   PSM 3.0   295       752            1.5          3:30     1341
//   PSM 2.0   457       1386           2.2          5:30     872
//   DSM       1919      4238           1.2          5:30     1127
//
// We cannot ship Microsoft's sources; our stand-in is a synthetic
// hub/port/device stack with the same architecture (see
// src/corpus/UsbHub.cpp and DESIGN.md). This bench reports the same
// columns for our models at increasing scale, preserving the shape:
// machine sizes in the tens of states, explored configurations orders
// of magnitude beyond the static machine size, growing steeply with
// scale and delay bound.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "support/Interrupt.h"
#include "tool/Tool.h"

#include <cstdio>
#include <string>

using namespace p;

namespace {

tool::Session S("fig8_usb");
std::FILE *Human = stdout; ///< Tables; stderr when the report owns stdout.

void printMachineSizes(const CompiledProgram &Prog) {
  std::fprintf(Human, "%-10s %-10s %-14s\n", "machine", "P-states",
               "P-transitions");
  for (const MachineInfo &M : Prog.Machines) {
    std::fprintf(Human, "%-10s %-10zu %-14d%s\n", M.Name.c_str(),
                 M.States.size(), M.countTransitions(),
                 M.Ghost ? "  (ghost env)" : "");
  }
}

} // namespace

int main(int argc, char **argv) {
  // Before anything else: a signal that arrives while the flags parse
  // must already end the run cooperatively.
  interrupt::installHandlers();
  tool::CommandLine Cmd{"bench_fig8_usb", "[flags]",
                        S.flags({"--workers", "--visited-mode",
                                 "--visited-cap", "--reduction", "--report",
                                 "--progress", "--checkpoint",
                                 "--checkpoint-interval", "--resume"})};
  Cmd.parse(argc, argv);
  Human = S.human();

  std::fprintf(Human,
               "=== Figure 8: USB hub machine sizes and exploration cost "
               "=== (workers=%d, 0=auto)\n\n",
               S.Base.Workers);
  std::fprintf(Human, "paper (Windows 8 USB stack, Zing):\n");
  std::fprintf(Human,
               "  HSM 196/361, PSM3.0 295/752, PSM2.0 457/1386, DSM "
               "1919/4238 P-states/transitions;\n");
  std::fprintf(Human, "  1.2M-5.9M explored states, 2.5h-5.5h, 0.9-1.7 GB\n\n");

  for (int Ports = 1; Ports <= 2; ++Ports) {
    std::fprintf(Human, "--- our scaled model: hub with %d port(s) ---\n",
                 Ports);
    CompiledProgram Prog = tool::compileOrExit(corpus::usbHub(Ports));
    printMachineSizes(Prog);

    std::fprintf(Human, "%-8s %-12s %-12s %-10s %-12s %s\n", "delay_d",
                 "explored", "nodes", "seconds", "visited_KB", "exhausted");
    for (int D = 0; D <= (Ports == 1 ? 2 : 1); ++D) {
      CheckOptions Opts = S.options("usbhub-p" + std::to_string(Ports) +
                                    "-d" + std::to_string(D));
      Opts.DelayBound = D;
      Opts.MaxNodes = 600000;
      Opts.StopOnFirstError = false;
      CheckResult R = check(Prog, Opts);
      std::fprintf(Human, "%-8d %-12llu %-12llu %-10.3f %-12llu %s\n", D,
                   static_cast<unsigned long long>(R.Stats.DistinctStates),
                   static_cast<unsigned long long>(R.Stats.NodesExplored),
                   R.Stats.Seconds,
                   static_cast<unsigned long long>(R.Stats.VisitedBytes /
                                                   1024),
                   R.Stats.Exhausted ? "yes" : "no (capped)");
      if (R.ErrorFound)
        std::fprintf(Human, "  !! unexpected error: %s\n",
                     R.ErrorMessage.c_str());
      obs::Json Config = S.config("usbhub");
      Config.set("ports", Ports);
      Config.set("delay_bound", D);
      Config.set("node_cap", 600000);
      S.record(Prog, std::move(Config), R);
    }
    std::fprintf(Human, "\n");
  }

  std::fprintf(Human,
               "shape check vs paper: explored configurations exceed "
               "static P-states by orders of magnitude,\n"
               "and the multi-machine interaction (ports x devices x "
               "power events) dominates the cost.\n");

  return S.finish();
}
