//===- host/LatencyProbe.cpp --------------------------------------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "host/LatencyProbe.h"

#include "corpus/Corpus.h"
#include "frontend/Frontend.h"

#include <cstdio>
#include <cstdlib>

using namespace p;

HostLatencyProbe::HostLatencyProbe(int Cycles) {
  LowerOptions Opts;
  Opts.EraseGhosts = true;
  CompileResult R = compileString(corpus::switchLed(), Opts);
  if (!R.ok()) {
    // The corpus program is compiled throughout the test suite; failing
    // here means the build is broken, not the caller's input.
    std::fprintf(stderr, "latency probe: corpus SwitchLed failed to compile\n");
    std::abort();
  }
  Prog = std::move(*R.Program);
  H.reset(new Host(Prog));
  int32_t Id = H->createMachine("SwitchLedDriver");
  for (int I = 0; I < Cycles && Id >= 0; ++I) {
    H->addEvent(Id, "SwitchedOn");
    H->addEvent(Id, "LedOk");
    H->addEvent(Id, "SwitchedOff");
    H->addEvent(Id, "LedOk");
  }
}
