//===- host/LatencyProbe.h - Canned live host run for reports --------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A self-contained live Host run whose metrics a run report can cite:
/// the Section 4.1 Switch-and-LED driver (ghost-erased), pumped through
/// a fixed number of on/ok/off/ok cycles. A check tool's `--report`
/// (tool/Tool.h) attaches this probe so the report's host section — dispatch
/// latency p50/p99, queue high-water, events/sec — comes from a real
/// pump, not synthetic numbers.
///
//===----------------------------------------------------------------------===//

#ifndef P_HOST_LATENCYPROBE_H
#define P_HOST_LATENCYPROBE_H

#include "host/Host.h"
#include "pir/Program.h"

#include <memory>

namespace p {

/// Compiles the erased SwitchLed driver, creates one instance, and
/// pumps \p Cycles switch cycles through addEvent. The probe owns both
/// the program and the host (the host keeps a reference into the
/// program, so their lifetimes must be tied).
class HostLatencyProbe {
public:
  explicit HostLatencyProbe(int Cycles = 500);

  const Host &host() const { return *H; }
  Host &host() { return *H; }

private:
  CompiledProgram Prog;
  std::unique_ptr<Host> H;
};

} // namespace p

#endif // P_HOST_LATENCYPROBE_H
