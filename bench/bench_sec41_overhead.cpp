//===- bench/bench_sec41_overhead.cpp - Section 4.1 reproduction ------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Section 4.1: "Efficiency of generated code and runtime". The paper
// builds the same switch-and-LED driver twice — once in P (driver
// machine + ghost environment, code generated to C) and once directly
// against KMDF — feeds both 100 events per second, and finds both
// process each event in ~4 ms: "the P compiler and runtime do not
// introduce additional overhead".
//
// This bench reproduces the comparison three ways:
//   1. google-benchmark: per-event cost through the C++ interpreter
//      host (our debugging/scripting path);
//   2. per-event cost of a hand-written C++ driver (the "directly using
//      KMDF" stand-in) on the same event stream;
//   3. end-to-end: generate the C code (Section 4), compile it with the
//      system C compiler at -O2 together with the portable C runtime and
//      a hand-written C driver, run both on one million events, and
//      report ns/event side by side — the paper's actual configuration.
//
// --report times the drivers directly instead (see runReportMode);
// --benchmark_* flags go to google-benchmark; --help lists the flags.
//
//===----------------------------------------------------------------------===//

#include "codegen/CCodeGen.h"
#include "corpus/Corpus.h"
#include "fault/FaultPlan.h"
#include "frontend/Frontend.h"
#include "host/Host.h"
#include "obs/Metrics.h"
#include "tool/Tool.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

using namespace p;

namespace {

bool HasFaultSeed = false; ///< --fault-seed S given on the command line.
uint64_t FaultSeedFlag = 0;

/// The seeded adversarial transport for --fault-seed: a few percent of
/// external events dropped, duplicated or delayed. Deterministic per
/// seed, so a run is reproducible by quoting one integer.
FaultPlan sec41FaultPlan() {
  FaultPlan P;
  P.Seed = FaultSeedFlag;
  P.DropProb = 0.02;
  P.DuplicateProb = 0.02;
  P.DelayProb = 0.02;
  return P;
}

CompiledProgram &erasedSwitchLed() {
  static CompiledProgram Prog =
      tool::compileOrExit(corpus::switchLed(), /*EraseGhosts=*/true);
  return Prog;
}

/// One on/off cycle = 4 events (switch on, led ok, switch off, led ok).
///
/// With --fault-seed the host transport misbehaves (sec41FaultPlan), and
/// a dropped or reordered completion eventually leaves the strict driver
/// FSM facing an event it cannot handle. The "OS" half of the bench then
/// degrades gracefully — tear the driver down, bring up a fresh instance
/// — and the rebuild cost is charged to the same per-event budget, so
/// the reported rate is the cost of running *through* the faults.
void BM_PInterpreterDriver(benchmark::State &State) {
  std::optional<Host> H;
  H.emplace(erasedSwitchLed());
  if (HasFaultSeed)
    H->setFaultPlan(sec41FaultPlan());
  int32_t Id = H->createMachine("SwitchLedDriver");
  uint64_t Events = 0, Restarts = 0;
  for (auto _ : State) {
    H->addEvent(Id, "SwitchedOn");
    H->addEvent(Id, "LedOk");
    H->addEvent(Id, "SwitchedOff");
    H->addEvent(Id, "LedOk");
    Events += 4;
    if (HasFaultSeed && H->hasError()) {
      ++Restarts;
      H.emplace(erasedSwitchLed());
      H->setFaultPlan(sec41FaultPlan());
      Id = H->createMachine("SwitchLedDriver");
    }
  }
  if (H->hasError())
    State.SkipWithError(H->errorMessage().c_str());
  State.counters["events/s"] =
      benchmark::Counter(static_cast<double>(Events),
                         benchmark::Counter::kIsRate);
  if (HasFaultSeed)
    State.counters["driver restarts"] =
        benchmark::Counter(static_cast<double>(Restarts));
}
BENCHMARK(BM_PInterpreterDriver);

/// The hand-written driver: the same protocol as a plain C++ state
/// machine (what "directly using KMDF" means for control flow).
class HandwrittenDriver {
public:
  enum class St { Off, TurningOn, On, TurningOff };
  enum class Ev { SwitchedOn, SwitchedOff, LedOk, LedFailed };

  void handle(Ev E) {
    switch (S) {
    case St::Off:
      if (E == Ev::SwitchedOn) {
        Retries = 0;
        S = St::TurningOn;
        ++LedCommands;
      }
      break;
    case St::TurningOn:
      if (E == Ev::LedOk)
        S = St::On;
      else if (E == Ev::LedFailed && ++Retries >= 3)
        S = St::Off;
      else if (E == Ev::LedFailed)
        ++LedCommands;
      break;
    case St::On:
      if (E == Ev::SwitchedOff) {
        Retries = 0;
        S = St::TurningOff;
        ++LedCommands;
      }
      break;
    case St::TurningOff:
      if (E == Ev::LedOk)
        S = St::Off;
      else if (E == Ev::LedFailed && ++Retries >= 3)
        S = St::On;
      else if (E == Ev::LedFailed)
        ++LedCommands;
      break;
    }
  }

  St S = St::Off;
  int Retries = 0;
  uint64_t LedCommands = 0;
};

void BM_HandwrittenCppDriver(benchmark::State &State) {
  HandwrittenDriver D;
  uint64_t Events = 0;
  for (auto _ : State) {
    D.handle(HandwrittenDriver::Ev::SwitchedOn);
    D.handle(HandwrittenDriver::Ev::LedOk);
    D.handle(HandwrittenDriver::Ev::SwitchedOff);
    D.handle(HandwrittenDriver::Ev::LedOk);
    Events += 4;
    benchmark::DoNotOptimize(D);
  }
  State.counters["events/s"] =
      benchmark::Counter(static_cast<double>(Events),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_HandwrittenCppDriver);

//===----------------------------------------------------------------------===//
// End-to-end generated-C experiment
//===----------------------------------------------------------------------===//

void writeFile(const std::string &Path, const std::string &Contents) {
  std::ofstream Out(Path);
  Out << Contents;
}

int runCommand(const std::string &Cmd, std::string &Output) {
  FILE *Pipe = popen((Cmd + " 2>&1").c_str(), "r");
  if (!Pipe)
    return -1;
  char Buf[512];
  while (fgets(Buf, sizeof(Buf), Pipe))
    Output += Buf;
  return pclose(Pipe);
}

const char *GeneratedMain = R"(
#define _POSIX_C_SOURCE 199309L
#include "swled.h"
#include <stdio.h>
#include <stdlib.h>
#include <time.h>

static void on_error(PrtRuntime *rt, int mid, const char *kind,
                     const char *msg) {
  (void)rt; (void)mid;
  fprintf(stderr, "error: %s: %s\n", kind, msg);
  exit(2);
}

int main(void) {
  PrtRuntime *rt = PrtCreateRuntime(&swled_program, on_error);
  int id = PrtCreateMachine(rt, PMT_SwitchLedDriver, 0, 0, 0);
  const long long CYCLES = 250000; /* 1M events */
  struct timespec t0, t1;
  clock_gettime(CLOCK_MONOTONIC, &t0);
  for (long long i = 0; i < CYCLES; ++i) {
    PrtAddEvent(rt, id, PEV_SwitchedOn, prt_null());
    PrtAddEvent(rt, id, PEV_LedOk, prt_null());
    PrtAddEvent(rt, id, PEV_SwitchedOff, prt_null());
    PrtAddEvent(rt, id, PEV_LedOk, prt_null());
  }
  clock_gettime(CLOCK_MONOTONIC, &t1);
  double ns = (t1.tv_sec - t0.tv_sec) * 1e9 + (t1.tv_nsec - t0.tv_nsec);
  printf("ns_per_event %.1f\n", ns / (4.0 * CYCLES));
  PrtDestroyRuntime(rt);
  return 0;
}
)";

const char *HandwrittenC = R"(
#define _POSIX_C_SOURCE 199309L
#include <stdio.h>
#include <time.h>

enum st { OFF, TURNING_ON, ON, TURNING_OFF };
enum ev { SW_ON, SW_OFF, LED_OK, LED_FAILED };

struct drv { enum st s; int retries; unsigned long long cmds; };

static void handle(struct drv *d, enum ev e) {
  switch (d->s) {
  case OFF:
    if (e == SW_ON) { d->retries = 0; d->s = TURNING_ON; ++d->cmds; }
    break;
  case TURNING_ON:
    if (e == LED_OK) d->s = ON;
    else if (e == LED_FAILED && ++d->retries >= 3) d->s = OFF;
    else if (e == LED_FAILED) ++d->cmds;
    break;
  case ON:
    if (e == SW_OFF) { d->retries = 0; d->s = TURNING_OFF; ++d->cmds; }
    break;
  case TURNING_OFF:
    if (e == LED_OK) d->s = OFF;
    else if (e == LED_FAILED && ++d->retries >= 3) d->s = ON;
    else if (e == LED_FAILED) ++d->cmds;
    break;
  }
}

int main(void) {
  struct drv d = {OFF, 0, 0};
  const long long CYCLES = 250000;
  struct timespec t0, t1;
  clock_gettime(CLOCK_MONOTONIC, &t0);
  for (long long i = 0; i < CYCLES; ++i) {
    handle(&d, SW_ON);
    handle(&d, LED_OK);
    handle(&d, SW_OFF);
    handle(&d, LED_OK);
    /* Keep the optimizer from folding the whole FSM to a constant. */
    __asm__ volatile("" : "+m"(d));
  }
  clock_gettime(CLOCK_MONOTONIC, &t1);
  double ns = (t1.tv_sec - t0.tv_sec) * 1e9 + (t1.tv_nsec - t0.tv_nsec);
  printf("ns_per_event %.1f (cmds %llu)\n", ns / (4.0 * CYCLES), d.cmds);
  return 0;
}
)";

void runGeneratedCExperiment() {
  std::printf("\n=== End-to-end: generated C + C runtime vs hand-written "
              "C (the paper's configuration) ===\n");

  DiagnosticEngine Diags;
  Program Prog = parseAndAnalyze(corpus::switchLed(), Diags);
  CodegenOptions Opts;
  Opts.BaseName = "swled";
  CodegenResult R = generateC(Prog, Opts);
  if (!R.ok()) {
    std::printf("codegen failed: %s\n", R.Errors.front().c_str());
    return;
  }

  std::string Dir = "/tmp/p_sec41_bench";
  std::string Out;
  runCommand("mkdir -p " + Dir, Out);
  writeFile(Dir + "/swled.h", R.Header);
  writeFile(Dir + "/swled.c", R.Source);
  writeFile(Dir + "/gen_main.c", GeneratedMain);
  writeFile(Dir + "/hand.c", HandwrittenC);

  Out.clear();
  if (runCommand("cc -O2 -std=c99 -I" + Dir + " -I" + cRuntimeDir() + " " +
                     Dir + "/swled.c " + Dir + "/gen_main.c " +
                     cRuntimeDir() + "/prt_runtime.c -o " + Dir + "/gen",
                 Out)) {
    std::printf("compile of generated driver failed:\n%s", Out.c_str());
    return;
  }
  Out.clear();
  if (runCommand("cc -O2 -std=c99 " + Dir + "/hand.c -o " + Dir + "/hand",
                 Out)) {
    std::printf("compile of hand-written driver failed:\n%s", Out.c_str());
    return;
  }

  std::string GenOut, HandOut;
  runCommand(Dir + "/gen", GenOut);
  runCommand(Dir + "/hand", HandOut);
  std::printf("  generated P driver:   %s", GenOut.c_str());
  std::printf("  hand-written driver:  %s", HandOut.c_str());
  std::printf("\npaper context: at the paper's 100 events/second with "
              "~4 ms per-event processing (dominated by real hardware "
              "I/O),\nboth drivers above are 5-6 orders of magnitude "
              "faster than required — the P runtime's table dispatch "
              "adds\nnanoseconds, i.e. no observable overhead, matching "
              "Section 4.1's finding.\n");
  const std::string PSource = corpus::switchLed();
  std::printf("code size: P source %zu lines vs hand-written C baseline "
              "(paper: 150 lines P vs 6000 lines C for the full "
              "driver).\n",
              static_cast<size_t>(
                  std::count(PSource.begin(), PSource.end(), '\n')));
}

//===----------------------------------------------------------------------===//
// --report mode: manual timing into measure records
//===----------------------------------------------------------------------===//

/// google-benchmark owns stdout and its JSON flavor is not the run
/// report, so --report times each driver once directly (steady_clock
/// over a fixed cycle count) into one measure record each. The
/// interpreter run's own host supplies the report's host section
/// (dispatch latency p50/p99, queue high-water, events/sec) and its
/// p_host_* metrics. The generated-C experiment is skipped: it shells
/// out to the system C compiler, which a machine-readable smoke run
/// should not depend on.
int runReportMode(tool::Session &S) {
  using Clock = std::chrono::steady_clock;
  constexpr uint64_t Cycles = 100000; // 400k events per driver.
  auto Record = [&](const char *Driver, double Secs,
                    obs::Json Config = obs::Json::object(),
                    obs::Json Stats = obs::Json::object()) {
    const double NsPerEvent = Secs * 1e9 / (4.0 * Cycles);
    std::fprintf(S.human(), "%-22s %8.1f ns/event\n", Driver, NsPerEvent);
    Config.set("driver", Driver);
    Config.set("cycles", Cycles);
    Stats.set("events", 4 * Cycles);
    Stats.set("ns_per_event", NsPerEvent);
    S.Report.addMeasureRun(std::move(Config), std::move(Stats), Secs);
  };

  {
    Host H(erasedSwitchLed());
    int32_t Id = H.createMachine("SwitchLedDriver");
    auto T0 = Clock::now();
    for (uint64_t I = 0; I != Cycles; ++I) {
      H.addEvent(Id, "SwitchedOn");
      H.addEvent(Id, "LedOk");
      H.addEvent(Id, "SwitchedOff");
      H.addEvent(Id, "LedOk");
    }
    double Secs = std::chrono::duration<double>(Clock::now() - T0).count();
    if (H.hasError()) {
      std::fprintf(stderr, "interpreter driver errored: %s\n",
                   H.errorMessage().c_str());
      return 1;
    }
    Record("p_interpreter", Secs);
    S.Report.setHost(H);
    obs::MetricsRegistry Registry;
    H.exportMetrics(Registry);
    S.Report.setMetrics(Registry);
  }

  {
    HandwrittenDriver D;
    auto T0 = Clock::now();
    for (uint64_t I = 0; I != Cycles; ++I) {
      D.handle(HandwrittenDriver::Ev::SwitchedOn);
      D.handle(HandwrittenDriver::Ev::LedOk);
      D.handle(HandwrittenDriver::Ev::SwitchedOff);
      D.handle(HandwrittenDriver::Ev::LedOk);
      benchmark::DoNotOptimize(D);
    }
    double Secs = std::chrono::duration<double>(Clock::now() - T0).count();
    Record("handwritten_cpp", Secs);
  }

  // --fault-seed adds a third driver: the interpreter behind the seeded
  // adversarial transport, restarted whenever a lost or duplicated
  // completion wedges its FSM. ns_per_event here is the cost of staying
  // up under faults, rebuilds included.
  if (HasFaultSeed) {
    std::optional<Host> H;
    uint64_t Restarts = 0, Dropped = 0, Duplicated = 0, Delayed = 0;
    auto Fresh = [&] {
      if (H) {
        Dropped += H->stats().EventsDropped;
        Duplicated += H->stats().EventsDuplicated;
        Delayed += H->stats().EventsDelayed;
      }
      H.emplace(erasedSwitchLed());
      H->setFaultPlan(sec41FaultPlan());
      return H->createMachine("SwitchLedDriver");
    };
    int32_t Id = Fresh();
    auto T0 = Clock::now();
    for (uint64_t I = 0; I != Cycles; ++I) {
      H->addEvent(Id, "SwitchedOn");
      H->addEvent(Id, "LedOk");
      H->addEvent(Id, "SwitchedOff");
      H->addEvent(Id, "LedOk");
      if (H->hasError()) {
        ++Restarts;
        Id = Fresh();
      }
    }
    double Secs = std::chrono::duration<double>(Clock::now() - T0).count();
    Dropped += H->stats().EventsDropped;
    Duplicated += H->stats().EventsDuplicated;
    Delayed += H->stats().EventsDelayed;
    obs::Json Config = obs::Json::object();
    Config.set("fault_seed", FaultSeedFlag);
    obs::Json Stats = obs::Json::object();
    Stats.set("driver_restarts", Restarts);
    Stats.set("events_dropped", Dropped);
    Stats.set("events_duplicated", Duplicated);
    Stats.set("events_delayed", Delayed);
    Record("p_interpreter_faulty", Secs, std::move(Config),
           std::move(Stats));
  }
  return S.finish();
}

} // namespace

int main(int argc, char **argv) {
  tool::Session S("sec41_overhead");
  std::vector<char *> Args; // argv[0] and the --benchmark_* flags.
  tool::CommandLine Cmd{"bench_sec41_overhead", "[flags] [--benchmark_*]",
                        S.flags({"--report"})};
  Cmd.Flags.push_back({"--fault-seed", "S", &FaultSeedFlag,
                       "seeded faulty transport for the interpreter driver"});
  Cmd.PassPrefix = "--benchmark_";
  Cmd.Passed = &Args;
  Cmd.parse(argc, argv);
  HasFaultSeed = Cmd.given("--fault-seed");
  if (S.reporting())
    return runReportMode(S);

  int NewArgc = static_cast<int>(Args.size());
  benchmark::Initialize(&NewArgc, Args.data());
  std::printf("=== Section 4.1: per-event overhead, P vs hand-written "
              "===\n");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  runGeneratedCExperiment();
  return 0;
}
