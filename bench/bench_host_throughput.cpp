//===- bench/bench_host_throughput.cpp - Host event-path throughput ---------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The server-class host question: how many external events per second
// can the runtime ingest and dispatch? Two pumps over the same corpus
// program (corpus::pubSub — a real Broker fanning every Publish out to
// N real Subscribers):
//
//   * serial  — the classic mutex-guarded path: every addEvent takes
//     PumpMutex and runs the system to completion inline (the paper's
//     per-machine-lock KMDF discipline collapsed onto one lock).
//   * reactor — Host::startReactor: per-machine lock-free MPSC
//     mailboxes, a worker pool running ready machines, a timer-wheel
//     tick thread. Producers only CAS into a ring and return.
//
// P producer threads each publish E uniquely-numbered messages (⊎
// dedup eats identical payloads, so the sequence number is load-bearing)
// and the clock stops at quiescence — delivered throughput, not
// acceptance throughput. p50/p99 enqueue→dispatch latency comes from
// the host's dispatch-latency histogram.
//
// The ≥5× reactor/serial target from the issue assumes a multi-core
// box; on a single hardware thread the reactor cannot beat a perfectly
// uncontended mutex, so the speedup is reported, not asserted. CI gates
// on an absolute events/sec floor instead (--min-events-per-sec).
//
// --report writes the run report (obs/Report.h): one measure record per
// pump and the last pump's live host section; --quick shrinks the load
// for smoke tests; --help lists the flags.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "host/Host.h"
#include "obs/Metrics.h"
#include "tool/Tool.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace p;

namespace {

int WorkersFlag = 0;      ///< --workers N: reactor workers (0 = cores).
int ProducersFlag = 4;    ///< --producers N: load-generator threads.
int EventsFlag = 0;       ///< --events N per producer (0 = default).
int SubsFlag = 4;         ///< --subs N: subscribers behind the broker.
bool QuickFlag = false;   ///< --quick: small load for smoke tests.
double MinEps = 0;        ///< --min-events-per-sec X: CI floor (0 = off).
std::string ModeFlag = "both"; ///< --mode serial|reactor|both.
tool::Session S("host_throughput");
std::FILE *Human = stdout;

struct ModeResult {
  double Seconds = 0;
  uint64_t Delivered = 0;
  double EventsPerSec = 0;
  double P50 = 0, P99 = 0;
  uint64_t Slices = 0;
  uint64_t Spills = 0;
  uint64_t LatencyDropped = 0;
  uint64_t HighWater = 0;
  bool Failed = false;
};

/// One measured run; \p OutHost receives the (stopped) host when the
/// caller wants its metrics for a run report.
ModeResult runMode(bool UseReactor, const CompiledProgram &Prog,
                   std::unique_ptr<Host> *OutHost) {
  auto H = std::make_unique<Host>(Prog);
  int32_t Broker = H->createMachine("Broker");
  if (Broker < 0 || !H->runToCompletion()) {
    std::fprintf(stderr, "broker setup failed\n");
    std::exit(1);
  }
  if (UseReactor) {
    ReactorOptions O;
    O.Workers = WorkersFlag;
    H->startReactor(O);
  }

  const int PerProducer = EventsFlag;
  std::atomic<int> Failures{0};
  auto T0 = std::chrono::steady_clock::now();
  std::vector<std::thread> Producers;
  for (int P = 0; P != ProducersFlag; ++P)
    Producers.emplace_back([&, P] {
      for (int I = 0; I != PerProducer; ++I) {
        // Unique payload per message: ⊎ would coalesce repeats.
        Value Seq = Value::integer(static_cast<int64_t>(P) * PerProducer + I);
        if (!H->addEvent(Broker, "Publish", Seq)) {
          Failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    });
  for (std::thread &T : Producers)
    T.join();
  H->runToCompletion(); // The clock covers dispatch, not just ingress.
  auto T1 = std::chrono::steady_clock::now();
  if (UseReactor)
    H->stopReactor();

  ModeResult R;
  R.Failed = Failures.load() != 0 || H->hasError();
  if (H->hasError())
    std::fprintf(stderr, "error configuration: %s (%s)\n",
                 errorKindName(H->error()), H->errorMessage().c_str());
  R.Seconds = std::chrono::duration<double>(T1 - T0).count();
  const HostStats &S = H->stats();
  R.Delivered = S.EventsDelivered;
  R.EventsPerSec = R.Seconds > 0
                       ? static_cast<double>(R.Delivered) / R.Seconds
                       : 0;
  R.P50 = obs::histogramQuantile(H->dispatchLatency(), 0.5);
  R.P99 = obs::histogramQuantile(H->dispatchLatency(), 0.99);
  R.Slices = S.SlicesRun;
  R.Spills = S.MailboxSpills;
  R.LatencyDropped = S.LatencyDropped;
  R.HighWater = S.QueueDepthHighWater;
  if (OutHost)
    *OutHost = std::move(H);
  return R;
}

void record(const char *Mode, const ModeResult &R) {
  obs::Json Config = obs::Json::object();
  Config.set("program", "pubsub");
  Config.set("subscribers", SubsFlag);
  Config.set("mode", Mode);
  Config.set("producers", ProducersFlag);
  Config.set("events_per_producer", EventsFlag);
  Config.set("reactor_workers", WorkersFlag);
  Config.set("hardware_concurrency",
             static_cast<int>(std::thread::hardware_concurrency()));
  obs::Json Stats = obs::Json::object();
  Stats.set("events_delivered", R.Delivered);
  Stats.set("events_per_sec", R.EventsPerSec);
  Stats.set("dispatch_p50_seconds", R.P50);
  Stats.set("dispatch_p99_seconds", R.P99);
  Stats.set("slices_run", R.Slices);
  Stats.set("mailbox_spills", R.Spills);
  Stats.set("latency_dropped", R.LatencyDropped);
  Stats.set("queue_depth_highwater", R.HighWater);
  S.Report.addMeasureRun(std::move(Config), std::move(Stats), R.Seconds);
}

void printRow(const char *Mode, const ModeResult &R) {
  std::fprintf(Human, "%-8s %-12llu %-14.0f %-12.2f %-12.2f %-10llu %s\n",
               Mode, static_cast<unsigned long long>(R.Delivered),
               R.EventsPerSec, R.P50 * 1e6, R.P99 * 1e6,
               static_cast<unsigned long long>(R.Slices),
               R.Failed ? "FAILED" : "");
}

} // namespace

int main(int argc, char **argv) {
  tool::CommandLine Cmd{"bench_host_throughput", "[flags]",
                        S.flags({"--report"})};
  Cmd.Flags.insert(
      Cmd.Flags.end(),
      {{"--workers", "N", &WorkersFlag, "reactor workers (0 = every core)"},
       {"--producers", "N", &ProducersFlag, "load-generator threads", 1},
       {"--events", "N", &EventsFlag,
        "events per producer (0 = 25000, 2000 with --quick)", 0},
       {"--subs", "N", &SubsFlag, "subscribers behind the broker", 1},
       {"--mode", "serial|reactor|both", &ModeFlag, "which pumps to run"},
       {"--min-events-per-sec", "X", &MinEps,
        "fail below this delivered rate (0 = off)"},
       {"--quick", "", &QuickFlag, "small load for smoke tests"}});
  Cmd.parse(argc, argv);
  if (ModeFlag != "serial" && ModeFlag != "reactor" && ModeFlag != "both")
    Cmd.fail("--mode wants serial|reactor|both, got '" + ModeFlag + "'");
  Human = S.human();
  if (EventsFlag == 0)
    EventsFlag = QuickFlag ? 2000 : 25000;

  CompiledProgram Prog =
      tool::compileOrExit(corpus::pubSub(SubsFlag), /*EraseGhosts=*/true);

  std::fprintf(Human,
               "=== Host throughput: pubsub (%d subscribers), %d "
               "producers x %d events, %u hardware threads ===\n",
               SubsFlag, ProducersFlag, EventsFlag,
               std::thread::hardware_concurrency());
  std::fprintf(Human, "%-8s %-12s %-14s %-12s %-12s %-10s %s\n", "mode",
               "delivered", "events/sec", "p50_us", "p99_us", "slices",
               "note");

  ModeResult Serial, Reactor;
  bool RanSerial = ModeFlag == "serial" || ModeFlag == "both";
  bool RanReactor = ModeFlag == "reactor" || ModeFlag == "both";
  std::unique_ptr<Host> ReportHost;

  if (RanSerial) {
    Serial = runMode(/*UseReactor=*/false, Prog,
                     RanReactor ? nullptr : &ReportHost);
    printRow("serial", Serial);
    record("serial", Serial);
  }
  if (RanReactor) {
    Reactor = runMode(/*UseReactor=*/true, Prog, &ReportHost);
    printRow("reactor", Reactor);
    record("reactor", Reactor);
  }
  if (RanSerial && RanReactor && Serial.EventsPerSec > 0)
    std::fprintf(Human, "speedup (reactor/serial): %.2fx%s\n",
                 Reactor.EventsPerSec / Serial.EventsPerSec,
                 std::thread::hardware_concurrency() <= 1
                     ? "  (1-core host: no parallel speedup available)"
                     : "");

  if (Serial.Failed || Reactor.Failed)
    return 1;
  if (ReportHost) {
    obs::MetricsRegistry Registry;
    ReportHost->exportMetrics(Registry);
    S.Report.setHost(*ReportHost);
    S.Report.setMetrics(Registry);
  }
  if (int Rc = S.finish())
    return Rc;
  const double Measured =
      RanReactor ? Reactor.EventsPerSec : Serial.EventsPerSec;
  if (MinEps > 0 && Measured < MinEps) {
    std::fprintf(stderr,
                 "FAIL: %.0f events/sec below the %.0f floor\n", Measured,
                 MinEps);
    return 1;
  }
  return 0;
}
