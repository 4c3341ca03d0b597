//===- perfbench/driver.cpp - Measuring driver of the repository benchmark -===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// One process makes one measurement and prints it as a single JSON object
// on the last line of stdout. run.py, the benchmark's entry point, starts
// these processes, takes medians across them and checks correctness:
//
//   perfbench provenance
//   perfbench setup --program german|pubsub
//   perfbench verdict --workers N --profile 0|1 [--delay D]
//   perfbench micro --seed S
//   perfbench pubsub --seed S --seconds T --part ladder|nominal|traced
//
// Everything goes through the library's public API: compileString,
// check, Host, Executor::step/enqueueEvent, hashConfig/hashConfigFresh/
// serializeConfig and Config copies. Nothing inside the library is
// instrumented; per-layer costs are timed from the outside, around calls
// into each module. LAYERS.md says which end-to-end metric each of them
// is expected to move.
//
//===----------------------------------------------------------------------===//

#include "checker/Checker.h"
#include "checker/StateHash.h"
#include "corpus/Corpus.h"
#include "frontend/Frontend.h"
#include "host/Host.h"
#include "obs/Json.h"
#include "runtime/Executor.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define PERFBENCH_PAUSE() _mm_pause()
#else
#define PERFBENCH_PAUSE() ((void)0)
#endif

using namespace p;

namespace {

using Clock = std::chrono::steady_clock;

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Keeps a computed value alive so the timed loop producing it is not
/// optimized away.
volatile uint64_t Sink = 0;

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Counts of nonnegative nanosecond samples in a fixed number of buckets,
/// however many samples there are: exact below 2048 ns, then 1024
/// buckets per power of two (0.1% resolution) up to 2^40 ns.
class NsHistogram {
public:
  void add(int64_t Ns) {
    ++Counts[index(static_cast<uint64_t>(std::clamp<int64_t>(Ns, 0, MaxNs)))];
    ++Total;
  }

  /// Nearest-rank quantile, in microseconds.
  double quantileUs(double Q) const {
    if (Total == 0)
      return 0;
    uint64_t Rank = std::clamp<uint64_t>(
        static_cast<uint64_t>(std::ceil(Q * Total)), 1, Total);
    uint64_t Seen = 0;
    size_t I = 0;
    while ((Seen += Counts[I]) < Rank)
      ++I;
    return lowerBound(I) / 1e3;
  }

  /// The median, smoothed, in microseconds: the mean of the samples
  /// between the 45th and the 55th percentile. Nanosecond samples of a
  /// steady path repeat exactly, so a bare middle sample would too.
  double smoothedMedianUs() const {
    if (Total == 0)
      return 0;
    uint64_t Lo = Total * 45 / 100, Hi = std::max(Lo + 1, Total * 55 / 100);
    uint64_t Seen = 0;
    double Sum = 0;
    for (size_t I = 0; Seen < Hi; ++I) {
      uint64_t From = std::max(Seen, Lo), To = std::min(Seen + Counts[I], Hi);
      if (To > From)
        Sum += static_cast<double>(To - From) * lowerBound(I);
      Seen += Counts[I];
    }
    return Sum / static_cast<double>(Hi - Lo) / 1e3;
  }

private:
  static constexpr int SubBits = 10;
  static constexpr uint64_t Sub = uint64_t(1) << SubBits;
  static constexpr int64_t MaxNs = (int64_t(1) << 40) - 1;

  static size_t index(uint64_t V) {
    if (V < 2 * Sub)
      return V;
    int Shift = static_cast<int>(std::bit_width(V)) - 1 - SubBits;
    return (Shift + 1) * Sub + ((V >> Shift) - Sub);
  }
  static double lowerBound(size_t I) {
    if (I < 2 * Sub)
      return static_cast<double>(I);
    int Shift = static_cast<int>(I / Sub) - 1;
    return static_cast<double>((Sub + I % Sub) << Shift);
  }

  std::vector<uint32_t> Counts = std::vector<uint32_t>(31 * Sub);
  uint64_t Total = 0;
};

/// Peak resident set of this process in MiB (VmHWM), 0 when unknown.
double peakRssMiB() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

/// Prints one result object as the last line of stdout.
void print(const obs::Json &J) {
  std::printf("%s\n", J.str().c_str());
  std::fflush(stdout);
}

/// `--name value` pairs; any flag outside \p Known is a usage error.
class Args {
public:
  Args(int Argc, char **Argv, std::vector<std::string> Known) {
    for (int I = 2; I < Argc; ++I) {
      std::string K = Argv[I];
      if (K.rfind("--", 0) != 0 || I + 1 >= Argc ||
          std::find(Known.begin(), Known.end(), K.substr(2)) == Known.end()) {
        std::fprintf(stderr, "perfbench: bad argument '%s'\n", Argv[I]);
        std::exit(2);
      }
      Values[K.substr(2)] = Argv[++I];
    }
  }
  long long integer(const std::string &K, long long Default) const {
    auto It = Values.find(K);
    if (It == Values.end())
      return Default;
    char *End = nullptr;
    long long V = std::strtoll(It->second.c_str(), &End, 10);
    if (End == It->second.c_str() || *End) {
      std::fprintf(stderr, "perfbench: --%s needs an integer\n", K.c_str());
      std::exit(2);
    }
    return V;
  }
  std::string text(const std::string &K, const std::string &Default) const {
    auto It = Values.find(K);
    return It == Values.end() ? Default : It->second;
  }
  double real(const std::string &K, double Default) const {
    auto It = Values.find(K);
    if (It == Values.end())
      return Default;
    char *End = nullptr;
    double V = std::strtod(It->second.c_str(), &End);
    if (End == It->second.c_str() || *End) {
      std::fprintf(stderr, "perfbench: --%s needs a number\n", K.c_str());
      std::exit(2);
    }
    return V;
  }

private:
  std::map<std::string, std::string> Values;
};

CompiledProgram compileOrDie(const std::string &Src, bool Erase) {
  LowerOptions LO;
  LO.EraseGhosts = Erase;
  CompileResult C = compileString(Src, LO);
  if (!C.ok()) {
    std::fprintf(stderr, "perfbench: compile error:\n%s",
                 C.Diags.str().c_str());
    std::exit(1);
  }
  return std::move(*C.Program);
}

//===----------------------------------------------------------------------===//
// The pub/sub program of the host workload
//===----------------------------------------------------------------------===//

constexpr int Groups = 4;        ///< Independent Broker groups.
constexpr int SubsPerGroup = 4;  ///< Subscribers per Broker.

/// A Root creating Groups Brokers; each Broker fans every Publish(seq)
/// out to its SubsPerGroup Subscribers, which report delivery through
/// the foreign function Ack(seq) the benchmark registers.
const char *const PubSubSource = R"(
event unit;
event Publish(int);
event Deliver(int);

main machine Root {
  var B1: id;
  var B2: id;
  var B3: id;
  var B4: id;
  state Init {
    entry {
      B1 = new Broker();
      B2 = new Broker();
      B3 = new Broker();
      B4 = new Broker();
    }
  }
}

machine Broker {
  var S1: id;
  var S2: id;
  var S3: id;
  var S4: id;
  state Starting {
    entry {
      S1 = new Subscriber();
      S2 = new Subscriber();
      S3 = new Subscriber();
      S4 = new Subscriber();
      raise(unit);
    }
    on unit goto Serving;
  }
  state Serving {
    entry { }
    on Publish do Fanout;
  }
  action Fanout {
    send(S1, Deliver, arg);
    send(S2, Deliver, arg);
    send(S3, Deliver, arg);
    send(S4, Deliver, arg);
  }
}

machine Subscriber {
  foreign fun Ack(seq: int): void;
  state Listening {
    entry { }
    on Deliver do Consume;
  }
  action Consume { Ack(arg); }
}
)";
const char *const BrokerVars[Groups] = {"B1", "B2", "B3", "B4"};

//===----------------------------------------------------------------------===//
// provenance
//===----------------------------------------------------------------------===//

const char *sanitizerName() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return "address";
#elif __has_feature(thread_sanitizer)
  return "thread";
#elif __has_feature(undefined_behavior_sanitizer)
  return "undefined";
#endif
#endif
  if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize"))
    return "flags";
  return "none";
}

int runProvenance() {
  const std::string BuildType = PERFBENCH_BUILD_TYPE;
  const std::string San = sanitizerName();
  obs::Json Out = obs::Json::object();
  Out.set("build_type", BuildType);
  Out.set("compiler", PERFBENCH_COMPILER);
  Out.set("cxx_flags", PERFBENCH_CXX_FLAGS);
  Out.set("sanitizer", San);
  Out.set("valid", BuildType == "Release" && San == "none");
  print(Out);
  return 0;
}

//===----------------------------------------------------------------------===//
// verdict: one check() of German(2) at d = 4
//===----------------------------------------------------------------------===//

constexpr int GermanClients = 2;
constexpr int GermanDelay = 4;

/// Order-independent digest of the terminal-hash set (the list comes
/// back sorted, so FNV-1a over it is a set digest).
std::string digest(const std::vector<uint64_t> &Hashes) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (uint64_t X : Hashes)
    for (int B = 0; B != 8; ++B) {
      H ^= (X >> (8 * B)) & 0xff;
      H *= 0x100000001b3ull;
    }
  char Buf[20];
  std::snprintf(Buf, sizeof Buf, "%016llx", static_cast<unsigned long long>(H));
  return Buf;
}

int runVerdict(const Args &A) {
  const int Workers = static_cast<int>(A.integer("workers", 1));
  const bool Profile = A.integer("profile", 0) != 0;
  const int Delay = static_cast<int>(A.integer("delay", GermanDelay));
  const CompiledProgram Prog =
      compileOrDie(corpus::german(GermanClients), /*Erase=*/false);
  CheckOptions O;
  O.DelayBound = Delay;
  O.Workers = Workers;
  O.CollectTerminals = true; // one push per distinct terminal
  O.Profile = Profile;
  Clock::time_point T0 = Clock::now();
  CheckResult R = check(Prog, O);
  const double Verdict = secondsSince(T0);

  uint64_t SliceNs = 0;
  for (const obs::MachineProfile &M : R.Profile.Machines)
    SliceNs += M.SliceNs;
  const CheckStats &S = R.Stats;
  obs::Json Out = obs::Json::object();
  Out.set("verdict_s", Verdict);
  Out.set("search_s", S.Seconds);
  Out.set("states", S.DistinctStates);
  Out.set("nodes", S.NodesExplored);
  Out.set("slices", S.Slices);
  Out.set("terminals", S.Terminals);
  Out.set("terminal_digest", digest(R.TerminalHashes));
  Out.set("exhausted", S.Exhausted);
  Out.set("error_found", R.ErrorFound);
  Out.set("error", R.ErrorMessage);
  Out.set("workers_used", S.WorkersUsed);
  Out.set("visited_mb", S.VisitedBytes / (1024.0 * 1024.0));
  Out.set("steals", S.StealCount);
  Out.set("contention_s", S.ContentionNs / 1e9);
  Out.set("profile_slice_s", SliceNs / 1e9);
  Out.set("profiled", R.Profile.Enabled);
  Out.set("peak_rss_mb", peakRssMiB());
  print(Out);
  return 0;
}

//===----------------------------------------------------------------------===//
// micro: outside-in per-call costs of runtime and statehash
//===----------------------------------------------------------------------===//

/// A sampled German configuration and the machine the walk ran next.
struct WalkSample {
  Config Cfg;
  int32_t Id;
};

/// A seeded random walk over German(2) configurations, stepping a random
/// enabled machine per slice and restarting from the root every
/// MaxWalk slices or at quiescence. Every sample is hashed, so its
/// snapshots carry cached fingerprints like the parent of a search node.
std::vector<WalkSample> germanWalk(const Executor &Exec, uint64_t Seed,
                                   size_t N) {
  constexpr int MaxWalk = 256;
  std::mt19937_64 Rng(Seed);
  std::string Scratch;
  const Config Root = Exec.makeInitialConfig();
  Config C = Root;
  hashConfig(C, Scratch);
  int Depth = 0;
  int32_t MustRun = -1;
  std::vector<WalkSample> Out;
  std::vector<int32_t> Enabled;
  while (Out.size() < N) {
    Enabled.clear();
    if (MustRun >= 0)
      Enabled.push_back(MustRun);
    else
      for (int32_t I = 0; I != static_cast<int32_t>(C.Machines.size()); ++I)
        if (Exec.isEnabled(C, I))
          Enabled.push_back(I);
    if (Enabled.empty() || C.hasError() || Depth >= MaxWalk) {
      C = Root;
      Depth = 0;
      MustRun = -1;
      continue;
    }
    int32_t Id = Enabled[Rng() % Enabled.size()];
    Out.push_back({C, Id});
    Config Next = C;
    Executor::StepResult R = Exec.step(Next, Id);
    MustRun = -1;
    if (R.Outcome == Executor::StepOutcome::ChoicePoint) {
      Next.mutableMachine(Id).InjectedChoice = (Rng() & 1) != 0;
      MustRun = Id;
    }
    hashConfig(Next, Scratch);
    C = std::move(Next);
    ++Depth;
  }
  return Out;
}

/// Median over \p Batches runs of \p Body, in nanoseconds per operation.
template <typename Fn>
double perOpNs(int Batches, size_t OpsPerBatch, Fn &&Body) {
  std::vector<double> PerOp;
  for (int B = 0; B != Batches; ++B) {
    int64_t T0 = nowNs();
    Body();
    PerOp.push_back(static_cast<double>(nowNs() - T0) / OpsPerBatch);
  }
  return median(PerOp);
}

/// ⊎ append into a queue already holding \p Depth distinct entries; each
/// op appends one fresh payload and pops it again, so the depth stays.
double enqueueNs(const CompiledProgram &PubSub, int Depth) {
  Executor Exec(PubSub);
  Config C = Exec.makeInitialConfig();
  const int32_t Ev = PubSub.findEvent("Publish");
  for (int K = 0; K != Depth; ++K)
    Exec.enqueueEvent(C, 0, Ev, Value::integer(K));
  constexpr size_t Ops = 20000;
  int64_t Next = int64_t(1) << 40;
  double Ns = perOpNs(15, Ops, [&] {
    for (size_t J = 0; J != Ops; ++J) {
      Exec.enqueueEvent(C, 0, Ev, Value::integer(Next++));
      C.mutableMachine(0).Queue.pop_back();
    }
  });
  if (C.hasError() || C.machine(0).Queue.size() != static_cast<size_t>(Depth)) {
    std::fprintf(stderr, "perfbench: enqueue probe left a bad queue\n");
    std::exit(1);
  }
  return Ns;
}

int runMicro(const Args &A) {
  const uint64_t Seed = static_cast<uint64_t>(A.integer("seed", 1));
  constexpr size_t N = 8192;
  constexpr int Batches = 15;

  const CompiledProgram German =
      compileOrDie(corpus::german(GermanClients), false);
  Executor::Options EO;
  EO.UseModelBodies = true;
  const Executor Exec(German, EO);
  const std::vector<WalkSample> Samples = germanWalk(Exec, Seed, N);

  // A search node's successor: copy the parent (then drop the copy).
  double CopyNs = perOpNs(Batches, N, [&] {
    for (const WalkSample &S : Samples) {
      Config Copy(S.Cfg);
      Sink = Sink + Copy.Machines.size();
    }
  });

  // Executor::step on a fresh copy (includes the copy-on-write clone of
  // the stepped machine), then hashConfig of the stepped copy: every
  // machine the slice did not touch keeps its cached fingerprint.
  std::vector<double> Step, Incr;
  std::string Scratch;
  for (int B = 0; B != Batches; ++B) {
    std::vector<Config> Work;
    Work.reserve(N);
    for (const WalkSample &S : Samples)
      Work.push_back(S.Cfg);
    int64_t T0 = nowNs();
    for (size_t I = 0; I != N; ++I)
      Sink = Sink + static_cast<uint64_t>(
                        Exec.step(Work[I], Samples[I].Id).Outcome);
    int64_t T1 = nowNs();
    for (size_t I = 0; I != N; ++I)
      Sink = Sink + hashConfig(Work[I], Scratch);
    int64_t T2 = nowNs();
    Step.push_back(static_cast<double>(T1 - T0) / N);
    Incr.push_back(static_cast<double>(T2 - T1) / N);
  }

  double FreshNs = perOpNs(Batches, N, [&] {
    for (const WalkSample &S : Samples)
      Sink = Sink + hashConfigFresh(S.Cfg, Scratch);
  });
  std::string Bytes;
  double SerializeNs = perOpNs(Batches, N, [&] {
    for (const WalkSample &S : Samples) {
      Bytes.clear();
      serializeConfig(S.Cfg, Bytes);
      Sink = Sink + Bytes.size();
    }
  });

  const CompiledProgram PubSub = compileOrDie(PubSubSource, true);
  obs::Json Out = obs::Json::object();
  Out.set("step_ns", median(Step));
  Out.set("config_copy_ns", CopyNs);
  Out.set("incremental_ns", median(Incr));
  Out.set("fresh_ns", FreshNs);
  Out.set("serialize_ns", SerializeNs);
  Out.set("enqueue_ns_d1", enqueueNs(PubSub, 1));
  Out.set("enqueue_ns_d256", enqueueNs(PubSub, 256));
  Out.set("samples", N);
  print(Out);
  return 0;
}

//===----------------------------------------------------------------------===//
// pubsub: open-loop host load
//===----------------------------------------------------------------------===//

constexpr double Nominal = 200000;      ///< Publishes/s, well below the knee.
constexpr double LatencyLimitUs = 1000; ///< p99 limit of a sustained rate.
/// A rate step whose generator ran late by more than this (p99, against
/// its own schedule) measured the generator, not the host.
constexpr double MaxGeneratorLateUs = 0.1 * LatencyLimitUs;
/// The ladder stops here even if every step passed.
constexpr double MaxLadderRate = 2e7;

/// Delivery records of the publishes of one rate step still in flight,
/// written by the Ack foreign function from inside the serial pump. A
/// publish is retired (checked and dropped) Ring sends after its own, so
/// the benchmark's memory stays the same however long a step runs, and
/// the process's peak resident set is the host's plus a fixed amount.
struct AckLog {
  static constexpr size_t Ring = 8192;
  struct Slot {
    int64_t Due = 0, First = 0, Last = 0; ///< ns timestamps.
    uint8_t Count = 0;
    bool Rejected = false; ///< addEvent refused it or set a host error.
  };

  int64_t Base = 0;   ///< Payload of publish 0 of the current rate step.
  size_t Sent = 0;    ///< Publishes handed to the host so far.
  size_t Retired = 0; ///< Publishes retired so far.
  bool Trace = false;
  uint64_t Stray = 0; ///< Acks for payloads never sent or already retired.
  std::vector<Slot> Slots = std::vector<Slot>(Ring);

  void reset(int64_t NewBase, bool WithTrace) {
    Base = NewBase;
    Sent = Retired = 0;
    Trace = WithTrace;
  }
  Slot &slot(size_t I) { return Slots[I % Ring]; }
  /// Opens publish \p I's slot, just before it is handed to the host.
  void open(size_t I, int64_t Due) {
    slot(I) = Slot{Due, 0, 0, 0, false};
    Sent = I + 1;
  }
  void ack(int64_t Payload) {
    int64_t I = Payload - Base;
    if (I < static_cast<int64_t>(Retired) || I >= static_cast<int64_t>(Sent)) {
      ++Stray;
      return;
    }
    Slot &S = slot(static_cast<size_t>(I));
    uint8_t C = ++S.Count;
    if (C == 1 && Trace)
      S.First = nowNs();
    if (C == SubsPerGroup)
      S.Last = nowNs();
  }
};

/// A host with the pub/sub program running and its Broker ids resolved.
struct PubSubHost {
  std::unique_ptr<CompiledProgram> Prog;
  std::unique_ptr<Host> H;
  int32_t Brokers[Groups] = {};
};

PubSubHost makePubSubHost(AckLog &Log, double &CompileS) {
  Clock::time_point T0 = Clock::now();
  PubSubHost P;
  P.Prog = std::make_unique<CompiledProgram>(
      compileOrDie(PubSubSource, /*Erase=*/true));
  CompileS = secondsSince(T0);
  P.H = std::make_unique<Host>(*P.Prog);
  P.H->registerForeign("Subscriber", "Ack",
                       [&Log](Config &, int32_t,
                              const std::vector<Value> &Args) {
                         Log.ack(Args.empty() ? -1 : Args[0].asInt());
                         return Value::null();
                       });
  int32_t Root = P.H->createMachine("Root");
  if (Root < 0 || !P.H->runToCompletion()) {
    std::fprintf(stderr, "perfbench: pub/sub set-up failed\n");
    std::exit(1);
  }
  for (int G = 0; G != Groups; ++G) {
    Value B = P.H->readVar(Root, BrokerVars[G]);
    if (!B.isMachine()) {
      std::fprintf(stderr, "perfbench: Root has no Broker %d\n", G + 1);
      std::exit(1);
    }
    P.Brokers[G] = B.asMachine();
  }
  return P;
}

struct StepResult {
  double Delivered = 0; ///< Completed publishes / time to the last Ack.
  uint64_t Events = 0;
  uint64_t Failed = 0; ///< Rejected, missing an Ack, or over-acked.
  double P50Us = 0, P99Us = 0;  ///< Due time -> last Ack.
  double LateP99Us = 0;         ///< Generator lateness vs its schedule.
  double AddP50Us = 0, AddP99Us = 0, FanoutP50Us = 0; ///< Traced only.
  bool Valid = true;            ///< Generator kept its schedule.
  bool Pass = false;            ///< Sustained within the latency limit.
};

/// Publishes Rate*Seconds events on an open-loop schedule: independent
/// callers, i.e. exponential gaps between due times, each publish to a
/// uniformly random Broker group. The seed fixes gaps and groups. One
/// caller thread (this one) sends; a publish due while the previous
/// addEvent is still running waits, and that wait counts as latency.
/// Gaps and groups are drawn as the step runs and samples go into
/// fixed-size histograms, so memory does not grow with the step.
StepResult runRate(PubSubHost &P, AckLog &Log, double Rate, double Seconds,
                   uint64_t Seed, bool Trace, int64_t &NextPayload) {
  const size_t N = std::max<size_t>(1, static_cast<size_t>(Rate * Seconds));
  std::mt19937_64 Rng(Seed);
  const int64_t Base = NextPayload;
  NextPayload += static_cast<int64_t>(N);
  Log.reset(Base, Trace);
  NsHistogram Lat, Late, Add, Fan;
  StepResult R;
  R.Events = N;
  Host &H = *P.H;
  const int64_t T0 = nowNs() + 1000000;
  int64_t LastAck = T0;
  auto Retire = [&](size_t I) {
    const AckLog::Slot &S = Log.slot(I);
    Log.Retired = I + 1;
    if (S.Rejected || S.Count != SubsPerGroup) {
      ++R.Failed;
      return;
    }
    Lat.add(S.Last - S.Due);
    LastAck = std::max(LastAck, S.Last);
    if (Trace)
      Fan.add(S.Last - S.First);
  };

  double Offset = 0; // due time after T0, ns
  int64_t Free = T0; // when the caller could send again
  for (size_t I = 0; I != N; ++I) {
    const int Group = static_cast<int>(Rng() % Groups);
    const int64_t Due = T0 + static_cast<int64_t>(Offset);
    double U = static_cast<double>(Rng() >> 11) * 0x1.0p-53; // [0, 1)
    Offset += -std::log1p(-U) * 1e9 / Rate;
    if (I >= AckLog::Ring)
      Retire(I - AckLog::Ring);
    Log.open(I, Due);
    int64_t Sent = nowNs();
    while (Sent < Due) {
      PERFBENCH_PAUSE();
      Sent = nowNs();
    }
    // Only the generator's own delay: a send the host held up is
    // charged to the host's latency, not to the generator.
    Late.add(Sent - std::max(Due, Free));
    bool Ok = H.addEvent(P.Brokers[Group], "Publish",
                         Value::integer(Base + static_cast<int64_t>(I)));
    if (!Ok || H.lastHostError() != HostError::None)
      Log.slot(I).Rejected = true;
    Free = nowNs();
    if (Trace)
      Add.add(Free - Sent);
  }
  for (size_t I = N > AckLog::Ring ? N - AckLog::Ring : 0; I != N; ++I)
    Retire(I);

  R.P50Us = Lat.smoothedMedianUs();
  R.P99Us = Lat.quantileUs(0.99);
  R.LateP99Us = Late.quantileUs(0.99);
  R.AddP50Us = Add.quantileUs(0.5);
  R.AddP99Us = Add.quantileUs(0.99);
  R.FanoutP50Us = Fan.quantileUs(0.5);
  const double Span = (LastAck - T0) / 1e9;
  R.Delivered = Span > 0 ? (N - R.Failed) / Span : 0;
  R.Valid = R.LateP99Us <= MaxGeneratorLateUs;
  R.Pass = R.Valid && R.Failed == 0 && R.P99Us <= LatencyLimitUs &&
           R.Delivered >= 0.98 * Rate;
  std::fprintf(stderr,
               "  rate %9.0f/s: delivered %9.0f/s p50 %8.3fus p99 %9.3fus "
               "late_p99 %6.3fus failed %llu%s%s\n",
               Rate, R.Delivered, R.P50Us, R.P99Us, R.LateP99Us,
               static_cast<unsigned long long>(R.Failed),
               R.Valid ? "" : " INVALID", R.Pass ? " pass" : "");
  return R;
}

/// One part of the host workload per process; run.py starts the parts
/// in turn, with set-up measurements between them:
///   ladder   one rate ladder, reporting the highest sustained rate;
///   nominal  the nominal rate, reporting the latency a caller sees;
///   traced   the nominal rate without and then with per-call timing.
/// Step lengths are shares of --seconds, the length of the whole run.
int runPubSub(const Args &A) {
  const uint64_t Seed = static_cast<uint64_t>(A.integer("seed", 1));
  const double Seconds = A.real("seconds", 10);
  const std::string Part = A.text("part", "nominal");
  if (Part != "ladder" && Part != "nominal" && Part != "traced") {
    std::fprintf(stderr,
                 "perfbench: --part must be ladder, nominal or traced\n");
    return 2;
  }

  AckLog Log;
  double CompileS = 0;
  PubSubHost P = makePubSubHost(Log, CompileS);

  std::mt19937_64 SeedRng(Seed);
  int64_t Payload = 0;
  uint64_t Attempted = 0, Failed = 0;
  obs::Json Out = obs::Json::object();

  // A rate step whose generator fell behind is repeated, a few times at
  // most, rather than reported.
  auto Measure = [&](double Rate, double StepSeconds, bool WithTrace) {
    StepResult R;
    for (int Try = 0; Try != 3; ++Try) {
      R = runRate(P, Log, Rate, StepSeconds, SeedRng(), WithTrace, Payload);
      Attempted += R.Events;
      Failed += R.Failed;
      if (R.Valid)
        break;
    }
    return R;
  };
  // A ladder step that kept up with its rate but missed the p99 limit
  // met a stall, not saturation: it gets two more tries.
  auto Climb = [&](double Rate, double StepSeconds) {
    StepResult R = Measure(Rate, StepSeconds, false);
    for (int Retry = 0; Retry != 2 && !R.Pass && R.Delivered >= 0.95 * Rate;
         ++Retry)
      R = Measure(Rate, StepSeconds, false);
    return R;
  };

  if (Part == "ladder") {
    // ×1.25 steps from the nominal rate until two in a row fail, then
    // seven geometric bisections between the highest pass and the
    // highest failure (0.35% resolution). Reports the delivered rate of
    // the highest passing step.
    const double StepSeconds = 0.0075 * Seconds;
    double MaxRate = 0, Lo = 0, Hi = 0;
    int FailsInRow = 0;
    for (double Rate = Nominal; Rate < MaxLadderRate && FailsInRow < 2;
         Rate *= 1.25) {
      StepResult R = Climb(Rate, StepSeconds);
      if (R.Pass) {
        MaxRate = std::max(MaxRate, R.Delivered);
        Lo = Rate;
        FailsInRow = 0;
      } else {
        Hi = Rate;
        ++FailsInRow;
      }
    }
    if (Lo > 0 && Hi > Lo)
      for (int I = 0; I != 7; ++I) {
        double Mid = std::sqrt(Lo * Hi);
        StepResult R = Climb(Mid, StepSeconds);
        if (R.Pass)
          MaxRate = std::max(MaxRate, R.Delivered);
        (R.Pass ? Lo : Hi) = Mid;
      }
    Out.set("max_rate_eps", MaxRate);
  } else if (Part == "nominal") {
    // The nominal rate, well below the knee: the latency a caller sees.
    StepResult Nom = Measure(Nominal, 0.4 * Seconds, false);
    Out.set("p50_us", Nom.P50Us);
    Out.set("p99_us", Nom.P99Us);
    Out.set("lateness_us", Nom.LateP99Us);
    Out.set("nominal_valid", Nom.Valid);
  } else {
    // The same nominal load without and with per-call timing.
    StepResult Plain = Measure(Nominal, 0.4 * Seconds, false);
    StepResult Traced = Measure(Nominal, 0.4 * Seconds, true);
    Out.set("p50_us", Plain.P50Us);
    Out.set("p99_us", Plain.P99Us);
    Out.set("lateness_us", Traced.LateP99Us);
    Out.set("nominal_valid", Plain.Valid && Traced.Valid);
    Out.set("add_event_p50_us", Traced.AddP50Us);
    Out.set("add_event_p99_us", Traced.AddP99Us);
    Out.set("fanout_us", Traced.FanoutP50Us);
    Out.set("trace_overhead",
            Plain.P50Us > 0 ? Traced.P50Us / Plain.P50Us - 1 : 0.0);
  }
  const HostStats &S = P.H->stats();
  Out.set("attempted", Attempted);
  Out.set("failed", Failed + Log.Stray);
  Out.set("host_error", P.H->hasError());
  Out.set("slices_per_event",
          S.EventsDelivered ? double(S.SlicesRun) / S.EventsDelivered : 0.0);
  Out.set("queue_highwater", S.QueueDepthHighWater);
  Out.set("mailbox_spills", S.MailboxSpills);
  Out.set("peak_rss_mb", peakRssMiB());
  print(Out);
  return 0;
}

//===----------------------------------------------------------------------===//
// setup: what a user pays before the first verdict or event
//===----------------------------------------------------------------------===//

/// Set-ups per process; the median is reported, so a cold first one (page
/// faults, cold caches) does not decide it.
constexpr int SetupReps = 21;

int runSetup(const Args &A) {
  const std::string Program = A.text("program", "german");
  if (Program != "german" && Program != "pubsub") {
    std::fprintf(stderr, "perfbench: --program must be german or pubsub\n");
    return 2;
  }
  std::vector<double> Setup, Compile;
  AckLog Log;
  for (int R = 0; R != SetupReps; ++R) {
    // Timed up to the first usable state; tearing it down is not set-up.
    Clock::time_point T0 = Clock::now();
    double CompileS = 0;
    if (Program == "german") {
      // Compile, then build the root configuration a search starts from.
      CompiledProgram P = compileOrDie(corpus::german(GermanClients), false);
      CompileS = secondsSince(T0);
      Executor::Options EO;
      EO.UseModelBodies = true;
      Config Root = Executor(P, EO).makeInitialConfig();
      Setup.push_back(secondsSince(T0));
      Sink = Sink + Root.Machines.size();
    } else {
      // Compile, then create every host machine.
      PubSubHost P = makePubSubHost(Log, CompileS);
      Setup.push_back(secondsSince(T0));
      Sink = Sink + P.H->config().Machines.size();
    }
    Compile.push_back(CompileS);
  }
  obs::Json Out = obs::Json::object();
  Out.set("setup_s", median(Setup));
  Out.set("compile_s", median(Compile));
  print(Out);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  const std::string Mode = Argc > 1 ? Argv[1] : "";
  if (Mode == "provenance")
    return runProvenance();
  if (Mode == "setup")
    return runSetup(Args(Argc, Argv, {"program"}));
  if (Mode == "verdict")
    return runVerdict(Args(Argc, Argv, {"workers", "profile", "delay"}));
  if (Mode == "micro")
    return runMicro(Args(Argc, Argv, {"seed"}));
  if (Mode == "pubsub")
    return runPubSub(Args(Argc, Argv, {"seed", "seconds", "part"}));
  std::fprintf(stderr,
               "usage: perfbench provenance | setup [--program german|pubsub] "
               "| verdict [--workers N] "
               "[--profile 0|1] [--delay D] | micro [--seed S] | "
               "pubsub [--seed S] [--seconds T] "
               "[--part ladder|nominal|traced]\n");
  return 2;
}
