//===- tool/Tool.cpp ------------------------------------------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "tool/Tool.h"

#include "frontend/Frontend.h"
#include "host/LatencyProbe.h"
#include "obs/Metrics.h"
#include "support/Interrupt.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

using namespace p;
using namespace p::tool;

//===----------------------------------------------------------------------===//
// Flag table
//===----------------------------------------------------------------------===//

namespace {

template <class... Fs> struct Overload : Fs... {
  using Fs::operator()...;
};
template <class... Fs> Overload(Fs...) -> Overload<Fs...>;

/// A decimal integer in [Min, Max], the whole of \p V.
bool parseInt(const char *V, int64_t Min, int64_t Max, int64_t &Out) {
  char *End = nullptr;
  errno = 0;
  const long long N = std::strtoll(V, &End, 10);
  if (End == V || *End != '\0' || errno == ERANGE || N < Min || N > Max)
    return false;
  Out = N;
  return true;
}

std::string intWant(int64_t Min) {
  return Min == std::numeric_limits<int64_t>::min()
             ? "an integer"
             : "an integer >= " + std::to_string(Min);
}

/// Stores \p V into \p F's destination. Returns what the flag wants when
/// \p V is not one, or "" once stored. Switches never get here.
std::string store(const Flag &F, const char *V) {
  return std::visit(
      Overload{
          [](bool *) { return std::string(); },
          [&](int *D) {
            int64_t N;
            if (!parseInt(V, std::max<int64_t>(F.Min, INT32_MIN), INT32_MAX,
                          N))
              return intWant(F.Min);
            *D = static_cast<int>(N);
            return std::string();
          },
          [&](int64_t *D) {
            return parseInt(V, F.Min, INT64_MAX, *D) ? std::string()
                                                     : intWant(F.Min);
          },
          [&](uint64_t *D) {
            // strtoull alone reads "64M" as 64 and "-1" as 2^64-1.
            char *End = nullptr;
            errno = 0;
            const unsigned long long N = std::strtoull(V, &End, 10);
            if (*V < '0' || *V > '9' || *End != '\0' || errno == ERANGE)
              return std::string("a non-negative decimal integer");
            *D = N;
            return std::string();
          },
          [&](double *D) {
            char *End = nullptr;
            const double X = std::strtod(V, &End);
            if (End == V || *End != '\0' || !(X >= 0) || !std::isfinite(X))
              return std::string("a non-negative number");
            *D = X;
            return std::string();
          },
          [&](std::string *D) {
            *D = V;
            return std::string();
          },
          [&](VisitedMode *D) {
            return parseVisitedMode(V, *D)
                       ? std::string()
                       : std::string("exact|fingerprint|compact");
          },
          [&](Reduction *D) {
            for (Reduction R : {Reduction::Off, Reduction::Symmetry})
              if (V == std::string_view(reductionName(R))) {
                *D = R;
                return std::string();
              }
            return std::string(ReductionChoices);
          },
      },
      F.Dest);
}

} // namespace

void CommandLine::parse(int Argc, char **Argv) {
  if (Passed)
    Passed->push_back(Argv[0]);
  for (int I = 1; I < Argc; ++I) {
    const std::string_view Arg = Argv[I];
    if (Arg == "--help") {
      std::fputs(usage().c_str(), stdout);
      std::exit(0);
    }
    if (PassPrefix && Arg.starts_with(PassPrefix)) {
      Passed->push_back(Argv[I]);
      continue;
    }
    if (Positional && !Arg.starts_with('-')) {
      Positional->emplace_back(Arg);
      continue;
    }
    auto F = std::find_if(Flags.begin(), Flags.end(),
                          [&](const Flag &F) { return Arg == F.Name; });
    if (F == Flags.end())
      fail("unknown flag '" + std::string(Arg) + "'");
    Given.emplace_back(Arg);
    if (bool **B = std::get_if<bool *>(&F->Dest)) {
      **B = true;
      continue;
    }
    if (I + 1 >= Argc)
      fail(std::string(Arg) + " needs a value");
    const char *V = Argv[++I];
    const std::string Want = store(*F, V);
    if (!Want.empty())
      fail(std::string(Arg) + " wants " + Want + ", got '" + V + "'");
  }
}

bool CommandLine::given(std::string_view Name) const {
  return std::find(Given.begin(), Given.end(), Name) != Given.end();
}

std::string CommandLine::usage() const {
  auto Left = [](const Flag &F) {
    return std::string(F.Name) + (*F.Value ? " " : "") + F.Value;
  };
  size_t Width = 6; // "--help"
  for (const Flag &F : Flags)
    Width = std::max(Width, Left(F).size());
  auto Row = [&](const std::string &L, const char *Help) {
    return "  " + L + std::string(Width + 2 - L.size(), ' ') + Help + "\n";
  };
  std::string Out = std::string("usage: ") + Tool + " " + Synopsis + "\n";
  for (const Flag &F : Flags)
    Out += Row(Left(F), F.Help);
  return Out + Row("--help", "print this help and exit");
}

void CommandLine::fail(const std::string &Why) const {
  std::fprintf(stderr, "%s: %s\n%s", Tool, Why.c_str(), usage().c_str());
  std::exit(2);
}

//===----------------------------------------------------------------------===//
// Check-run helpers
//===----------------------------------------------------------------------===//

CompiledProgram p::tool::compileOrExit(const std::string &Src,
                                       bool EraseGhosts) {
  LowerOptions Opts;
  Opts.EraseGhosts = EraseGhosts;
  CompileResult R = compileString(Src, Opts);
  if (!R.ok()) {
    std::fprintf(stderr, "compile error:\n%s", R.Diags.str().c_str());
    std::exit(1);
  }
  return std::move(*R.Program);
}

Session::Session(std::string Tool) : Report(std::move(Tool)) {
  Base.CheckpointIntervalSeconds = 30;
}

std::vector<Flag>
Session::flags(std::initializer_list<std::string_view> Names) {
  const Flag Shared[] = {
      {"--workers", "N", &Base.Workers,
       "exploration workers: 1 = serial, 0 = every core"},
      {"--visited-mode", "M", &Base.Visited,
       "visited set: exact|fingerprint|compact"},
      {"--visited-cap", "BYTES", &Base.VisitedCapBytes,
       "compact mode's table size (0 = 64 MiB)"},
      {"--reduction", "R", &Base.Reduce,
       "search-space reduction: off|symmetry"},
      {"--profile", "", &Base.Profile, "per-machine search profile on stderr"},
      {"--progress", "", &Progress, "heartbeat line on stderr every second"},
      {"--report", "BASE", &ReportPath,
       "run report BASE.json + BASE.html (- = JSON on stdout)"},
      {"--checkpoint", "BASE", &CheckpointBase,
       "checkpoint each run to BASE.<run>.ckpt"},
      {"--checkpoint-interval", "S", &Base.CheckpointIntervalSeconds,
       "seconds between checkpoints (default 30)"},
      {"--resume", "", &Resume,
       "continue each run whose checkpoint file exists"},
  };
  std::vector<Flag> Out;
  for (std::string_view Name : Names) {
    auto F = std::find_if(std::begin(Shared), std::end(Shared),
                          [&](const Flag &F) { return Name == F.Name; });
    if (F == std::end(Shared)) {
      std::fprintf(stderr, "no shared flag %.*s\n",
                   static_cast<int>(Name.size()), Name.data());
      std::abort();
    }
    Out.push_back(*F);
  }
  return Out;
}

static void heartbeat(const CheckStats &S) {
  std::fprintf(stderr,
               "progress: %.1fs states=%llu (%.0f/s) nodes=%llu "
               "frontier=%llu depth=%d visited=%.1fMB\n",
               S.Seconds, static_cast<unsigned long long>(S.DistinctStates),
               S.Seconds > 0 ? static_cast<double>(S.DistinctStates) /
                                   S.Seconds
                             : 0.0,
               static_cast<unsigned long long>(S.NodesExplored),
               static_cast<unsigned long long>(S.FrontierNodes), S.MaxDepth,
               S.VisitedBytes / (1024.0 * 1024.0));
}

CheckOptions Session::options(const std::string &RunSlug) const {
  CheckOptions Opts = Base;
  Opts.TrackCoverage = reporting();
  Opts.Profile = Base.Profile || reporting();
  Opts.InterruptFlag = &interrupt::flag();
  if (Progress) {
    Opts.ProgressIntervalSeconds = 1.0;
    Opts.Progress = heartbeat;
  }
  if (!CheckpointBase.empty()) {
    Opts.CheckpointPath = CheckpointBase + "." + RunSlug + ".ckpt";
    if (std::FILE *F = Resume ? std::fopen(Opts.CheckpointPath.c_str(), "rb")
                              : nullptr) {
      std::fclose(F);
      Opts.Resume = true;
    }
  }
  return Opts;
}

obs::Json Session::config(const char *Program) const {
  obs::Json C = obs::Json::object();
  C.set("program", Program);
  C.set("workers", Base.Workers);
  C.set("visited_mode", visitedModeName(Base.Visited));
  C.set("reduction", reductionName(Base.Reduce));
  return C;
}

void Session::record(const CompiledProgram &Prog, obs::Json Config,
                     const CheckResult &R) {
  if (!R.ResumeError.empty()) {
    std::fprintf(stderr, "resume failed: %s\n", R.ResumeError.c_str());
    std::exit(3);
  }
  if (reporting())
    Report.addCheckRun(Prog, std::move(Config), R);
  if (!R.Stats.Interrupted)
    return;
  // Partial results, not a verdict: flush the rows so far (reports are
  // written atomically), name what was covered, and exit by the shell's
  // death-by-signal convention.
  finish();
  interrupt::printInterruptedStats(R.Stats);
  std::exit(interrupt::exitCode());
}

int Session::finish() {
  if (!reporting())
    return 0;
  if (!Report.hasHost()) {
    HostLatencyProbe Probe;
    Report.setHost(Probe.host());
    obs::MetricsRegistry Registry;
    Probe.host().exportMetrics(Registry);
    Report.setMetrics(Registry);
  }
  std::string Why;
  if (Report.writeTo(ReportPath, &Why))
    return 0;
  std::fprintf(stderr, "cannot write report %s: %s\n", ReportPath.c_str(),
               Why.c_str());
  return 1;
}
