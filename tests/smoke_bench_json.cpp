//===- tests/smoke_bench_json.cpp - Run-report schema smoke test ------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Runs a bench binary (wired via $<TARGET_FILE:...> in CMake) with its
// extra arguments plus `--report -` and validates that stdout is a
// schema-valid run report (obs/Report.h) whose records are all of the
// expected kind: `check` (the checker stat keys a perf trajectory
// consumes) or `measure` (free-form stats, plus a host section). The
// schema cannot drift without failing CI.
//
//===----------------------------------------------------------------------===//

#include "obs/Report.h"

#include <cstdio>
#include <string>

int main(int argc, char **argv) {
  if (argc < 3 || (std::string(argv[1]) != "check" &&
                   std::string(argv[1]) != "measure")) {
    std::fprintf(stderr,
                 "usage: %s check|measure <bench-binary> [extra args]\n",
                 argv[0]);
    return 2;
  }
  const std::string Kind = argv[1];
  std::string Cmd = argv[2];
  for (int I = 3; I < argc; ++I)
    Cmd += std::string(" ") + argv[I];
  Cmd += " --report - 2>/dev/null";

  FILE *Pipe = popen(Cmd.c_str(), "r");
  if (!Pipe) {
    std::fprintf(stderr, "FAIL: cannot run: %s\n", Cmd.c_str());
    return 1;
  }
  std::string Output;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), Pipe)) > 0)
    Output.append(Buf, N);
  int Status = pclose(Pipe);
  if (Status != 0) {
    std::fprintf(stderr, "FAIL: bench exited with status %d\n", Status);
    return 1;
  }

  p::obs::Json Report;
  std::string Why;
  if (!p::obs::Json::parse(Output, Report, &Why)) {
    std::fprintf(stderr, "FAIL: stdout is not valid JSON: %s\n",
                 Why.c_str());
    std::fprintf(stderr, "--- first 500 bytes ---\n%.500s\n",
                 Output.c_str());
    return 1;
  }
  if (!p::obs::validateRunReport(Report, Why)) {
    std::fprintf(stderr, "FAIL: schema violation: %s\n", Why.c_str());
    return 1;
  }
  const p::obs::Json &Runs = Report.get("runs");
  if (Runs.size() == 0) {
    std::fprintf(stderr, "FAIL: no run records\n");
    return 1;
  }
  for (size_t I = 0; I != Runs.size(); ++I)
    if (Runs.at(I).get("kind").asString() != Kind) {
      std::fprintf(stderr, "FAIL: run %zu is not a %s record\n", I,
                   Kind.c_str());
      return 1;
    }
  if (Kind == "measure" && !Report.has("host")) {
    std::fprintf(stderr, "FAIL: measure report without a host section\n");
    return 1;
  }

  std::printf("OK: %zu schema-valid %s records from %s\n", Runs.size(),
              Kind.c_str(), argv[2]);
  return 0;
}
