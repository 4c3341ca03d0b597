//===- tests/tool_test.cpp - The shared tool front end ----------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The one flag table behind every bench and example (tool/Tool.h): each
// value kind parses strictly, bad input exits 2 with the reason, --help
// prints the usage generated from the table and exits 0; and the
// Session derives one checkpoint file per run and turns the observers on
// for a report.
//
//===----------------------------------------------------------------------===//

#include "tool/Tool.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

using namespace p;

namespace {

/// Parses \p Args (argv[0] prepended) with \p Cmd.
void parseArgs(tool::CommandLine &Cmd, std::vector<std::string> Args) {
  Args.insert(Args.begin(), "tool_test");
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Cmd.parse(static_cast<int>(Argv.size()), Argv.data());
}

struct Dests {
  bool Quick = false;
  int Workers = 1;
  int Producers = 4;
  int64_t Expect = -1;
  uint64_t Cap = 0;
  double Seconds = 30;
  std::string Report;
  VisitedMode Visited = VisitedMode::Fingerprint;
  Reduction Reduce = Reduction::Off;

  tool::CommandLine table() {
    return {"tool_test",
            "[flags]",
            {{"--quick", "", &Quick, "small run"},
             {"--workers", "N", &Workers, "workers"},
             {"--producers", "N", &Producers, "producers", 1},
             {"--expect", "S", &Expect, "expected states"},
             {"--cap", "BYTES", &Cap, "a byte count"},
             {"--seconds", "T", &Seconds, "a duration"},
             {"--report", "BASE", &Report, "report base"},
             {"--visited-mode", "M", &Visited, "visited set"},
             {"--reduction", ReductionChoices, &Reduce, "reduction"}}};
  }
};

TEST(ToolFlags, ParsesEveryKind) {
  Dests D;
  tool::CommandLine Cmd = D.table();
  parseArgs(Cmd, {"--quick", "--workers", "-3", "--producers", "2",
                  "--expect", "1322104", "--cap", "67108864", "--seconds",
                  "1.5", "--report", "-", "--visited-mode", "compact",
                  "--reduction", "symmetry"});
  EXPECT_TRUE(D.Quick);
  EXPECT_EQ(D.Workers, -3);
  EXPECT_EQ(D.Producers, 2);
  EXPECT_EQ(D.Expect, 1322104);
  EXPECT_EQ(D.Cap, 67108864u);
  EXPECT_EQ(D.Seconds, 1.5);
  EXPECT_EQ(D.Report, "-");
  EXPECT_EQ(D.Visited, VisitedMode::Compact);
  EXPECT_EQ(D.Reduce, Reduction::Symmetry);
  EXPECT_TRUE(Cmd.given("--cap"));
  EXPECT_FALSE(Cmd.given("--help"));
}

TEST(ToolFlags, UsageIsGeneratedFromTheTable) {
  Dests D;
  tool::CommandLine Cmd = D.table();
  const std::string Usage = Cmd.usage();
  EXPECT_EQ(Usage.rfind("usage: tool_test [flags]\n", 0), 0u) << Usage;
  for (const tool::Flag &F : Cmd.Flags) {
    EXPECT_NE(Usage.find(F.Name), std::string::npos) << F.Name;
    EXPECT_NE(Usage.find(F.Help), std::string::npos) << F.Help;
  }
  EXPECT_NE(Usage.find("--reduction off|symmetry  reduction"),
            std::string::npos);
  EXPECT_NE(Usage.find("--help"), std::string::npos);
  EXPECT_EXIT(parseArgs(Cmd, {"--workers", "2", "--help"}),
              ::testing::ExitedWithCode(0), "");
}

TEST(ToolFlags, BadInputExitsTwoWithTheReason) {
  const std::vector<std::pair<std::vector<std::string>, std::string>> Cases =
      {{{"--bogus"}, "unknown flag '--bogus'"},
       {{"--workers"}, "--workers needs a value"},
       {{"--workers", "x"}, "--workers wants an integer, got 'x'"},
       {{"--workers", "3x"}, "wants an integer"},
       {{"--workers", "4294967296"}, "wants an integer"},
       {{"--producers", "0"}, "--producers wants an integer >= 1"},
       {{"--expect", ""}, "--expect wants an integer"},
       {{"--cap", "64M"}, "--cap wants a non-negative decimal integer"},
       {{"--cap", "-1"}, "wants a non-negative decimal integer"},
       {{"--cap", "99999999999999999999"}, "non-negative decimal integer"},
       {{"--seconds", "-1"}, "--seconds wants a non-negative number"},
       {{"--seconds", "nan"}, "wants a non-negative number"},
       {{"--visited-mode", "hashed"}, "wants exact|fingerprint|compact"},
       {{"--reduction", "sleep"}, "--reduction wants off|symmetry"},
       {{"positional"}, "unknown flag 'positional'"}};
  for (const auto &[Args, Why] : Cases) {
    Dests D;
    tool::CommandLine Cmd = D.table();
    EXPECT_EXIT(parseArgs(Cmd, Args), ::testing::ExitedWithCode(2), Why)
        << Args.front();
  }
}

TEST(ToolFlags, PositionalsAndPassThrough) {
  Dests D;
  std::vector<std::string> Positional;
  std::vector<char *> Passed;
  tool::CommandLine Cmd = D.table();
  Cmd.Positional = &Positional;
  Cmd.PassPrefix = "--benchmark_";
  Cmd.Passed = &Passed;
  // Passed points into argv, which must outlive it.
  char Arg0[] = "tool_test", Check[] = "check", Workers[] = "--workers",
       Two[] = "2", File[] = "file.p", Filter[] = "--benchmark_filter=BM_X";
  char *Argv[] = {Arg0, Check, Workers, Two, File, Filter};
  Cmd.parse(6, Argv);
  EXPECT_EQ(Positional, (std::vector<std::string>{"check", "file.p"}));
  EXPECT_EQ(Passed, (std::vector<char *>{Arg0, Filter}));
  EXPECT_EQ(D.Workers, 2);
}

TEST(ToolSession, OptionsNameOneCheckpointPerRun) {
  tool::Session S("tool_test");
  tool::CommandLine Cmd{"tool_test", "[flags]",
                        S.flags({"--workers", "--report", "--checkpoint",
                                 "--resume"})};
  const std::string Base = ::testing::TempDir() + "p_tool_test";
  parseArgs(Cmd, {"--workers", "4", "--report", "-", "--checkpoint", Base,
                  "--resume"});
  EXPECT_EQ(S.human(), stderr);

  CheckOptions Opts = S.options("german-d3");
  EXPECT_EQ(Opts.Workers, 4);
  EXPECT_TRUE(Opts.TrackCoverage);
  EXPECT_TRUE(Opts.Profile);
  EXPECT_NE(Opts.InterruptFlag, nullptr);
  EXPECT_EQ(Opts.CheckpointPath, Base + ".german-d3.ckpt");
  EXPECT_EQ(Opts.CheckpointIntervalSeconds, 30);
  EXPECT_FALSE(Opts.Resume) << "no file yet: the run starts fresh";

  std::FILE *F = std::fopen(Opts.CheckpointPath.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  std::fclose(F);
  EXPECT_TRUE(S.options("german-d3").Resume);
  EXPECT_FALSE(S.options("german-d4").Resume);
  std::remove(Opts.CheckpointPath.c_str());

  obs::Json Config = S.config("german");
  EXPECT_EQ(Config.get("program").asString(), "german");
  EXPECT_EQ(Config.get("workers").asNumber(), 4);
  EXPECT_EQ(Config.get("visited_mode").asString(), "fingerprint");
}

TEST(ToolSession, FailedResumeExitsThree) {
  tool::Session S("tool_test");
  CompiledProgram Prog = tool::compileOrExit(
      "event Go;\nmain machine M {\n  state S {\n    entry { }\n  }\n}\n");
  CheckResult R;
  R.ResumeError = "bad checkpoint";
  EXPECT_EXIT(S.record(Prog, obs::Json::object(), R),
              ::testing::ExitedWithCode(3), "resume failed: bad checkpoint");
}

} // namespace
