//===- examples/pc.cpp - The P compiler driver -------------------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Command-line front door to the whole toolchain:
//
//   pc check   file.p [-d N] [--depth N] [--max-nodes N]   verify (Section 5)
//   pc live    file.p [-d N]                               liveness (Section 3.2)
//   pc emit-c  file.p [-o dir] [--name base]               generate C (Section 4)
//   pc dump    file.p                                      tables + bytecode
//   pc dot     file.p [--machine NAME]                     Graphviz diagram
//
// Example:
//   ./build/examples/example_pc check my_driver.p -d 2
//
// --help lists the flags. An unknown flag, a missing value or a
// malformed number prints the reason and the usage and exits 2.
//
//===----------------------------------------------------------------------===//

#include "checker/Checker.h"
#include "checker/Liveness.h"
#include "codegen/CCodeGen.h"
#include "frontend/Frontend.h"
#include "pir/Dot.h"
#include "tool/Tool.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

using namespace p;

namespace {

std::string readFile(const std::string &Path, bool &Ok) {
  std::ifstream In(Path);
  if (!In.good()) {
    Ok = false;
    return "";
  }
  std::ostringstream Out;
  Out << In.rdbuf();
  Ok = true;
  return Out.str();
}

int cmdCheck(const CompiledProgram &Prog, int Delay, int Depth,
             uint64_t MaxNodes, bool Coverage) {
  CheckOptions Opts;
  Opts.DelayBound = Delay;
  if (Depth > 0)
    Opts.DepthBound = Depth;
  Opts.MaxNodes = MaxNodes;
  Opts.TrackCoverage = Coverage;
  CheckResult R = check(Prog, Opts);
  if (Coverage)
    std::printf("coverage:\n%s", R.Coverage.str(Prog).c_str());
  std::printf("states=%llu nodes=%llu slices=%llu depth=%d time=%.3fs%s\n",
              static_cast<unsigned long long>(R.Stats.DistinctStates),
              static_cast<unsigned long long>(R.Stats.NodesExplored),
              static_cast<unsigned long long>(R.Stats.Slices),
              R.Stats.MaxDepth, R.Stats.Seconds,
              R.Stats.Exhausted ? "" : " (search capped)");
  if (!R.ErrorFound) {
    std::printf("no errors found at delay bound %d\n", Delay);
    return 0;
  }
  std::printf("error: %s: %s\n", errorKindName(R.Error),
              R.ErrorMessage.c_str());
  std::printf("counterexample (%zu steps):\n", R.Trace.size());
  for (const std::string &Line : R.Trace)
    std::printf("  %s\n", Line.c_str());
  return 1;
}

int cmdLive(const CompiledProgram &Prog, int Delay) {
  LivenessOptions Opts;
  Opts.DelayBound = Delay;
  LivenessResult R = checkLiveness(Prog, Opts);
  std::printf("nodes=%llu cycles=%llu%s\n",
              static_cast<unsigned long long>(R.NodesExplored),
              static_cast<unsigned long long>(R.CyclesChecked),
              R.Exhausted ? "" : " (search capped)");
  if (!R.ViolationFound) {
    std::printf("no liveness violations found at delay bound %d\n", Delay);
    return 0;
  }
  std::printf("liveness violation: %s\nlasso loop:\n", R.Message.c_str());
  for (const std::string &Line : R.CycleTrace)
    std::printf("  %s\n", Line.c_str());
  return 1;
}

int cmdEmitC(const Program &Ast, const std::string &OutDir,
             const std::string &Base) {
  CodegenOptions Opts;
  Opts.BaseName = Base;
  CodegenResult R = generateC(Ast, Opts);
  if (!R.ok()) {
    for (const std::string &E : R.Errors)
      std::fprintf(stderr, "codegen error: %s\n", E.c_str());
    return 1;
  }
  std::ofstream H(OutDir + "/" + Base + ".h");
  H << R.Header;
  std::ofstream C(OutDir + "/" + Base + ".c");
  C << R.Source;
  std::printf("wrote %s/%s.h and %s/%s.c (C runtime: %s)\n", OutDir.c_str(),
              Base.c_str(), OutDir.c_str(), Base.c_str(),
              cRuntimeDir().c_str());
  return 0;
}

int cmdDump(const CompiledProgram &Prog) {
  std::printf("%s", Prog.summary().c_str());
  for (const MachineInfo &M : Prog.Machines) {
    for (const Body &B : M.Bodies)
      std::printf("\n%s", disassemble(B).c_str());
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  int Delay = 2;
  int Depth = 0;
  uint64_t MaxNodes = 0;
  std::string OutDir = ".";
  std::string Base = "pgen";
  std::string MachineName;
  bool Coverage = false;
  std::vector<std::string> Args; // <command> file.p
  tool::CommandLine Cmd{
      "pc",
      "<check|live|emit-c|dump|dot> file.p [flags]",
      {{"-d", "N", &Delay, "check, live: delay bound (default 2)", 0},
       {"--depth", "N", &Depth, "check: depth bound (0 = none)", 0},
       {"--max-nodes", "N", &MaxNodes, "check: node cap (0 = none)"},
       {"--coverage", "", &Coverage, "check: structural coverage report"},
       {"-o", "DIR", &OutDir, "emit-c: output directory"},
       {"--name", "BASE", &Base, "emit-c: output file base name"},
       {"--machine", "NAME", &MachineName, "dot: one machine (default all)"}},
      &Args};
  Cmd.parse(argc, argv);
  if (Args.size() != 2)
    Cmd.fail("want a command and a file, got " +
             std::to_string(Args.size()) + " arguments");
  const std::string &Command = Args[0], &Path = Args[1];
  if (Command != "check" && Command != "live" && Command != "emit-c" &&
      Command != "dump" && Command != "dot")
    Cmd.fail("unknown command '" + Command + "'");

  bool Ok = false;
  std::string Source = readFile(Path, Ok);
  if (!Ok) {
    std::fprintf(stderr, "cannot read '%s'\n", Path.c_str());
    return 2;
  }

  DiagnosticEngine Diags;
  Program Ast = parseAndAnalyze(Source, Diags);
  for (const Diagnostic &D : Diags.diagnostics())
    std::fprintf(stderr, "%s: %s\n", Path.c_str(), D.str().c_str());
  if (Diags.hasErrors())
    return 1;

  if (Command == "emit-c")
    return cmdEmitC(Ast, OutDir, Base);

  CompiledProgram Prog = lower(Ast);
  if (Command == "check")
    return cmdCheck(Prog, Delay, Depth, MaxNodes, Coverage);
  if (Command == "live")
    return cmdLive(Prog, Delay);
  if (Command == "dump")
    return cmdDump(Prog);
  if (MachineName.empty()) {
    std::printf("%s", toDot(Prog).c_str());
    return 0;
  }
  int Index = Prog.findMachine(MachineName);
  if (Index < 0) {
    std::fprintf(stderr, "unknown machine '%s'\n", MachineName.c_str());
    return 1;
  }
  std::printf("%s", toDot(Prog, Index).c_str());
  return 0;
}
