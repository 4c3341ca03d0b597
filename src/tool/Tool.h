//===- tool/Tool.h - The one front end of every bench and example ---------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every bench and example binary shares, stated once:
///
///   * a strict, table-driven flag parser (Flag, CommandLine). Each
///     entry names a flag, its destination — whose type is the value
///     kind — and one line of help; the usage text is generated from
///     the table. `--help` prints it and exits 0. An unknown flag, a
///     missing value, or a malformed or out-of-range value prints the
///     reason and the usage and exits 2.
///   * the check-run helpers (compileOrExit, Session): the options
///     every run starts from, observers for `--report`/`--profile`/
///     `--progress`, one checkpoint file per run, the crash-safety exit
///     codes (3 for a failed resume, 128+signal after an interrupt),
///     and the run report (obs/Report.h) that `--report` writes.
///
//===----------------------------------------------------------------------===//

#ifndef P_TOOL_TOOL_H
#define P_TOOL_TOOL_H

#include "checker/Checker.h"
#include "obs/Report.h"

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace p::tool {

/// Where a flag's value goes. The pointer's type is the value kind:
///   bool *         a switch, no value;
///   int *, int64_t *   a decimal integer, at least Flag::Min;
///   uint64_t *     a non-negative decimal count (bytes, nodes, a seed);
///   double *       a non-negative real (seconds, rates);
///   std::string *  any string;
///   VisitedMode *  exact|fingerprint|compact;
///   Reduction *    off|symmetry.
using FlagDest = std::variant<bool *, int *, int64_t *, uint64_t *, double *,
                              std::string *, VisitedMode *, Reduction *>;

/// One row of a flag table.
struct Flag {
  const char *Name;  ///< As typed: "--workers", "-d".
  const char *Value; ///< The value's placeholder in the usage ("" for
                     ///< a switch).
  FlagDest Dest;
  const char *Help;
  int64_t Min = std::numeric_limits<int64_t>::min(); ///< Integer kinds.
};

/// A binary's command line: its flag table and what else argv may hold.
struct CommandLine {
  const char *Tool;     ///< The name the usage line shows.
  const char *Synopsis; ///< What follows the name, e.g. "[flags]".
  std::vector<Flag> Flags;
  /// When set, arguments that do not start with '-' are collected here
  /// instead of being rejected.
  std::vector<std::string> *Positional = nullptr;
  /// When set, arguments starting with PassPrefix are collected in
  /// *Passed (after argv[0]) for a second parser instead of rejected.
  const char *PassPrefix = nullptr;
  std::vector<char *> *Passed = nullptr;

  /// The flags parse() met, in order.
  std::vector<std::string> Given = {};

  /// Parses argv[1..] into the destinations (see the file comment for
  /// --help and the exit-2 errors).
  void parse(int Argc, char **Argv);

  /// True when \p Name was on the parsed command line.
  bool given(std::string_view Name) const;

  /// The usage text, generated from the table.
  std::string usage() const;

  /// Prints \p Why and the usage to stderr and exits 2: for the checks
  /// a table cannot state (a flag's choices, a positional's count).
  [[noreturn]] void fail(const std::string &Why) const;
};

/// Compiles \p Src (a corpus program) or prints the diagnostics and
/// exits 1.
CompiledProgram compileOrExit(const std::string &Src,
                              bool EraseGhosts = false);

/// The state a tool's runs share: the options every check starts from,
/// the crash-safety flags, and the one run report. The flag table
/// writes into it (see flags()).
class Session {
public:
  explicit Session(std::string Tool);

  /// What every run starts from; --workers, --visited-mode,
  /// --visited-cap, --reduction, --profile and --checkpoint-interval
  /// write here.
  CheckOptions Base;
  std::string ReportPath;     ///< --report BASE|-.
  bool Progress = false;      ///< --progress.
  std::string CheckpointBase; ///< --checkpoint BASE.
  bool Resume = false;        ///< --resume.
  obs::RunReport Report;

  /// The table rows of the shared flags named in \p Names, pointing
  /// into this session.
  std::vector<Flag> flags(std::initializer_list<std::string_view> Names);

  bool reporting() const { return !ReportPath.empty(); }

  /// Where the human tables go: stdout, or stderr when `--report -`
  /// owns stdout.
  std::FILE *human() const { return ReportPath == "-" ? stderr : stdout; }

  /// One run's options: Base, plus coverage and the profiler when
  /// reporting, the heartbeat for --progress, the interrupt flag, and
  /// with --checkpoint the file `<base>.<RunSlug>.ckpt`, resumed when
  /// --resume is set and the file exists.
  CheckOptions options(const std::string &RunSlug) const;

  /// A run's config record: \p Program and Base's workers, visited mode
  /// and reduction.
  obs::Json config(const char *Program) const;

  /// Handles a finished check: a failed resume exits 3 (never a silent
  /// restart); otherwise the run is recorded when reporting, and an
  /// interrupted run writes the partial report, prints its partial
  /// stats and exits 128+signal.
  void record(const CompiledProgram &Prog, obs::Json Config,
              const CheckResult &R);

  /// Writes the report when reporting; one without a host section of
  /// its own gets a live HostLatencyProbe's. Returns the exit status:
  /// 0, or 1 (with the reason on stderr) when it cannot be written.
  int finish();
};

} // namespace p::tool

#endif // P_TOOL_TOOL_H
