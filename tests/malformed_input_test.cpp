// Malformed-input regression suite: every untrusted surface fed the exact
// inputs that used to (or plausibly could) crash, hang, or OOM the tools —
// strict number parsing, bounded line reading, CSV budgets, DSL limit
// diagnostics (DL005/DL006/DL213), checkpoint corruption, and the CLI's
// argv front-end. Runs in every build; the fuzz/ harnesses are the
// exploration side of the same contract (see DESIGN.md §10).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/parse.h"
#include "domino/config_parser.h"
#include "domino/expr.h"
#include "domino/runtime/checkpoint.h"
#include "domino_main.h"
#include "telemetry/io.h"

namespace domino {
namespace {

using analysis::lint::DiagnosticSink;

bool HasCode(const DiagnosticSink& sink, const std::string& code) {
  for (const auto& d : sink.diagnostics()) {
    if (d.code == code) return true;
  }
  return false;
}

// --- strict number parsing -------------------------------------------------------

TEST(StrictParseTest, Int64RejectsGarbageOverflowAndPartialInput) {
  std::int64_t v = 0;
  EXPECT_TRUE(ParseInt64("-42", v));
  EXPECT_EQ(v, -42);
  EXPECT_TRUE(ParseInt64("9223372036854775807", v));
  EXPECT_EQ(v, std::numeric_limits<std::int64_t>::max());
  for (const char* bad :
       {"", " 1", "1 ", "1x", "x1", "1.5", "0x10", "9223372036854775808",
        "-9223372036854775809", "١٢٣", "+", "-", "--1"}) {
    EXPECT_FALSE(ParseInt64(bad, v)) << "'" << bad << "'";
  }
}

TEST(StrictParseTest, Uint64RejectsSignsAndOverflow) {
  std::uint64_t v = 0;
  EXPECT_TRUE(ParseUint64("18446744073709551615", v));
  EXPECT_EQ(v, std::numeric_limits<std::uint64_t>::max());
  for (const char* bad :
       {"", "-1", "+1", "18446744073709551616", "1e3", "0.0"}) {
    EXPECT_FALSE(ParseUint64(bad, v)) << "'" << bad << "'";
  }
}

TEST(StrictParseTest, FiniteRejectsInfNanOverflowAndGarbage) {
  double v = 0;
  EXPECT_TRUE(ParseFinite("-2.5e3", v));
  EXPECT_EQ(v, -2500.0);
  for (const char* bad : {"", "inf", "-inf", "nan", "NAN(ind)", "1e999",
                          "-1e999", "1.0.0", "1,5", "0x1p4 junk", "1d"}) {
    EXPECT_FALSE(ParseFinite(bad, v)) << "'" << bad << "'";
  }
}

TEST(StrictParseTest, RangeCheckedVariantsEnforceBounds) {
  std::int64_t i = 0;
  EXPECT_TRUE(ParseInt64In("5", 0, 10, i));
  EXPECT_FALSE(ParseInt64In("11", 0, 10, i));
  EXPECT_FALSE(ParseInt64In("-1", 0, 10, i));
  double d = 0;
  EXPECT_TRUE(ParseFiniteIn("0.5", 0.0, 1.0, d));
  EXPECT_FALSE(ParseFiniteIn("1.5", 0.0, 1.0, d));
}

// --- bounded line reading --------------------------------------------------------

TEST(BoundedGetlineTest, TruncatesButAccountsForEveryByte) {
  std::istringstream is("short\n" + std::string(100, 'x') + "\ntail");
  std::string line;
  LineRead lr = BoundedGetline(is, line, 8);
  EXPECT_TRUE(lr.got);
  EXPECT_FALSE(lr.truncated);
  EXPECT_EQ(line, "short");
  EXPECT_EQ(lr.raw_len, 5u);

  lr = BoundedGetline(is, line, 8);
  EXPECT_TRUE(lr.got);
  EXPECT_TRUE(lr.truncated);
  EXPECT_EQ(line.size(), 8u);       // buffered only the cap...
  EXPECT_EQ(lr.raw_len, 100u);      // ...but consumed and counted all 100

  lr = BoundedGetline(is, line, 8);
  EXPECT_TRUE(lr.got);
  EXPECT_TRUE(lr.hit_eof);          // no trailing newline
  EXPECT_EQ(line, "tail");

  lr = BoundedGetline(is, line, 8);
  EXPECT_FALSE(lr.got);
}

// --- CSV budgets -----------------------------------------------------------------

TEST(CsvLimitsTest, OverlongLineIsDroppedAsLimitExceeded) {
  InputLimits lim;
  lim.max_line_bytes = 32;
  std::istringstream is("time_us,rnti,dir,prbs,mcs,tbs_bytes,is_retx,h,a\n" +
                        std::string(1000, '9') + "\n");
  telemetry::ReadStats stats;
  auto rows = telemetry::ReadDciCsv(is, &stats, lim);
  EXPECT_TRUE(rows.empty());
  ASSERT_FALSE(stats.errors.empty());
  EXPECT_EQ(stats.errors[0].kind, telemetry::TelemetryErrorKind::kLimitExceeded);
}

TEST(CsvLimitsTest, RecordBudgetStopsIngestionWithOneDiagnostic) {
  InputLimits lim;
  lim.max_records = 3;
  std::ostringstream data;
  data << "time_us,rnti,dir,prbs,mcs,tbs_bytes,is_retx,h,a\n";
  for (int i = 0; i < 10; ++i) {
    data << i * 1000 << ",17,UL,50,20,1500,0,1,1\n";
  }
  std::istringstream is(data.str());
  telemetry::ReadStats stats;
  auto rows = telemetry::ReadDciCsv(is, &stats, lim);
  EXPECT_EQ(rows.size(), 3u);
  ASSERT_FALSE(stats.errors.empty());
  EXPECT_EQ(stats.errors.back().kind,
            telemetry::TelemetryErrorKind::kLimitExceeded);
}

TEST(CsvLimitsTest, UnterminatedQuoteAndFieldOverflowAreBadRowsNotFatal) {
  InputLimits lim;
  lim.max_fields = 16;
  std::string wide = "1000";
  for (int i = 0; i < 32; ++i) wide += ",1";
  std::istringstream is(
      "time_us,rnti,dir,prbs,mcs,tbs_bytes,is_retx,h,a\n"
      "\"unterminated,17,UL,50,20,1500,0,1,1\n" +
      wide + "\n" +
      "2000,17,UL,50,20,1500,0,1,1\n");
  telemetry::ReadStats stats;
  auto rows = telemetry::ReadDciCsv(is, &stats, lim);
  EXPECT_EQ(rows.size(), 1u);  // only the final well-formed row
  EXPECT_EQ(stats.rows_dropped, 2u);
}

// --- DSL limit diagnostics -------------------------------------------------------

TEST(DslLimitsTest, OutOfRangeNumberLiteralIsDL005) {
  DiagnosticSink sink;
  analysis::ParseExpressionChecked("max(fwd.owd_ms) > 1e99999", sink);
  EXPECT_TRUE(HasCode(sink, "DL005"));
  EXPECT_FALSE(HasCode(sink, "DL002"));  // distinct from malformed literals
}

TEST(DslLimitsTest, DeepNestingIsDL006NotStackOverflow) {
  InputLimits lim;
  lim.max_expr_depth = 16;
  const std::string deep =
      std::string(200, '(') + "1" + std::string(200, ')') + " > 0";
  DiagnosticSink sink;
  auto ce = analysis::ParseExpressionChecked(deep, sink, lim);
  EXPECT_EQ(ce.expr, nullptr);
  EXPECT_TRUE(HasCode(sink, "DL006"));
}

TEST(DslLimitsTest, NodeBudgetIsDL006) {
  InputLimits lim;
  lim.max_expr_nodes = 8;
  std::string wide = "min(fwd.owd_ms)";
  for (int i = 0; i < 32; ++i) wide += " + min(fwd.owd_ms)";
  DiagnosticSink sink;
  auto ce = analysis::ParseExpressionChecked(wide + " > 0", sink, lim);
  EXPECT_EQ(ce.expr, nullptr);
  EXPECT_TRUE(HasCode(sink, "DL006"));
}

TEST(DslLimitsTest, ConfigByteAndDefBudgetsAreDL213) {
  InputLimits lim;
  lim.max_config_bytes = 64;
  DiagnosticSink sink;
  analysis::ParseConfigChecked(std::string(1000, '#'), sink, lim);
  EXPECT_TRUE(HasCode(sink, "DL213"));

  InputLimits defs_lim;
  defs_lim.max_config_defs = 2;
  std::string cfg;
  for (int i = 0; i < 6; ++i) {
    cfg += "event e" + std::to_string(i) + ": max(fwd.owd_ms) > 1\n";
  }
  DiagnosticSink defs_sink;
  auto parsed = analysis::ParseConfigChecked(cfg, defs_sink, defs_lim);
  EXPECT_TRUE(HasCode(defs_sink, "DL213"));
  EXPECT_EQ(parsed.events.size(), 2u);  // remaining lines ignored, not read
}

// --- checkpoint hardening --------------------------------------------------------

TEST(CheckpointLimitsTest, SizeAndEntryBudgetsFailClosed) {
  runtime::LiveCheckpoint cp;
  std::string error;
  runtime::CheckpointFailure failure = runtime::CheckpointFailure::kNone;

  InputLimits lim;
  lim.max_checkpoint_bytes = 16;
  EXPECT_FALSE(runtime::ParseCheckpoint(std::string(100, 'a'), "", &cp,
                                        &error, &failure, lim));
  EXPECT_EQ(failure, runtime::CheckpointFailure::kCorrupt);
  EXPECT_NE(error.find("budget"), std::string::npos) << error;
}

TEST(CheckpointLimitsTest, ZeroByteAndGarbageAreCorruptNotExceptions) {
  runtime::LiveCheckpoint cp;
  std::string error;
  runtime::CheckpointFailure failure = runtime::CheckpointFailure::kNone;
  const std::string cases[] = {std::string(),
                               std::string("\x00\xff\x7f" "ELF", 6),
                               std::string("domino-live-checkpoint v1\n")};
  for (const std::string& bad : cases) {
    EXPECT_FALSE(
        runtime::ParseCheckpoint(bad, "", &cp, &error, &failure));
    EXPECT_EQ(failure, runtime::CheckpointFailure::kCorrupt);
  }
}

// --- CLI argv front-end ----------------------------------------------------------

int DryRun(std::vector<std::string> args) {
  cli::MainOptions mo;
  mo.dry_run = true;
  return cli::DominoMain(std::move(args), mo);
}

TEST(CliStrictFlagsTest, MalformedNumericFlagValuesExitTwo) {
  // Each of these used to escape as std::invalid_argument/out_of_range
  // from std::stod/stoi/stoll/stoull.
  EXPECT_EQ(DryRun({"simulate", "wired", "abc", "/tmp/out"}), 2);
  EXPECT_EQ(DryRun({"simulate", "wired", "1e999", "/tmp/out"}), 2);
  EXPECT_EQ(DryRun({"simulate", "wired", "5", "/tmp/out", "--seed", "-1"}),
            2);
  EXPECT_EQ(DryRun({"live", "/tmp/ds", "--threads=abc"}), 2);
  EXPECT_EQ(DryRun({"live", "/tmp/ds", "--threads", "999999999999999"}), 2);
  EXPECT_EQ(DryRun({"live", "/tmp/ds", "--chunk-s", "nan"}), 2);
  EXPECT_EQ(DryRun({"analyze", "/tmp/ds", "--window", "1e999"}), 2);
  EXPECT_EQ(DryRun({"analyze", "/tmp/ds", "--min-coverage", "0.5x"}), 2);
  EXPECT_EQ(DryRun({"replay", "/tmp/ds", "/tmp/out", "--interval-ms",
                    "-5"}),
            2);
  EXPECT_EQ(DryRun({"replay", "/tmp/ds", "/tmp/out", "--chunk-ms", "abc"}),
            2);
  EXPECT_EQ(DryRun({"ingest", "/tmp/ds", "--inject", "drop=oops"}), 2);
  EXPECT_EQ(DryRun({"ingest", "/tmp/ds", "--inject", "drop=nan"}), 2);
  EXPECT_EQ(DryRun({"replay", "/tmp/ds", "/tmp/out", "--stall",
                    "dci=later"}),
            2);
  // Windows and steps that cannot make progress: a zero, negative or
  // sub-microsecond step used to hang analyze (or SIGFPE live), and a
  // negative window ended in a vector::reserve error.
  for (const char* cmd : {"analyze", "live", "serve"}) {
    SCOPED_TRACE(cmd);
    for (const char* step : {"0", "-0.5", "0.0000001", "inf", "-1e300"}) {
      EXPECT_EQ(DryRun({cmd, "/tmp/ds", "--step", step}), 2) << step;
    }
    EXPECT_EQ(DryRun({cmd, "/tmp/ds", "--window", "-5"}), 2);
    EXPECT_EQ(DryRun({cmd, "/tmp/ds", "--window=0"}), 2);
  }
  // lint's --window goes through the same spec; --format is an enum.
  EXPECT_EQ(DryRun({"lint", "c.domino", "--window", "inf"}), 2);
  EXPECT_EQ(DryRun({"lint", "c.domino", "--window", "1e999"}), 2);
  EXPECT_EQ(DryRun({"lint", "c.domino", "--window", "0"}), 2);
  EXPECT_EQ(DryRun({"lint", "c.domino", "--format", "xml"}), 2);
  EXPECT_EQ(DryRun({"convert", "/tmp/a", "/tmp/b", "--to", "bin|csv"}), 2);
  EXPECT_EQ(DryRun({"serve", "/tmp/ds", "--isolate", "fiber"}), 2);
  // live's --chaos-disk spec is checked before a dry run returns.
  EXPECT_EQ(DryRun({"live", "/tmp/ds", "--chaos-disk", "enospc:0"}), 2);
  // The other seconds flags: a negative gap threshold reported every
  // stream as all gaps, and 1e300 overflowed the microsecond conversion.
  for (const char* flag : {"--chunk-s", "--horizon-s", "--stall-deadline-s"}) {
    SCOPED_TRACE(flag);
    for (const char* v : {"0", "-1", "0.0000001", "1e300", "inf"}) {
      EXPECT_EQ(DryRun({"live", "/tmp/ds", flag, v}), 2) << v;
      EXPECT_EQ(DryRun({"serve", "/tmp/ds", flag, v}), 2) << v;
    }
  }
  for (const char* v : {"-1", "1e300", "nan"}) {
    EXPECT_EQ(DryRun({"serve", "/tmp/ds", "--session-deadline-s", v}), 2)
        << v;
    EXPECT_EQ(DryRun({"ingest", "/tmp/ds", "--gap-threshold", v}), 2) << v;
    EXPECT_EQ(DryRun({"ingest", "/tmp/ds", "--reorder-window", v}), 2) << v;
  }
}

TEST(CliStrictFlagsTest, ValidCommandLinesDryRunClean) {
  EXPECT_EQ(DryRun({"simulate", "wired", "5", "/tmp/out", "--seed", "7"}),
            0);
  EXPECT_EQ(DryRun({"live", "/tmp/ds", "--threads=4", "--chunk-s=2.5",
                    "--follow", "--quiet"}),
            0);
  EXPECT_EQ(DryRun({"analyze", "/tmp/ds", "--window", "10",
                    "--min-coverage=0.8"}),
            0);
  EXPECT_EQ(DryRun({"replay", "/tmp/ds", "/tmp/out", "--chunk-ms", "500",
                    "--stall", "dci=3.5"}),
            0);
  EXPECT_EQ(DryRun({"ingest", "/tmp/ds", "--inject", "drop=0.1,dup=0.05",
                    "--seed", "9"}),
            0);
  EXPECT_EQ(DryRun({"lint", "whatever.domino", "--strict"}), 0);
  EXPECT_EQ(DryRun({"codegen", "whatever.domino"}), 0);
  // Zero is meaningful where it switches something off.
  EXPECT_EQ(DryRun({"serve", "/tmp/ds", "--session-deadline-s", "0"}), 0);
  EXPECT_EQ(DryRun({"ingest", "/tmp/ds", "--gap-threshold", "0",
                    "--reorder-window=0"}),
            0);
  EXPECT_EQ(DryRun({"live", "/tmp/ds", "--horizon-s", "0.000001",
                    "--stall-deadline-s", "9e12"}),
            0);
  // Flags go anywhere, in either spelling; a value may start with '-'.
  EXPECT_EQ(DryRun({"live", "--step=0.25", "/tmp/a", "--window", "2",
                    "/tmp/b", "--naive", "--max-backlog", "3"}),
            0);
  EXPECT_EQ(DryRun({"serve", "/tmp/ds", "--window", "5.123456789",
                    "--isolate=process", "--checkpoint-every", "1"}),
            0);
  EXPECT_EQ(DryRun({"lint", "--format=json", "c.domino", "--window", "2"}),
            0);
  EXPECT_EQ(DryRun({"replay", "/tmp/ds", "/tmp/out", "--stall",
                    "gnb=-1"}),
            0);
  EXPECT_EQ(DryRun({"codegen", "c.domino", "-o", "out.py"}), 0);
  EXPECT_EQ(DryRun({"--lint", "c.domino", "--no-verify"}), 0);
}

TEST(CliStrictFlagsTest, UsageErrorsStayUsageErrors) {
  EXPECT_EQ(DryRun({}), 2);
  EXPECT_EQ(DryRun({"frobnicate"}), 2);
  EXPECT_EQ(DryRun({"simulate", "wired"}), 2);
  EXPECT_EQ(DryRun({"live"}), 2);
  // Trailing flag with no value is not silently swallowed.
  EXPECT_EQ(DryRun({"analyze", "/tmp/ds", "--window"}), 2);
  EXPECT_EQ(DryRun({"live", "/tmp/ds", "--state"}), 2);
  // A typo'd flag used to run as two more sessions ("--windw", "10");
  // `serve --help` ran a session named --help.
  for (const char* cmd : {"live", "serve", "analyze", "lint"}) {
    SCOPED_TRACE(cmd);
    EXPECT_EQ(DryRun({cmd, "/tmp/x", "--windw", "10"}), 2);
    EXPECT_EQ(DryRun({cmd, "/tmp/x", "--windw=10"}), 2);
    EXPECT_EQ(DryRun({cmd, "/tmp/x", "--window", "5", "--window=6"}), 2);
    EXPECT_EQ(DryRun({cmd, "/tmp/x", "--help"}), 2);
  }
  EXPECT_EQ(DryRun({"serve", "--help"}), 2);
  EXPECT_EQ(DryRun({"live", "/tmp/ds", "--naive", "--naive"}), 2);
  EXPECT_EQ(DryRun({"live", "/tmp/ds", "--naive=1"}), 2);
  EXPECT_EQ(DryRun({"simulate", "wired", "5", "/tmp/out", "-x"}), 2);
  EXPECT_EQ(DryRun({"convert", "/tmp/a", "/tmp/b", "/tmp/c"}), 2);
}

/// Every flag-looking token ("--x" or "-x") per `domino <cmd>` section of
/// `domino --help`.
std::map<std::string, std::set<std::string>> FlagsInHelp() {
  testing::internal::CaptureStdout();
  EXPECT_EQ(cli::DominoMain({"--help"}), 0);
  std::istringstream help(testing::internal::GetCapturedStdout());
  const std::regex flag("(^|[\\s(`])(-{1,2}[a-z][a-z0-9-]*)");
  std::map<std::string, std::set<std::string>> listed;
  std::string cmd;
  for (std::string line; std::getline(help, line);) {
    if (line.rfind("  domino ", 0) == 0) {
      cmd = line.substr(9, line.find(' ', 9) - 9);
      continue;
    }
    for (std::sregex_iterator it(line.begin(), line.end(), flag), end;
         it != end; ++it) {
      listed[cmd].insert((*it)[2]);
    }
  }
  return listed;
}

TEST(CliStrictFlagsTest, HelpListsExactlyTheFlagsTheParserAccepts) {
  const auto listed = FlagsInHelp();
  const auto table = cli::FlagTable();
  ASSERT_EQ(table.size(), 10u);
  for (const auto& [cmd, flags] : table) {
    SCOPED_TRACE(cmd);
    const std::set<std::string> accepted(flags.begin(), flags.end());
    EXPECT_EQ(accepted.size(), flags.size()) << "a flag is declared twice";
    ASSERT_TRUE(listed.count(cmd)) << "no help section";
    EXPECT_EQ(listed.at(cmd), accepted);
    // The parser knows each one: whatever `--flag=1` does (a switch
    // refuses the value), it is not rejected as an unknown flag.
    for (const std::string& f : flags) {
      testing::internal::CaptureStderr();
      DryRun({cmd, f + "=1"});
      EXPECT_EQ(testing::internal::GetCapturedStderr().find("unknown flag"),
                std::string::npos)
          << f;
    }
  }
}

}  // namespace
}  // namespace domino
