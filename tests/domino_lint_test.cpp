// domino-lint test suite: golden fixtures (one per diagnostic code in
// examples/configs/bad/), multi-error collection, JSON stability, the
// did-you-mean engine, renderer layout, and the "shipped artifacts lint
// clean" property for the example configs and the default graph.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "domino/config_parser.h"
#include "domino/expr.h"
#include "domino/graph.h"
#include "domino/lint/lint.h"
#include "domino/lint/suggest.h"

namespace domino::analysis::lint {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << "missing fixture: " << path;
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

std::string FixturePath(const std::string& name) {
  return std::string(DOMINO_SOURCE_DIR) + "/examples/configs/bad/" + name;
}

const Diagnostic* FindCode(const DiagnosticSink& sink,
                           const std::string& code) {
  for (const auto& d : sink.diagnostics()) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

// --- Fixture table: every catalog code has a bad-config exemplar -----------

struct FixtureCase {
  const char* file;
  const char* code;
  Severity severity;
  int line;
  int col;
  const char* fixit;  ///< "" = no fix-it expected.
};

constexpr FixtureCase kFixtures[] = {
    {"dl001_unexpected_char.domino", "DL001", Severity::kError, 2, 26, ""},
    {"dl002_bad_number.domino", "DL002", Severity::kError, 2, 28, ""},
    {"dl005_number_out_of_range.domino", "DL005", Severity::kError, 2, 28,
     ""},
    {"dl003_expected_expression.domino", "DL003", Severity::kError, 2, 27,
     ""},
    {"dl004_trailing_input.domino", "DL004", Severity::kError, 2, 31, ""},
    {"dl101_unknown_scope.domino", "DL101", Severity::kError, 2, 14, "fwd"},
    {"dl102_unknown_series.domino", "DL102", Severity::kError, 2, 18,
     "owd_ms"},
    {"dl103_unknown_function.domino", "DL103", Severity::kError, 2, 10,
     "max"},
    {"dl104_argument_kind.domino", "DL104", Severity::kError, 2, 12, ""},
    {"dl105_series_as_scalar.domino", "DL105", Severity::kError, 2, 10,
     "max(fwd.owd_ms)"},
    {"dl106_percentile_range.domino", "DL106", Severity::kError, 2, 24,
     "100"},
    {"dl107_percentile_fraction.domino", "DL107", Severity::kWarning, 2, 24,
     "90"},
    {"dl108_always_true.domino", "DL108", Severity::kWarning, 2, 10, ""},
    {"dl109_always_false.domino", "DL109", Severity::kWarning, 2, 10, ""},
    {"dl110_unit_mismatch.domino", "DL110", Severity::kWarning, 2, 26, ""},
    {"dl111_nonboolean_event.domino", "DL111", Severity::kWarning, 2, 10,
     ""},
    {"dl112_arity.domino", "DL112", Severity::kError, 2, 10, ""},
    {"dl201_malformed_line.domino", "DL201", Severity::kError, 2, 1, ""},
    {"dl202_unknown_keyword.domino", "DL202", Severity::kError, 2, 1,
     "event"},
    {"dl203_missing_name.domino", "DL203", Severity::kError, 2, 7, ""},
    {"dl204_invalid_name.domino", "DL204", Severity::kError, 2, 7, ""},
    {"dl205_duplicate_event.domino", "DL205", Severity::kError, 3, 7, ""},
    {"dl206_short_chain.domino", "DL206", Severity::kError, 2, 10, ""},
    {"dl207_empty_node.domino", "DL207", Severity::kError, 2, 23, ""},
    {"dl208_unknown_node.domino", "DL208", Severity::kError, 2, 23,
     "fwd_delay_up"},
    {"dl209_custom_rev.domino", "DL209", Severity::kError, 3, 10, "mine"},
    {"dl210_duplicate_chain.domino", "DL210", Severity::kWarning, 3, 7, ""},
    {"dl211_unused_event.domino", "DL211", Severity::kWarning, 2, 7, ""},
    {"dl212_no_intermediates.domino", "DL212", Severity::kWarning, 2, 7, ""},
    {"dl214_rev_leg_independent.domino", "DL214", Severity::kWarning, 2, 27,
     "fwd_delay_up"},
    {"dl301_cycle.domino", "DL301", Severity::kError, 3, 7, ""},
    {"dl302_role_conflict.domino", "DL302", Severity::kWarning, 2, 22, ""},
    {"dl303_dead_node.domino", "DL303", Severity::kWarning, 3, 33, ""},
    {"dl401_unsat_range.domino", "DL401", Severity::kError, 2, 25, ""},
    {"dl401_unsat_conjunction.domino", "DL401", Severity::kError, 2, 22, ""},
    {"dl402_tautology.domino", "DL402", Severity::kWarning, 2, 18, ""},
    {"dl403_unit_mismatch.domino", "DL403", Severity::kWarning, 2, 14, ""},
    {"dl404_dead_threshold.domino", "DL404", Severity::kWarning, 2, 18, ""},
    {"dl404_negative_threshold.domino", "DL404", Severity::kWarning, 2, 20,
     ""},
    {"dl405_shadowed_chain.domino", "DL405", Severity::kWarning, 6, 7, ""},
    {"dl406_stream_mismatch.domino", "DL406", Severity::kWarning, 2, 29,
     "requires packets"},
    {"dl406_unknown_stream.domino", "DL406", Severity::kError, 2, 28, "dci"},
    {"dl407_window_too_narrow.domino", "DL407", Severity::kWarning, 3, 21,
     ""},
};

TEST(LintFixtureTest, EveryCatalogCodeHasAFixtureThatTriggersIt) {
  for (const FixtureCase& fc : kFixtures) {
    SCOPED_TRACE(fc.file);
    LintResult res = LintConfigText(ReadFile(FixturePath(fc.file)));
    const Diagnostic* d = FindCode(res.sink, fc.code);
    ASSERT_NE(d, nullptr) << "fixture did not produce " << fc.code;
    EXPECT_EQ(d->severity, fc.severity);
    EXPECT_EQ(d->span.line, fc.line);
    EXPECT_EQ(d->span.col, fc.col);
    if (fc.fixit[0] != '\0') {
      EXPECT_EQ(d->fixit, fc.fixit);
    }
  }
}

TEST(LintFixtureTest, ErrorFixturesFailAndWarningFixturesPass) {
  for (const FixtureCase& fc : kFixtures) {
    SCOPED_TRACE(fc.file);
    LintResult res = LintConfigText(ReadFile(FixturePath(fc.file)));
    EXPECT_EQ(res.sink.has_errors(), fc.severity == Severity::kError);
  }
}

// --- Multi-error collection ------------------------------------------------

TEST(LintTest, ReportsEveryErrorInOneRun) {
  const std::string text =
      "event big: max(fwd.owd) > 10 and p(fwd.owd_ms, 0.95) > 5\n"
      "event big: 1\n"
      "chain c: big -> tbs_dropp -> jitter_buffer_drain\n";
  LintResult res = LintConfigText(text);
  EXPECT_EQ(res.sink.error_count(), 3u);  // DL102, DL205, DL208
  EXPECT_NE(FindCode(res.sink, "DL102"), nullptr);
  EXPECT_NE(FindCode(res.sink, "DL205"), nullptr);
  EXPECT_NE(FindCode(res.sink, "DL208"), nullptr);
  EXPECT_NE(FindCode(res.sink, "DL107"), nullptr);  // the warning, too
}

TEST(LintTest, ExpressionDiagnosticsRebaseOntoConfigColumns) {
  //         1         2
  // 123456789012345678901234
  // event e: max(fwd.owd) > 1
  LintResult res = LintConfigText("event e: max(fwd.owd) > 1\n");
  const Diagnostic* d = FindCode(res.sink, "DL102");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->span.line, 1);
  EXPECT_EQ(d->span.col, 18);  // 'owd' within the file line, not the expr
  EXPECT_EQ(d->span.length, 3);
}

// --- Stable JSON -----------------------------------------------------------

TEST(LintTest, JsonFormatIsStable) {
  LintResult res = LintConfigText("event e: max(fwd.owd) > 10\n");
  const std::string expected =
      "{\"diagnostics\":[\n"
      "  {\"code\":\"DL211\",\"severity\":\"warning\",\"line\":1,\"col\":7,"
      "\"length\":1,\"message\":\"event 'e' is defined but never used in a "
      "chain\",\"fixit\":\"\",\"detail\":\"\"},\n"
      "  {\"code\":\"DL102\",\"severity\":\"error\",\"line\":1,\"col\":18,"
      "\"length\":3,\"message\":\"unknown 5G series 'owd' in scope 'fwd'; "
      "did you mean 'owd_ms'?\",\"fixit\":\"owd_ms\",\"detail\":\"\"}\n"
      "],\"errors\":1,\"warnings\":1}\n";
  EXPECT_EQ(FormatDiagnosticsJson(res.sink), expected);
}

TEST(LintTest, JsonEscapesSpecialCharacters) {
  DiagnosticSink sink;
  sink.Error("DL999", {1, 1, 1}, "quote \" backslash \\ tab \t");
  std::string json = FormatDiagnosticsJson(sink);
  EXPECT_NE(json.find("quote \\\" backslash \\\\ tab \\t"),
            std::string::npos);
}

// --- Renderer --------------------------------------------------------------

TEST(LintTest, RendererUnderlinesTheSpan) {
  LintResult res = LintConfigText("event e: max(fwd.owd) > 10\n");
  std::string out = RenderDiagnostics(
      res.sink, "event e: max(fwd.owd) > 10\n", "cfg.domino");
  EXPECT_NE(out.find("cfg.domino:1:18: error[DL102]"), std::string::npos);
  EXPECT_NE(out.find("  event e: max(fwd.owd) > 10\n"), std::string::npos);
  // 17 spaces of padding (col 18) + caret + two tildes for 'owd'.
  EXPECT_NE(out.find("\n  " + std::string(17, ' ') + "^~~\n"),
            std::string::npos);
  EXPECT_NE(out.find("fix-it: replace with 'owd_ms'"), std::string::npos);
  EXPECT_NE(out.find("1 error(s), 1 warning(s)\n"), std::string::npos);
}

// --- Shipped artifacts must lint clean ------------------------------------

TEST(LintTest, ShippedExampleConfigLintsClean) {
  std::string text = ReadFile(std::string(DOMINO_SOURCE_DIR) +
                              "/examples/configs/extended.domino");
  LintResult res = LintConfigText(text);
  EXPECT_TRUE(res.sink.empty())
      << RenderDiagnostics(res.sink, text, "extended.domino");
}

TEST(LintTest, DefaultGraphLintsClean) {
  CausalGraph g = CausalGraph::Default();
  DiagnosticSink sink;
  LintGraph(g, sink);
  EXPECT_TRUE(sink.empty());
}

TEST(LintTest, LintGraphFlagsCycleWithPath) {
  CausalGraph g;
  g.AddNode({"a", NodeKind::kCause, nullptr, {}, {}});
  g.AddNode({"b", NodeKind::kIntermediate, nullptr, {}, {}});
  g.AddEdge("a", "b");
  g.AddEdge("b", "a");
  DiagnosticSink sink;
  LintGraph(g, sink);
  const Diagnostic* d = FindCode(sink, "DL301");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("a -> b -> a"), std::string::npos);
}

TEST(LintTest, LintGraphFlagsDeadNode) {
  CausalGraph g;
  g.AddNode({"a", NodeKind::kCause, nullptr, {}, {}});
  g.AddNode({"x", NodeKind::kConsequence, nullptr, {}, {}});
  g.AddNode({"island", NodeKind::kIntermediate, nullptr, {}, {}});
  g.AddEdge("a", "x");
  DiagnosticSink sink;
  LintGraph(g, sink);
  const Diagnostic* d = FindCode(sink, "DL303");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("island"), std::string::npos);
}

// --- No false positives on idiomatic predicates ----------------------------

TEST(LintTest, CountComparisonsAreNotFoldedAsTautologies) {
  // count() ranges over [0, inf): `> 0` is genuinely data-dependent.
  LintResult res = LintConfigText(
      "event e: count(receiver.jitter_buffer_ms) > 0\n"
      "chain c: harq_retx -> e -> pushback_drop\n");
  EXPECT_EQ(FindCode(res.sink, "DL108"), nullptr);
  EXPECT_EQ(FindCode(res.sink, "DL109"), nullptr);
  EXPECT_FALSE(res.sink.has_errors());
}

TEST(LintTest, NumericOffsetKeepsUnitWithoutWarning) {
  // A bare number offsets a quantity without changing its unit.
  LintResult res = LintConfigText(
      "event e: max(fwd.owd_ms) + 200 > min(fwd.owd_ms)\n"
      "chain c: e -> jitter_buffer_drain -> pushback_drop\n");
  EXPECT_EQ(FindCode(res.sink, "DL110"), nullptr);
}

// --- Strict mode and severity plumbing -------------------------------------

TEST(LintTest, PromoteWarningsTurnsWarningsIntoErrors) {
  LintResult res = LintConfigText("event lonely: max(fwd.owd_ms) > 10\n");
  ASSERT_FALSE(res.sink.has_errors());
  ASSERT_GT(res.sink.warning_count(), 0u);
  PromoteWarnings(res.sink);
  EXPECT_TRUE(res.sink.has_errors());
  EXPECT_EQ(res.sink.warning_count(), 0u);
  EXPECT_EQ(res.sink.max_severity(), Severity::kError);
}

TEST(LintTest, MaxSeverityDrivesExitCodes) {
  DiagnosticSink clean;
  EXPECT_EQ(static_cast<int>(clean.max_severity()), 0);
  clean.Warning("DLxxx", {}, "w");
  EXPECT_EQ(static_cast<int>(clean.max_severity()), 1);
  clean.Error("DLxxx", {}, "e");
  EXPECT_EQ(static_cast<int>(clean.max_severity()), 2);
}

// --- Legacy wrappers stay thin --------------------------------------------

TEST(LintTest, LegacyParseThrowsFirstErrorWithLineReference) {
  try {
    ParseConfigText("event ok: 1 > 0\nevent bad: max(fwd.owd) > 1\n");
    FAIL() << "expected DslError";
  } catch (const DslError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("config line 2"), std::string::npos);
    EXPECT_NE(what.find("owd"), std::string::npos);
  }
}

TEST(LintTest, LegacyExpressionErrorsCarryColumns) {
  try {
    ParseExpression("max(fwd.owd_ms) + bogus.x > 1");
    FAIL() << "expected DslError";
  } catch (const DslError& e) {
    // 'bogus' starts at 1-based column 19.
    EXPECT_NE(std::string(e.what()).find("column 19"), std::string::npos);
  }
}

TEST(LintTest, CheckedExpressionParseNullsResultOnError) {
  DiagnosticSink sink;
  CheckedExpr ce = ParseExpressionChecked("max(fwd.owd) > 1e999", sink);
  EXPECT_EQ(ce.expr, nullptr);
  EXPECT_GE(sink.error_count(), 2u);  // DL102 and DL005, one pass
  EXPECT_NE(FindCode(sink, "DL102"), nullptr);
  EXPECT_NE(FindCode(sink, "DL005"), nullptr);
}

TEST(LintTest, CheckedExpressionReportsShape) {
  DiagnosticSink sink;
  EXPECT_TRUE(
      ParseExpressionChecked("max(fwd.owd_ms) > 1", sink).is_boolean);
  EXPECT_TRUE(ParseExpressionChecked("fwd.owd_ms", sink).is_series);
  CheckedExpr numeric = ParseExpressionChecked("mean(fwd.owd_ms)", sink);
  EXPECT_FALSE(numeric.is_boolean);
  EXPECT_FALSE(numeric.is_series);
  EXPECT_TRUE(sink.empty());
}

// --- Did-you-mean ----------------------------------------------------------

TEST(SuggestTest, EditDistanceCountsTranspositionsAsOne) {
  EXPECT_EQ(EditDistance("abc", "abc"), 0u);
  EXPECT_EQ(EditDistance("abc", "acb"), 1u);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("", "abc"), 3u);
}

TEST(SuggestTest, DidYouMeanFindsCloseAndPrefixMatches) {
  std::vector<std::string> series = {"owd_ms", "app_bitrate", "mcs"};
  EXPECT_EQ(DidYouMean("owd", series), "owd_ms");      // prefix bonus
  EXPECT_EQ(DidYouMean("owd_mss", series), "owd_ms");  // 1 edit
  EXPECT_EQ(DidYouMean("zzzzzz", series), "");         // nothing close
}

TEST(SuggestTest, DidYouMeanHandlesDegenerateInputs) {
  EXPECT_EQ(DidYouMean("anything", {}), "");  // empty candidate set
  EXPECT_EQ(DidYouMean("", {"a", "b"}), "");  // empty word never matches
  // A candidate equal to the word is excluded (no self-suggestions).
  EXPECT_EQ(DidYouMean("mcs", {"mcs"}), "");
  // One-character names: the minimum budget of 2 still admits close hits,
  // and a 1-char prefix relationship counts.
  EXPECT_EQ(DidYouMean("x", {"xy"}), "xy");
  EXPECT_EQ(DidYouMean("q", {"abcdef"}), "");
}

TEST(SuggestTest, DidYouMeanTieBreakIsFirstCandidateWins) {
  // "ax" and "ay" are both one substitution from "az"; the suggestion must
  // be deterministic across runs — strictly-better-only keeps the first.
  EXPECT_EQ(DidYouMean("az", {"ax", "ay"}), "ax");
  EXPECT_EQ(DidYouMean("az", {"ay", "ax"}), "ay");
  // A strictly closer later candidate still wins the earlier one.
  EXPECT_EQ(DidYouMean("owd_m", {"app_bitrate", "owd_ms"}), "owd_ms");
}

}  // namespace
}  // namespace domino::analysis::lint
