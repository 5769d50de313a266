// Tests for the domino-verify pass (DESIGN.md §12): the interval abstract
// domain, the declared telemetry schema, the DL401-DL407 checks, and the
// stream masks inferred from the built-in prelude (pinned to the masks the
// retired per-type switch returned). The 20 prelude entries must verify
// clean — the schema may never contradict the detector it describes.
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "domino/config_parser.h"
#include "domino/events.h"
#include "domino/lint/interval.h"
#include "domino/lint/lint.h"
#include "domino/lint/schema.h"
#include "domino/lint/verify.h"
#include "domino/prelude.h"
#include "telemetry/dataset.h"

namespace domino::analysis::lint {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

StreamMask Bit(telemetry::StreamId id) {
  return static_cast<StreamMask>(1u << static_cast<unsigned>(id));
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Codes in the sink that start with `prefix`, in order.
std::vector<std::string> CodesWithPrefix(const DiagnosticSink& sink,
                                         const std::string& prefix) {
  std::vector<std::string> out;
  for (const auto& d : sink.diagnostics()) {
    if (d.code.rfind(prefix, 0) == 0) out.push_back(d.code);
  }
  return out;
}

const Diagnostic* FindCode(const DiagnosticSink& sink,
                           const std::string& code) {
  for (const auto& d : sink.diagnostics()) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

/// Parses `text` (expecting a clean parse) and runs VerifyConfig over it.
DiagnosticSink Verify(const std::string& text, const VerifyOptions& opts = {}) {
  DiagnosticSink sink;
  DominoConfigFile cfg = ParseConfigChecked(text, sink);
  EXPECT_FALSE(sink.has_errors())
      << text << RenderDiagnostics(sink, text, "");
  VerifyConfig(cfg, sink, opts);
  return sink;
}

// ---------------------------------------------------------------------------
// Interval domain
// ---------------------------------------------------------------------------

TEST(IntervalTest, ConstructionAndArithmetic) {
  EXPECT_EQ(Interval(), Interval(-kInf, kInf));
  EXPECT_EQ(Interval(5, 2), Interval(2, 5));  // swaps
  EXPECT_TRUE(Interval::Exact(3).IsExact());
  EXPECT_TRUE(Interval(1, 2).Contains(1.5));
  EXPECT_FALSE(Interval(1, 2).Contains(3));

  EXPECT_EQ(Add({1, 2}, {3, 4}), Interval(4, 6));
  EXPECT_EQ(Sub({1, 2}, {3, 4}), Interval(-3, -1));
  EXPECT_EQ(Mul({-1, 2}, {3, 4}), Interval(-4, 8));
  EXPECT_EQ(Neg({1, 2}), Interval(-2, -1));
  EXPECT_EQ(Union({0, 1}, {5, 6}), Interval(0, 6));
  EXPECT_EQ(Interval(1, 2).HullWith(0), Interval(0, 2));
  EXPECT_EQ(Interval(1, 2).HullWith(3), Interval(1, 3));

  // inf - inf would be NaN: widens to top, never poisons downstream math.
  EXPECT_EQ(Sub(Interval(), Interval()), Interval());

  // Division inverts only an exact nonzero constant (the DSL guards x / 0).
  EXPECT_EQ(Div({2, 4}, Interval::Exact(2)), Interval(1, 2));
  EXPECT_EQ(Div({2, 4}, Interval::Exact(0)), Interval());
  EXPECT_EQ(Div({2, 4}, {1, 2}), Interval());

  EXPECT_EQ(FormatInterval({0, 120}), "[0, 120]");
  EXPECT_EQ(FormatInterval(Interval()), "[-inf, inf]");
}

TEST(IntervalTest, TruthAndFoldCmp) {
  EXPECT_EQ(Truth(Interval::Exact(0)), Tri::kFalse);
  EXPECT_EQ(Truth({1, 2}), Tri::kTrue);
  EXPECT_EQ(Truth({-2, -1}), Tri::kTrue);
  EXPECT_EQ(Truth({0, 0.5}), Tri::kMaybe);

  EXPECT_EQ(TriNot(Tri::kMaybe), Tri::kMaybe);
  EXPECT_EQ(TriAnd(Tri::kFalse, Tri::kMaybe), Tri::kFalse);
  EXPECT_EQ(TriAnd(Tri::kTrue, Tri::kMaybe), Tri::kMaybe);
  EXPECT_EQ(TriOr(Tri::kTrue, Tri::kMaybe), Tri::kTrue);
  EXPECT_EQ(TriOr(Tri::kFalse, Tri::kMaybe), Tri::kMaybe);

  EXPECT_EQ(FoldCmp(CmpOp::kLt, {0, 1}, {2, 3}), Tri::kTrue);
  EXPECT_EQ(FoldCmp(CmpOp::kLt, {2, 3}, {0, 1}), Tri::kFalse);
  EXPECT_EQ(FoldCmp(CmpOp::kLt, {0, 2}, {1, 3}), Tri::kMaybe);
  // Touching endpoints: < undecided, <= forced.
  EXPECT_EQ(FoldCmp(CmpOp::kLt, {0, 1}, {1, 2}), Tri::kMaybe);
  EXPECT_EQ(FoldCmp(CmpOp::kLe, {0, 1}, {1, 2}), Tri::kTrue);
  EXPECT_EQ(FoldCmp(CmpOp::kGt, Interval::Exact(2), Interval::Exact(2)),
            Tri::kFalse);
  EXPECT_EQ(FoldCmp(CmpOp::kEq, Interval::Exact(1), Interval::Exact(1)),
            Tri::kTrue);
  EXPECT_EQ(FoldCmp(CmpOp::kEq, {0, 1}, {2, 3}), Tri::kFalse);
  EXPECT_EQ(FoldCmp(CmpOp::kNe, Interval::Exact(1), Interval::Exact(2)),
            Tri::kTrue);
}

TEST(IntervalTest, ConstraintImplicationAndIntersection) {
  auto gt = [](double c) { return Constraint::FromCmp(CmpOp::kGt, c); };
  auto ge = [](double c) { return Constraint::FromCmp(CmpOp::kGe, c); };
  auto lt = [](double c) { return Constraint::FromCmp(CmpOp::kLt, c); };
  auto le = [](double c) { return Constraint::FromCmp(CmpOp::kLe, c); };
  auto eq = [](double c) { return Constraint::FromCmp(CmpOp::kEq, c); };

  EXPECT_TRUE(gt(200).Implies(gt(100)));
  EXPECT_FALSE(gt(100).Implies(gt(200)));
  // Strict vs closed at the same bound: > 100 ⊂ >= 100, not vice versa.
  EXPECT_TRUE(gt(100).Implies(ge(100)));
  EXPECT_FALSE(ge(100).Implies(gt(100)));
  EXPECT_TRUE(lt(5).Implies(le(5)));
  EXPECT_TRUE(eq(3).Implies(ge(0)));
  EXPECT_FALSE(ge(0).Implies(eq(3)));
  EXPECT_TRUE(Constraint().Implies(Constraint()));
  EXPECT_FALSE(Constraint().Implies(gt(0)));

  EXPECT_TRUE(gt(10).Intersect(lt(5)).IsEmpty());
  Constraint band = gt(0).Intersect(lt(5));
  EXPECT_FALSE(band.IsEmpty());
  EXPECT_TRUE(band.Implies(gt(0)));
  EXPECT_TRUE(band.Implies(lt(5)));
}

// ---------------------------------------------------------------------------
// Declared schema
// ---------------------------------------------------------------------------

TEST(SchemaTest, EveryRowResolvesAndIsPhysicallySane) {
  for (const SeriesSchema& row : TelemetrySchema()) {
    const SeriesSchema* found = FindSeriesSchema(row.scope, row.name);
    ASSERT_EQ(found, &row) << row.name;
    EXPECT_LE(row.min_value, row.max_value) << row.name;
    EXPECT_GT(row.cadence_ms, 0) << row.name;
    EXPECT_STRNE(UnitName(row.unit), "") << row.name;
    // Every series must admit at least one sample in the default window.
    EXPECT_GE(MaxSamplesInWindow(row, 5000.0), 1u) << row.name;
  }
}

TEST(SchemaTest, ScopeTokensSelectTheRightFamily) {
  const SeriesSchema* owd = FindSeriesSchema("fwd", "owd_ms");
  ASSERT_NE(owd, nullptr);
  EXPECT_EQ(owd->unit, Unit::kMs);
  EXPECT_EQ(FindSeriesSchema("sender", "owd_ms"), nullptr);  // wrong family
  EXPECT_NE(FindSeriesSchema("ue", "jitter_buffer_ms"), nullptr);
  EXPECT_EQ(FindSeriesSchema("bogus", "owd_ms"), nullptr);
  EXPECT_TRUE(IsDirScopeName("ul"));
  EXPECT_FALSE(IsDirScopeName("ue"));
  EXPECT_TRUE(IsClientScopeName("remote"));
}

TEST(SchemaTest, StreamResolutionFollowsPerspective) {
  using telemetry::StreamId;
  const SeriesSchema* fps = FindSeriesSchema("sender", "outbound_fps");
  ASSERT_NE(fps, nullptr);
  EXPECT_EQ(ResolveSourceStream(*fps, "sender", 0), StreamId::kStatsUe);
  EXPECT_EQ(ResolveSourceStream(*fps, "sender", 1), StreamId::kStatsRemote);
  EXPECT_EQ(ResolveSourceStream(*fps, "receiver", 0), StreamId::kStatsRemote);
  EXPECT_EQ(ResolveSourceStream(*fps, "ue", 1), StreamId::kStatsUe);

  const SeriesSchema* tbs = FindSeriesSchema("fwd", "tbs");
  ASSERT_NE(tbs, nullptr);
  EXPECT_EQ(ResolveSourceStream(*tbs, "fwd", 0), StreamId::kDci);

  EXPECT_EQ(StreamIdFromName("dci"), StreamId::kDci);
  EXPECT_EQ(StreamIdFromName("gnb_log"), StreamId::kGnbLog);
  EXPECT_EQ(StreamIdFromName("video"), std::nullopt);
  EXPECT_EQ(StreamMaskNames(static_cast<StreamMask>(
                Bit(StreamId::kDci) | Bit(StreamId::kPackets))),
            "dci, packets");
}

TEST(SchemaTest, DefaultThresholdsSitInsidePhysicalRanges) {
  // A built-in threshold outside its series' declared range would make the
  // schema call the built-in's own condition dead (DL404 on the prelude
  // entries below) — the two tables must stay consistent.
  EventThresholds th;
  const SeriesSchema* fps = FindSeriesSchema("receiver", "inbound_fps");
  const SeriesSchema* owd = FindSeriesSchema("fwd", "owd_ms");
  const SeriesSchema* mcs = FindSeriesSchema("fwd", "mcs");
  const SeriesSchema* jb = FindSeriesSchema("receiver", "jitter_buffer_ms");
  const SeriesSchema* harq = FindSeriesSchema("fwd", "harq_retx");
  ASSERT_TRUE(fps && owd && mcs && jb && harq);
  EXPECT_GT(th.fps_high, fps->min_value);
  EXPECT_LT(th.fps_high, fps->max_value);
  EXPECT_GT(th.delay_up_min_ms, owd->min_value);
  EXPECT_LT(th.delay_up_min_ms, owd->max_value);
  EXPECT_GT(th.mcs_p90_max, mcs->min_value);
  EXPECT_LT(th.mcs_p90_max, mcs->max_value);
  EXPECT_GT(th.jb_drain_ms, jb->min_value);
  EXPECT_LT(th.jb_drain_ms, jb->max_value);
  // "> 10 HARQ retx" must be reachable in one default 5 s window.
  EXPECT_LT(static_cast<std::size_t>(th.harq_retx_count),
            MaxSamplesInWindow(*harq, 5000.0));
}

// ---------------------------------------------------------------------------
// The 20 built-ins against the schema
// ---------------------------------------------------------------------------

/// The stream masks the per-type RequiredStreams switch returned before the
/// built-ins became a prelude, by type: {perspective 0, perspective 1}. The
/// leg never mattered. 1 = dci, 2 = gnb_log, 4 = packets, 8 = stats_ue,
/// 16 = stats_remote.
struct PinnedMask {
  EventType type;
  StreamMask mask[2];
};
constexpr PinnedMask kPinnedMasks[] = {
    {EventType::kInboundFpsDrop, {16, 8}},
    {EventType::kOutboundFpsDrop, {8, 16}},
    {EventType::kResolutionDrop, {8, 16}},
    {EventType::kJitterBufferDrain, {16, 8}},
    {EventType::kTargetBitrateDrop, {8, 16}},
    {EventType::kGccOveruse, {8, 16}},
    {EventType::kPushbackDrop, {8, 16}},
    {EventType::kCwndFull, {8, 16}},
    {EventType::kOutstandingUp, {8, 16}},
    {EventType::kPushbackNeqTarget, {8, 16}},
    {EventType::kFwdDelayUp, {4, 4}},
    {EventType::kRevDelayUp, {4, 4}},
    {EventType::kTbsDrop, {1, 1}},
    {EventType::kRateGap, {5, 5}},
    {EventType::kCrossTraffic, {1, 1}},
    {EventType::kChannelDegrade, {1, 1}},
    {EventType::kHarqRetx, {1, 1}},
    {EventType::kRlcRetx, {2, 2}},
    {EventType::kUlScheduling, {1, 1}},
    {EventType::kRrcChange, {1, 1}},
};

TEST(BuiltinSchemaTest, AllTwentyBuiltinConditionsVerifyClean) {
  // The prelude entries themselves, as a user would write them in a config.
  const Prelude& prelude = Prelude::For(EventThresholds{});
  for (const PinnedMask& m : kPinnedMasks) {
    std::string text = "event my_event: " + prelude.text(m.type) + "\n";
    DiagnosticSink sink;
    DominoConfigFile cfg = ParseConfigChecked(text, sink);
    ASSERT_TRUE(sink.empty())
        << ToString(m.type) << "\n" << RenderDiagnostics(sink, text, "");
    ASSERT_EQ(cfg.events.size(), 1u) << ToString(m.type);
    ASSERT_NE(cfg.events[0].expr, nullptr) << ToString(m.type);
    VerifyConfig(cfg, sink);
    EXPECT_TRUE(sink.empty())
        << ToString(m.type) << " tripped the verifier:\n"
        << RenderDiagnostics(sink, text, "");
  }
}

TEST(BuiltinSchemaTest, InferredStreamUseMatchesRequiredStreams) {
  // Masks inferred from the prelude reproduce the retired switch for every
  // type, leg and perspective.
  ASSERT_EQ(std::size(kPinnedMasks), 20u);
  for (const PinnedMask& m : kPinnedMasks) {
    for (PathLeg leg : {PathLeg::kNone, PathLeg::kFwd, PathLeg::kRev}) {
      for (int p = 0; p < 2; ++p) {
        EXPECT_EQ(RequiredStreams(EventRef{m.type, leg}, p), m.mask[p])
            << ToString(EventRef{m.type, leg}) << " perspective " << p;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// DL401-DL407 behaviour
// ---------------------------------------------------------------------------

TEST(VerifyTest, Dl401UnsatisfiableIsAnErrorAndSubsumesDl404) {
  DiagnosticSink sink = Verify("event e: max(fwd.owd_ms) < -5\n");
  const Diagnostic* d = FindCode(sink, "DL401");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->detail.find("[0, 0]"), std::string::npos);
  EXPECT_EQ(FindCode(sink, "DL404"), nullptr);  // subsumed
}

TEST(VerifyTest, Dl402TautologyIsAWarning) {
  DiagnosticSink sink = Verify("event e: max(fwd.mcs) <= 28\n");
  const Diagnostic* d = FindCode(sink, "DL402");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_NE(d->message.find("tautology"), std::string::npos);
}

TEST(VerifyTest, Dl401SuppressedWhenParserAlreadyFolded) {
  // `count(...) >= 0` is folded by the expression front-end (DL108/DL109);
  // the verifier must not restate the same fact as DL402.
  DiagnosticSink sink;
  DominoConfigFile cfg =
      ParseConfigChecked("event e: count(fwd.tbs) >= 0\n", sink);
  ASSERT_FALSE(CodesWithPrefix(sink, "DL10").empty())
      << "expected the parser to fold this comparison";
  VerifyConfig(cfg, sink);
  EXPECT_TRUE(CodesWithPrefix(sink, "DL4").empty())
      << RenderDiagnostics(sink, "", "");
}

TEST(VerifyTest, Dl403CatchesUnitsLaunderedThroughArithmetic) {
  DiagnosticSink sink = Verify("event e: sum(fwd.tbs) * 8 > max(fwd.owd_ms)\n");
  const Diagnostic* d = FindCode(sink, "DL403");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("bytes"), std::string::npos);
  EXPECT_NE(d->message.find("milliseconds"), std::string::npos);
  EXPECT_NE(d->detail.find("DL110"), std::string::npos);
}

TEST(VerifyTest, Dl403SilentWhenUnitsAgreeAfterScaling) {
  DiagnosticSink sink =
      Verify("event e: max(fwd.owd_ms) * 2 > min(fwd.owd_ms) + 100\n");
  EXPECT_TRUE(CodesWithPrefix(sink, "DL4").empty())
      << RenderDiagnostics(sink, "", "");
}

TEST(VerifyTest, Dl404FlagsDeadBranchWithoutKillingTheEvent) {
  DiagnosticSink sink = Verify(
      "event e: max(ue.inbound_fps) > 500 or max(fwd.owd_ms) > 100\n");
  const Diagnostic* d = FindCode(sink, "DL404");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("always false"), std::string::npos);
  EXPECT_NE(d->detail.find("[0, 120]"), std::string::npos);
  EXPECT_EQ(FindCode(sink, "DL401"), nullptr);  // the event can still fire
}

TEST(VerifyTest, Dl405ReportsShadowedChainWithImplicationDetail) {
  DiagnosticSink sink = Verify(
      "event mid: max(fwd.owd_ms) > 100\n"
      "event high: max(fwd.owd_ms) > 200\n"
      "chain a: cross_traffic -> mid -> target_bitrate_drop\n"
      "chain b: cross_traffic -> high -> target_bitrate_drop\n");
  const Diagnostic* d = FindCode(sink, "DL405");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("'b' is shadowed by chain 'a'"),
            std::string::npos);
  EXPECT_NE(d->detail.find("'high' implies 'mid'"), std::string::npos);
  EXPECT_EQ(d->span.line, 4);
}

TEST(VerifyTest, Dl405SilentWhenBandsOverlapOrOrderIsReversed) {
  // Weaker chain first, stronger second is the shadowed case; reversed
  // order means the later chain matches *more* windows — no shadow.
  DiagnosticSink reversed = Verify(
      "event mid: max(fwd.owd_ms) > 100\n"
      "event high: max(fwd.owd_ms) > 200\n"
      "chain a: cross_traffic -> high -> target_bitrate_drop\n"
      "chain b: cross_traffic -> mid -> target_bitrate_drop\n");
  EXPECT_EQ(FindCode(reversed, "DL405"), nullptr);

  // Overlapping but not nested bands: neither implies the other.
  DiagnosticSink overlap = Verify(
      "event mid: max(fwd.owd_ms) > 100 and min(fwd.owd_ms) < 300\n"
      "event high: max(fwd.owd_ms) > 200\n"
      "chain a: cross_traffic -> mid -> target_bitrate_drop\n"
      "chain b: cross_traffic -> high -> target_bitrate_drop\n");
  EXPECT_EQ(FindCode(overlap, "DL405"), nullptr);
}

TEST(VerifyTest, Dl406MismatchWarnsWithCanonicalFixit) {
  DiagnosticSink sink =
      Verify("event e requires dci: max(fwd.owd_ms) > 100\n");
  const Diagnostic* d = FindCode(sink, "DL406");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->fixit, "requires packets");
}

TEST(VerifyTest, Dl406UnknownStreamIsAnErrorWithSuggestion) {
  DiagnosticSink sink =
      Verify("event e requires dcii: max(fwd.owd_ms) > 100\n");
  const Diagnostic* d = FindCode(sink, "DL406");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->fixit, "dci");
  EXPECT_NE(d->message.find("did you mean 'dci'"), std::string::npos);
}

TEST(VerifyTest, Dl406SilentWhenDeclarationMatchesUse) {
  DiagnosticSink sink =
      Verify("event e requires packets: max(fwd.owd_ms) > 100\n");
  EXPECT_TRUE(CodesWithPrefix(sink, "DL4").empty())
      << RenderDiagnostics(sink, "", "");
}

TEST(VerifyTest, Dl407RespectsTheConfiguredWindow) {
  // Client stats arrive every 50 ms: a 5 s window holds 101 samples (fine),
  // a 500 ms window holds 11 — `count > 30` can then never fire.
  const std::string text = "event e: count(ue.inbound_fps) > 30\n";
  EXPECT_TRUE(CodesWithPrefix(Verify(text), "DL4").empty());

  VerifyOptions narrow;
  narrow.window_ms = 500.0;
  DiagnosticSink sink = Verify(text, narrow);
  const Diagnostic* d = FindCode(sink, "DL407");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("500 ms analysis window"), std::string::npos);
  EXPECT_EQ(FindCode(sink, "DL401"), nullptr);  // window, not schema
}

TEST(VerifyTest, Dl407NamesTheSampleBudgetForDeadComparisons) {
  DiagnosticSink sink = Verify(
      "event e: count(ue.inbound_fps) > 150 or max(fwd.owd_ms) > 100\n");
  const Diagnostic* d = FindCode(sink, "DL407");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("at most 101 samples of 'inbound_fps'"),
            std::string::npos);
  EXPECT_NE(d->message.find("cadence 50 ms"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Graph integration: DL406 declarations feed the detector's coverage masks
// ---------------------------------------------------------------------------

TEST(VerifyStreamTest, ExtendGraphFillsCustomStreamMasks) {
  using telemetry::StreamId;
  DiagnosticSink sink;
  DominoConfigFile cfg = ParseConfigChecked(
      "event declared requires packets: max(fwd.owd_ms) > 100\n"
      "event inferred: max(sender.target_bitrate) < 1000000\n"
      "chain c1: cross_traffic -> declared -> target_bitrate_drop\n"
      "chain c2: cross_traffic -> inferred -> target_bitrate_drop\n",
      sink);
  ASSERT_FALSE(sink.has_errors());

  CausalGraph g;
  ExtendGraph(g, cfg, EventThresholds{});

  int declared = g.FindNode("declared");
  ASSERT_GE(declared, 0);
  EXPECT_EQ(g.node(declared).streams[0], Bit(StreamId::kPackets));
  EXPECT_EQ(g.node(declared).streams[1], Bit(StreamId::kPackets));

  // Undeclared events get per-perspective inferred masks: `sender` is the
  // UE when analysing perspective 0 and the remote client for 1.
  int inferred = g.FindNode("inferred");
  ASSERT_GE(inferred, 0);
  EXPECT_EQ(g.node(inferred).streams[0], Bit(StreamId::kStatsUe));
  EXPECT_EQ(g.node(inferred).streams[1], Bit(StreamId::kStatsRemote));

  // Built-in nodes carry the masks inferred from their prelude entries.
  int builtin = g.FindNode("cross_traffic");
  ASSERT_GE(builtin, 0);
  EXPECT_EQ(g.node(builtin).streams[0], Bit(StreamId::kDci));
  EXPECT_EQ(g.node(builtin).streams[1], Bit(StreamId::kDci));
}

// ---------------------------------------------------------------------------
// Wire format and fixture soundness
// ---------------------------------------------------------------------------

TEST(VerifyJsonTest, Dl4xxJsonSchemaIsStable) {
  LintResult res = LintConfigText(
      "event always_on: max(fwd.mcs) <= 28\n"
      "chain c: cross_traffic -> always_on -> target_bitrate_drop\n");
  EXPECT_EQ(
      FormatDiagnosticsJson(res.sink),
      "{\"diagnostics\":[\n"
      "  {\"code\":\"DL402\",\"severity\":\"warning\",\"line\":1,"
      "\"col\":18,\"length\":18,\"message\":\"event 'always_on' is a "
      "tautology: it fires on every window, so it carries no diagnostic "
      "signal\",\"fixit\":\"\",\"detail\":\"abstract value over the "
      "declared schema is [1, 1]\"}\n"
      "],\"errors\":0,\"warnings\":1}\n");
}

TEST(VerifyJsonTest, FixitAndDetailSurviveJsonEscaping) {
  LintResult res = LintConfigText(
      "event e requires dci: max(fwd.owd_ms) > 100\n"
      "chain c: cross_traffic -> e -> target_bitrate_drop\n");
  std::string json = FormatDiagnosticsJson(res.sink);
  EXPECT_NE(json.find("\"code\":\"DL406\""), std::string::npos);
  EXPECT_NE(json.find("\"fixit\":\"requires packets\""), std::string::npos);
  EXPECT_NE(json.find("\"detail\":\"inferred from the series"),
            std::string::npos);
}

TEST(VerifyFixtureTest, NearMissConfigStaysCompletelyClean) {
  // examples/configs/verified.domino is the near-miss twin of every bad/
  // dl4xx fixture: each condition sits just inside the boundary its twin
  // crosses. One diagnostic here is a false positive by construction.
  std::string text = ReadFile(std::string(DOMINO_SOURCE_DIR) +
                              "/examples/configs/verified.domino");
  LintResult res = LintConfigText(text);
  EXPECT_TRUE(res.sink.empty())
      << RenderDiagnostics(res.sink, text, "verified.domino");
}

TEST(VerifyFixtureTest, ExtendedExampleHasNoFalsePositives) {
  std::string text = ReadFile(std::string(DOMINO_SOURCE_DIR) +
                              "/examples/configs/extended.domino");
  LintResult res = LintConfigText(text);
  EXPECT_TRUE(res.sink.empty())
      << RenderDiagnostics(res.sink, text, "extended.domino");
}

}  // namespace
}  // namespace domino::analysis::lint
