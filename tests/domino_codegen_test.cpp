// Tests for Python code generation (Fig. 11): structural checks on the
// emitted module, plus execution tests that run the generated detectors
// under python3 (skipped if no interpreter is available): a hand-made
// window pair, and every built-in on the parity traces against C++.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "domino/codegen.h"
#include "domino/prelude.h"
#include "parity_fixture.h"
#include "test_scratch.h"

namespace domino::analysis {
namespace {

DominoConfigFile ExampleConfig() {
  return ParseConfigText(R"(
event delay_surge: max(fwd.owd_ms) > 200 and trend_up(fwd.owd_ms)
chain surge_chain: cross_traffic -> tbs_drop -> delay_surge -> target_bitrate_drop
chain rev_chain: harq_retx@rev -> rev_delay_up -> pushback_drop
)");
}

TEST(CodegenTest, EmitsDetectorsForAllNodes) {
  std::string py = GeneratePython(ExampleConfig());
  EXPECT_NE(py.find("def detect_delay_surge(w):"), std::string::npos);
  EXPECT_NE(py.find("def detect_cross_traffic(w):"), std::string::npos);
  EXPECT_NE(py.find("def detect_tbs_drop(w):"), std::string::npos);
  EXPECT_NE(py.find("def detect_target_bitrate_drop(w):"), std::string::npos);
  // @rev node gets a sanitised function name and rev-scoped series.
  EXPECT_NE(py.find("def detect_harq_retx_rev(w):"), std::string::npos);
  EXPECT_NE(py.find("w[\"rev.harq_retx\"]"), std::string::npos);
}

TEST(CodegenTest, EmitsChainTable) {
  std::string py = GeneratePython(ExampleConfig());
  EXPECT_NE(py.find("(\"surge_chain\", [\"cross_traffic\", \"tbs_drop\", "
                    "\"delay_surge\", \"target_bitrate_drop\"])"),
            std::string::npos);
  EXPECT_NE(py.find("DETECTORS = {"), std::string::npos);
  EXPECT_NE(py.find("def analyze(windows):"), std::string::npos);
}

TEST(CodegenTest, CustomExpressionInlined) {
  std::string py = GeneratePython(ExampleConfig());
  EXPECT_NE(py.find("dsl_max(w[\"fwd.owd_ms\"]) > 200"), std::string::npos);
}

/// A config whose chains reference every built-in on both legs.
DominoConfigFile AllBuiltinsConfig() {
  std::string text;
  for (const std::string& name : KnownEventNames()) {
    text += "chain c_" + name + ": " + name + " -> " + name + "@rev\n";
  }
  return ParseConfigText(text);
}

bool HasPython() {
  return std::system("python3 -c 'pass' > /dev/null 2>&1") == 0;
}

/// Runs `py` under python3; returns its exit code and combined output.
int RunPython(const std::string& py, std::string* output) {
  const std::string dir = testing_scratch::FreshDir("codegen");
  const std::string path = dir + "/domino_codegen.py";
  std::ofstream(path) << py;
  const std::string cmd =
      "python3 " + path + " > " + path + ".out 2>&1";
  const int rc = std::system(cmd.c_str());
  std::ifstream out(path + ".out");
  output->assign(std::istreambuf_iterator<char>(out),
                 std::istreambuf_iterator<char>());
  return rc;
}

TEST(CodegenTest, ThresholdsSubstituted) {
  EventThresholds th;
  th.harq_retx_count = 25;
  std::string py = GeneratePython(
      ParseConfigText("chain c: harq_retx -> jitter_buffer_drain\n"), th);
  EXPECT_NE(py.find("(dsl_count(w[\"fwd.harq_retx\"]) > 25)"),
            std::string::npos)
      << py;
}

TEST(CodegenTest, EveryBuiltinHasPython) {
  // Each built-in is emitted from its prelude entry; a leg-scoped one
  // reads rev series on its @rev node.
  const std::string py = GeneratePython(AllBuiltinsConfig());
  const Prelude& prelude = Prelude::For(EventThresholds{});
  for (const std::string& name : KnownEventNames()) {
    const EventType type = *EventTypeFromName(name);
    for (PathLeg leg : {PathLeg::kFwd, PathLeg::kRev}) {
      const std::string node =
          name + (leg == PathLeg::kRev ? "@rev" : "");
      EXPECT_NE(py.find("return bool(" +
                        prelude.Get(EventRef{type, leg}).expr().ToPython() +
                        ")"),
                std::string::npos)
          << node;
    }
  }
  EXPECT_NE(py.find("w[\"rev.tbs\"]"), std::string::npos);
}

TEST(CodegenTest, GeneratedPythonExecutes) {
  if (!HasPython()) GTEST_SKIP() << "python3 not available";
  std::string py = GeneratePython(ExampleConfig());
  // Drive the module with two windows: one where the surge chain is fully
  // active and one quiet window; assert analyze() flags exactly window 0.
  py += R"PY(

def _mkwindow(active):
    w = {}
    keys = ["fwd.owd_ms", "fwd.prb_self", "fwd.prb_other", "fwd.tbs",
            "fwd.app_bitrate", "fwd.tbs_bitrate", "rev.harq_retx",
            "rev.owd_ms", "sender.target_bitrate", "sender.pushback_rate"]
    for k in keys:
        w[k] = []
    if active:
        w["fwd.owd_ms"] = [30.0 + i * 3 for i in range(100)]
        w["fwd.prb_self"] = [5.0] * 100
        w["fwd.prb_other"] = [50.0] * 100
        w["fwd.tbs"] = [1000.0] * 50 + [300.0] * 50
        w["fwd.app_bitrate"] = [2e6] * 100
        w["fwd.tbs_bitrate"] = [1e6 if i % 5 == 0 else 4e6 for i in range(100)]
        w["sender.target_bitrate"] = [2e6] * 50 + [1e6] * 50
    else:
        w["fwd.owd_ms"] = [30.0] * 100
        w["fwd.prb_self"] = [5.0] * 100
        w["fwd.prb_other"] = [0.0] * 100
        w["fwd.tbs"] = [1000.0] * 100
        w["fwd.app_bitrate"] = [2e6] * 100
        w["fwd.tbs_bitrate"] = [4e6] * 100
        w["sender.target_bitrate"] = [2e6] * 100
    return w

hits = analyze([_mkwindow(True), _mkwindow(False)])
assert ((0, "surge_chain") in hits), hits
assert not any(i == 1 for i, _ in hits), hits
print("CODEGEN_OK")
)PY";
  std::string output;
  EXPECT_EQ(RunPython(py, &output), 0) << output;
  EXPECT_NE(output.find("CODEGEN_OK"), std::string::npos) << output;
}

/// The series the exported windows carry, by DSL name.
using telemetry::ClientSeries;
using telemetry::DirectionSeries;
const std::pair<const char*, TimeSeries<double> DirectionSeries::*>
    kDirSeries[] = {
        {"tbs", &DirectionSeries::tbs_bytes},
        {"prb_self", &DirectionSeries::prb_self},
        {"prb_other", &DirectionSeries::prb_other},
        {"mcs", &DirectionSeries::mcs},
        {"harq_retx", &DirectionSeries::harq_retx},
        {"rlc_retx", &DirectionSeries::rlc_retx},
        {"owd_ms", &DirectionSeries::owd_ms},
        {"app_bitrate", &DirectionSeries::app_bitrate_bps},
        {"tbs_bitrate", &DirectionSeries::tbs_bitrate_bps},
        {"rnti", &DirectionSeries::rnti},
};
const std::pair<const char*, TimeSeries<double> ClientSeries::*>
    kClientSeries[] = {
        {"inbound_fps", &ClientSeries::inbound_fps},
        {"outbound_fps", &ClientSeries::outbound_fps},
        {"outbound_resolution", &ClientSeries::outbound_resolution},
        {"jitter_buffer_ms", &ClientSeries::jitter_buffer_ms},
        {"target_bitrate", &ClientSeries::target_bitrate_bps},
        {"pushback_rate", &ClientSeries::pushback_bitrate_bps},
        {"outstanding_bytes", &ClientSeries::outstanding_bytes},
        {"cwnd_bytes", &ClientSeries::cwnd_bytes},
        {"overuse", &ClientSeries::overuse},
};

/// Appends one series to the JSON fixture as [[time_us...], [value...]].
void AppendSeries(std::ostringstream& os, const TimeSeries<double>& s) {
  os << "[[";
  for (std::size_t i = 0; i < s.size(); ++i) {
    os << (i ? "," : "") << s[i].time.micros();
  }
  os << "],[";
  char buf[32];
  for (std::size_t i = 0; i < s.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", s[i].value);
    os << (i ? "," : "") << buf;
  }
  os << "]]";
}

TEST(CodegenTest, GeneratedPythonMatchesCppForEveryBuiltin) {
  if (!HasPython()) GTEST_SKIP() << "python3 not available";
  const EventThresholds th;
  const DominoConfigFile cfg = AllBuiltinsConfig();
  std::string py = GeneratePython(cfg, th);

  // Export every window of the parity traces: the scoped series and their
  // times, per perspective, as the `w` dicts the module documents.
  std::ostringstream js;
  js << "[";
  const auto& traces = parity::Traces();
  for (std::size_t k = 0; k < traces.size(); ++k) {
    const telemetry::DerivedTrace& t = traces[k];
    js << (k ? "," : "") << "{\"gnb\":" << (t.has_gnb_log ? "true" : "false")
       << ",\"begins\":[";
    const std::vector<Time> begins = parity::WindowBegins(t);
    for (std::size_t i = 0; i < begins.size(); ++i) {
      js << (i ? "," : "") << begins[i].micros();
    }
    js << "],\"dir\":[";
    for (int d = 0; d < 2; ++d) {
      js << (d ? "," : "") << "{";
      bool first = true;
      for (const auto& [name, member] : kDirSeries) {
        js << (first ? "" : ",") << "\"" << name << "\":";
        AppendSeries(js, t.dir[static_cast<std::size_t>(d)].*member);
        first = false;
      }
      js << "}";
    }
    js << "],\"client\":[";
    for (int c = 0; c < 2; ++c) {
      js << (c ? "," : "") << "{";
      bool first = true;
      for (const auto& [name, member] : kClientSeries) {
        js << (first ? "" : ",") << "\"" << name << "\":";
        AppendSeries(js, t.client[static_cast<std::size_t>(c)].*member);
        first = false;
      }
      js << "}";
    }
    js << "]}";
  }
  js << "]";
  const std::string json_path =
      testing_scratch::FreshDir("codegen_fixture") + "/windows.json";
  std::ofstream(json_path) << js.str();

  py += R"PY(
import bisect, json

def _slice(series, b, e):
    times, values = series
    lo = bisect.bisect_left(times, b)
    hi = bisect.bisect_left(times, e)
    return values[lo:hi], [x - b for x in times[lo:hi]]

for k, tr in enumerate(json.load(open(")PY" + json_path + R"PY("))):
    for j, b in enumerate(tr["begins"]):
        e = b + 5000000
        for p in (0, 1):
            fwd = 0 if p == 0 else 1
            scopes = {"fwd": tr["dir"][fwd], "rev": tr["dir"][1 - fwd],
                      "sender": tr["client"][p],
                      "receiver": tr["client"][1 - p]}
            w = {"fwd.is_uplink": fwd == 0, "rev.is_uplink": fwd == 1,
                 "has_gnb_log": tr["gnb"]}
            for scope, series in scopes.items():
                for name, s in series.items():
                    v, t = _slice(s, b, e)
                    w[scope + "." + name] = v
                    w[scope + "." + name + "@t"] = t
            bits = "".join("1" if DETECTORS[n](w) else "0"
                           for n in sorted(DETECTORS))
            print(k, j, p, bits)
)PY";
  std::string output;
  ASSERT_EQ(RunPython(py, &output), 0) << output.substr(0, 2000);

  std::vector<std::string> nodes;  // sorted, as the script iterates
  for (const auto& chain : cfg.chains) {
    nodes.insert(nodes.end(), chain.nodes.begin(), chain.nodes.end());
  }
  std::sort(nodes.begin(), nodes.end());
  std::map<std::string, long> fired;
  std::istringstream lines(output);
  std::size_t k = 0, j = 0;
  int p = 0;
  std::string bits;
  long windows = 0;
  while (lines >> k >> j >> p >> bits) {
    ASSERT_LT(k, traces.size());
    const telemetry::DerivedTrace& t = traces[k];
    const Time begin = parity::WindowBegins(t).at(j);
    const WindowContext ctx(t, begin, begin + Seconds(5), p);
    ASSERT_EQ(bits.size(), nodes.size());
    for (std::size_t n = 0; n < nodes.size(); ++n) {
      auto [base, leg] = SplitNodeLeg(nodes[n]);
      const bool cpp =
          DetectEvent(EventRef{*EventTypeFromName(base), leg}, ctx, th);
      EXPECT_EQ(bits[n] == '1', cpp)
          << nodes[n] << " trace " << k << " window " << j
          << " perspective " << p;
      if (cpp) ++fired[nodes[n]];
    }
    ++windows;
  }
  std::size_t expected_windows = 0;
  for (const auto& t : traces) {
    expected_windows += 2 * parity::WindowBegins(t).size();
  }
  EXPECT_EQ(static_cast<std::size_t>(windows), expected_windows)
      << output.substr(0, 2000);
  for (const std::string& name : KnownEventNames()) {
    EXPECT_GT(fired[name], 0) << name << " never fired";
  }
}

}  // namespace
}  // namespace domino::analysis
