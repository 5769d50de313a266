// Property test: every built-in condition, now a DSL prelude entry
// (prelude.h), agrees with the hand-written C++ detector it replaced
// (parity_fixture.h's Oracle) on every window of the simulated parity
// traces — on the naive and the incremental engine, from both perspectives
// and on both legs. Each event must fire somewhere, or the sweep proves
// nothing.
#include <gtest/gtest.h>

#include "domino/incremental.h"
#include "domino/prelude.h"
#include "parity_fixture.h"

namespace domino::analysis {
namespace {

// The first nine keep the indices they had when only the conditions the
// DSL could then express were checked.
constexpr EventType kTypes[] = {
    EventType::kJitterBufferDrain, EventType::kGccOveruse,
    EventType::kTbsDrop,           EventType::kRateGap,
    EventType::kCrossTraffic,      EventType::kHarqRetx,
    EventType::kFwdDelayUp,        EventType::kRevDelayUp,
    EventType::kRrcChange,         EventType::kInboundFpsDrop,
    EventType::kOutboundFpsDrop,   EventType::kResolutionDrop,
    EventType::kTargetBitrateDrop, EventType::kPushbackDrop,
    EventType::kCwndFull,          EventType::kOutstandingUp,
    EventType::kPushbackNeqTarget, EventType::kChannelDegrade,
    EventType::kRlcRetx,           EventType::kUlScheduling,
};
static_assert(std::size(kTypes) == 20);

class DslParityTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DslParityTest, MatchesBuiltinOnSimulatedTrace) {
  const EventType type = kTypes[GetParam()];
  const EventThresholds th;
  long positives = 0;
  for (const telemetry::DerivedTrace& trace : parity::Traces()) {
    WindowStatsCache cache(trace);
    for (Time t : parity::WindowBegins(trace)) {
      const Time end = t + Seconds(5);
      cache.BeginWindow(t, end);
      for (int p = 0; p < 2; ++p) {
        const WindowContext naive(trace, t, end, p);
        const WindowContext incremental(trace, t, end, p, &cache);
        for (PathLeg leg : {PathLeg::kFwd, PathLeg::kRev}) {
          const EventRef ref{type, leg};
          const bool oracle = parity::Oracle(ref, naive, th);
          EXPECT_EQ(DetectEvent(ref, naive, th), oracle)
              << ToString(ref) << " naive at " << ToString(t)
              << " perspective " << p << ": "
              << Prelude::For(th).text(type);
          EXPECT_EQ(DetectEvent(ref, incremental, th), oracle)
              << ToString(ref) << " incremental at " << ToString(t)
              << " perspective " << p;
          if (oracle) ++positives;
        }
      }
    }
  }
  EXPECT_GT(positives, 0) << ToString(type)
                          << " never fired; fixture too tame";
}

INSTANTIATE_TEST_SUITE_P(
    Builtins, DslParityTest,
    ::testing::Range<std::size_t>(0, std::size(kTypes)),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return ToString(kTypes[info.param]);
    });

}  // namespace
}  // namespace domino::analysis
