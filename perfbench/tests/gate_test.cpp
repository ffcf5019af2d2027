// Self-test of the benchmark's correctness gate: it accepts the recorded
// repetition and rejects a wrong digest, a lost frame, a NaN and a failed
// sweep point.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace mdwf;

class GateTest : public ::testing::Test {
 protected:
  // A fresh jac-dyad repetition at the recorded seed (RepOutcome is
  // move-only, so each test mutates its own).
  workflow::RepOutcome outcome() const {
    return workflow::run_repetition(prepared_.ensemble, 0);
  }

  std::string gate(const workflow::RepOutcome& o,
                   std::optional<std::uint32_t> digest) const {
    return gate_error("jac-dyad", check_outcome(o, prepared_.frames_expected),
                      digest);
  }

  const Prepared prepared_ = prepare("jac-dyad", kRecordedSeed);
};

TEST_F(GateTest, AcceptsTheRecordedRepetition) {
  EXPECT_EQ(gate(outcome(), recorded_digest("jac-dyad", kRecordedSeed)), "");
}

TEST_F(GateTest, RejectsAWrongRecordedDigest) {
  const std::uint32_t wrong = *recorded_digest("jac-dyad", kRecordedSeed) ^ 1;
  const std::string err = gate(outcome(), wrong);
  EXPECT_NE(err.find("jac-dyad"), std::string::npos) << err;
  EXPECT_NE(err.find("digest"), std::string::npos) << err;
}

TEST_F(GateTest, RejectsALostFrame) {
  workflow::RepOutcome o = outcome();
  o.counters.set("frames_consumed", o.counters.get("frames_consumed") - 1);
  o.counters.set("frames_lost", 1);
  const std::string err = gate(o, std::nullopt);
  EXPECT_NE(err.find("jac-dyad"), std::string::npos) << err;
  EXPECT_NE(err.find("frames"), std::string::npos) << err;
}

TEST_F(GateTest, RejectsANaN) {
  workflow::RepOutcome o = outcome();
  o.cons_idle_us = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(gate(o, std::nullopt).find("NaN"), std::string::npos);
  workflow::RepOutcome inf = outcome();
  inf.cons_fetch_us.add(std::numeric_limits<double>::infinity());
  EXPECT_NE(gate(inf, std::nullopt), "");
}

TEST_F(GateTest, DigestCoversEverySimulatedOutput) {
  const std::uint32_t base = check_outcome(outcome(), 0).digest;
  workflow::RepOutcome makespan = outcome();
  makespan.makespan_s = std::nextafter(makespan.makespan_s, 1e300);
  EXPECT_NE(check_outcome(makespan, 0).digest, base);
  workflow::RepOutcome counter = outcome();
  counter.counters.add("sim_events", 1);
  EXPECT_NE(check_outcome(counter, 0).digest, base);
}

TEST(GateSweepTest, RejectsAFailedSweepPoint) {
  sweep::SweepResult swept;
  sweep::PointResult failed;
  failed.error_text.assign(4, 'x');
  swept.points.push_back(std::move(failed));
  const std::string err =
      gate_error("advise-dag", check_sweep(swept, 0), std::nullopt);
  EXPECT_NE(err.find("advise-dag"), std::string::npos) << err;
  EXPECT_NE(err.find("sweep point"), std::string::npos) << err;
}

TEST(GateSeedTest, OnlyTheRecordedSeedHasADigest) {
  for (const std::string_view w : kWorkloadNames) {
    EXPECT_TRUE(recorded_digest(w, kRecordedSeed).has_value()) << w;
    EXPECT_FALSE(recorded_digest(w, kRecordedSeed + 1).has_value()) << w;
  }
}

}  // namespace
}  // namespace perfbench
