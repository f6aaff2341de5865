// Unit tests for the simulation primitives: virtual clocks and cost models.
#include <gtest/gtest.h>

#include "sim/clock.hpp"
#include "sim/cost_model.hpp"

namespace cbmpi::sim {
namespace {

TEST(Clock, AdvancesMonotonically) {
  VirtualClock clock;
  EXPECT_DOUBLE_EQ(clock.now(), 0.0);
  clock.advance(1.5);
  clock.advance(0.5);
  EXPECT_DOUBLE_EQ(clock.now(), 2.0);
}

TEST(Clock, AdvanceToNeverGoesBack) {
  VirtualClock clock;
  clock.advance(10.0);
  clock.advance_to(5.0);
  EXPECT_DOUBLE_EQ(clock.now(), 10.0);
  clock.advance_to(12.0);
  EXPECT_DOUBLE_EQ(clock.now(), 12.0);
}

TEST(Clock, NegativeAdvanceThrows) {
  VirtualClock clock;
  EXPECT_THROW(clock.advance(-1.0), Error);
}

TEST(Clock, Reset) {
  VirtualClock clock;
  clock.advance(3.0);
  clock.reset();
  EXPECT_DOUBLE_EQ(clock.now(), 0.0);
}

TEST(CostModel, FlatAlphaBeta) {
  const auto model = CostModel::flat(2.0, 100.0);
  EXPECT_DOUBLE_EQ(model.cost(0), 2.0);
  EXPECT_DOUBLE_EQ(model.cost(1000), 2.0 + 10.0);
}

TEST(CostModel, PiecewiseSegments) {
  const CostModel model({{1024, 1.0, 1000.0}, {CostModel::unbounded(), 5.0, 2000.0}});
  EXPECT_DOUBLE_EQ(model.cost(512), 1.0 + 512.0 / 1000.0);
  EXPECT_DOUBLE_EQ(model.cost(2048), 5.0 + 2048.0 / 2000.0);
  // Boundary: size == 1024 belongs to the second segment (upto is exclusive).
  EXPECT_DOUBLE_EQ(model.cost(1024), 5.0 + 1024.0 / 2000.0);
}

TEST(CostModel, EffectiveBandwidthApproachesBeta) {
  const auto model = CostModel::flat(1.0, 500.0);
  EXPECT_LT(model.effective_bandwidth(64), 500.0);
  EXPECT_NEAR(model.effective_bandwidth(10'000'000), 500.0, 5.0);
}

TEST(CostModel, ValidationRejectsBadSegments) {
  EXPECT_THROW(CostModel(std::vector<CostSegment>{}), Error);
  EXPECT_THROW(CostModel(std::vector<CostSegment>{{100, 0.0, 10.0}}),
               Error);  // does not cover all sizes
  EXPECT_THROW(CostModel(std::vector<CostSegment>{
                   {100, 0.0, -1.0}, {CostModel::unbounded(), 0.0, 10.0}}),
               Error);
}

TEST(ComputeModel, LinearInOps) {
  const ComputeModel model{2000.0, 1.0};
  EXPECT_DOUBLE_EQ(model.cost(0.0), 1.0);
  EXPECT_DOUBLE_EQ(model.cost(4000.0), 3.0);
}

}  // namespace
}  // namespace cbmpi::sim
