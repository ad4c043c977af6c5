#include <gtest/gtest.h>

#include "src/model/disk_model.h"
#include "src/model/scripts.h"

namespace cedar::model {
namespace {

class DiskModelTest : public ::testing::Test {
 protected:
  DiskModelTest() : model_(sim::DiskGeometry{}, sim::DiskTimingParams{}) {}
  DiskModel model_;
};

TEST_F(DiskModelTest, PrimitivesSane) {
  EXPECT_EQ(model_.Revolution(), 16667u);
  EXPECT_EQ(model_.Latency(), 16667u / 2);
  EXPECT_EQ(model_.SectorTime(), 16667u / 28);
  // Average seek lies between the single-cylinder and full-stroke times.
  EXPECT_GT(model_.AverageSeek(), 4000u);
  EXPECT_LT(model_.AverageSeek(), 60000u);
  EXPECT_LT(model_.ShortSeek(), model_.AverageSeek());
}

TEST_F(DiskModelTest, EvaluateSumsSteps) {
  OpScript script;
  script.Latency().Transfer(2).Cpu(1000);
  EXPECT_EQ(model_.Evaluate(script),
            model_.Latency() + 2 * model_.SectorTime() + 1000);
}

TEST_F(DiskModelTest, RevMinusClampsAtZero) {
  OpScript script;
  script.RevMinus(1000);  // more sector times than a revolution
  EXPECT_EQ(model_.Evaluate(script), 0u);
}

TEST_F(DiskModelTest, SeekToFractionIsWorstAtTheEdges) {
  // A target at the edge is on average farther from a random head position
  // than a target at the center.
  EXPECT_GT(model_.SeekToFraction(0), model_.SeekToFraction(500));
  EXPECT_GT(model_.SeekToFraction(1000), model_.SeekToFraction(500));
  // Symmetric.
  const auto lo = static_cast<double>(model_.SeekToFraction(100));
  const auto hi = static_cast<double>(model_.SeekToFraction(900));
  EXPECT_NEAR(lo, hi, lo * 0.02);
}

TEST_F(DiskModelTest, WeightedAverage) {
  OpScript hit;
  hit.Cpu(1000);
  OpScript miss;
  miss.Cpu(3000);
  WeightedScript weighted{.hit = hit, .miss = miss, .hit_probability = 0.75};
  EXPECT_DOUBLE_EQ(model_.EvaluateWeighted(weighted), 1500.0);
}

TEST_F(DiskModelTest, RelativeError) {
  EXPECT_DOUBLE_EQ(DiskModel::RelativeError(105, 100), 0.05);
  EXPECT_DOUBLE_EQ(DiskModel::RelativeError(95, 100), 0.05);
  EXPECT_DOUBLE_EQ(DiskModel::RelativeError(1, 0), 0.0);
}

TEST_F(DiskModelTest, SmallFilesSitJustBelowTheCentralComplex) {
  const std::uint32_t permille =
      FsdSmallFilePermille(sim::DiskGeometry{}, core::FsdConfig{});
  EXPECT_LT(permille, 500u);
  EXPECT_GT(permille, 400u);
}

TEST_F(DiskModelTest, ScriptsReproducePaperOrdering) {
  CpuParams cpu;
  const std::uint32_t data =
      FsdSmallFilePermille(sim::DiskGeometry{}, core::FsdConfig{});
  // FSD's synchronous create is far cheaper than CFS's label dance.
  EXPECT_LT(model_.Evaluate(FsdCreate(2, data, cpu)),
            model_.Evaluate(CfsCreate(2, cpu)) / 2);
  // FSD open (cached) is dramatically cheaper than a CFS header read.
  EXPECT_LT(model_.Evaluate(FsdOpenHit(cpu)) * 10,
            model_.Evaluate(CfsOpen(cpu)));
  // Read page: same hardware and one transfer, but FSD's small files sit
  // next to the central name table while CFS's start at the front of the
  // disk, so FSD's average seek is shorter.
  EXPECT_LT(model_.Evaluate(FsdReadPage(data, cpu)),
            model_.Evaluate(CfsReadPage(cpu)));
  // Deletes: FSD needs no I/O at all.
  EXPECT_LT(model_.Evaluate(FsdDelete(cpu)) * 20,
            model_.Evaluate(CfsDelete(2, cpu)));
}

TEST_F(DiskModelTest, CreateScalesWithFileSize) {
  CpuParams cpu;
  const std::uint32_t data =
      FsdSmallFilePermille(sim::DiskGeometry{}, core::FsdConfig{});
  EXPECT_GT(model_.Evaluate(CfsCreate(100, cpu)),
            model_.Evaluate(CfsCreate(1, cpu)));
  EXPECT_GT(model_.Evaluate(FsdCreate(100, data, cpu)),
            model_.Evaluate(FsdCreate(1, data, cpu)));
}

}  // namespace
}  // namespace cedar::model
