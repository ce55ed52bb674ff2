#include "model/memory_model.h"

#include <gtest/gtest.h>

#include "model/zoo.h"

namespace fela::model {
namespace {

class MemoryModelTest : public ::testing::Test {
 protected:
  MemoryModelTest() : mem_(sim::Calibration::Default()) {}
  MemoryModel mem_;
};

TEST_F(MemoryModelTest, Vgg19FitsAtBatch32ButNotAt64) {
  // Paper footnote 3: "while training a complete VGG19 model with
  // PyTorch on Tesla K40c GPU, the batch size larger than 32 has
  // exceeded the GPU memory."
  Model m = zoo::Vgg19();
  EXPECT_TRUE(mem_.FitsModel(m, 32));
  EXPECT_FALSE(mem_.FitsModel(m, 64));
}

TEST_F(MemoryModelTest, MaxBatchBetween32And64ForVgg19) {
  Model m = zoo::Vgg19();
  const int max = mem_.MaxBatchForModel(m);
  EXPECT_GE(max, 32);
  EXPECT_LT(max, 64);
}

TEST_F(MemoryModelTest, BytesGrowLinearlyWithBatch) {
  Model m = zoo::Vgg19();
  const double b32 = mem_.BytesForModel(m, 32);
  const double b64 = mem_.BytesForModel(m, 64);
  const double param_bytes = m.TotalParams() * 3 * 4;
  EXPECT_NEAR(b64 - param_bytes, 2 * (b32 - param_bytes), 1.0);
}

TEST_F(MemoryModelTest, SubRangesNeedLessMemory) {
  Model m = zoo::Vgg19();
  EXPECT_LT(mem_.BytesForRange(m, 0, 7, 32), mem_.BytesForModel(m, 32));
  EXPECT_LT(mem_.BytesForRange(m, 16, 18, 32), mem_.BytesForModel(m, 32));
}

TEST_F(MemoryModelTest, SubModelsAllowLargerBatches) {
  // The flexible-parallelism premise: a worker holding only a sub-model
  // can afford much larger batches than one holding the full model.
  Model m = zoo::Vgg19();
  EXPECT_GT(mem_.MaxBatchForRange(m, 16, 18),
            4 * mem_.MaxBatchForModel(m));
}

TEST_F(MemoryModelTest, GoogLeNetFitsComfortably) {
  Model g = zoo::GoogLeNet();
  EXPECT_TRUE(mem_.FitsModel(g, 1024));
  EXPECT_GT(mem_.MaxBatchForModel(g), 1024);
}

TEST_F(MemoryModelTest, FitsIsConsistentWithMaxBatch) {
  Model m = zoo::Vgg19();
  const int max = mem_.MaxBatchForModel(m);
  EXPECT_TRUE(mem_.FitsModel(m, max));
  EXPECT_FALSE(mem_.FitsModel(m, max + 1));
}

TEST_F(MemoryModelTest, AccumulationSplitIsTheFewestFittingSteps) {
  Model m = zoo::Vgg19();
  const int max = mem_.MaxBatchForModel(m);
  const auto fits = mem_.SplitForModel(m, 20.0);
  EXPECT_EQ(fits.steps, 1);
  EXPECT_EQ(fits.micro_batch, 20.0);
  const auto exact = mem_.SplitForModel(m, static_cast<double>(max));
  EXPECT_EQ(exact.steps, 1);
  const auto over = mem_.SplitForModel(m, static_cast<double>(max) + 1.0);
  EXPECT_EQ(over.steps, 2);
  EXPECT_EQ(over.micro_batch, (static_cast<double>(max) + 1.0) / 2.0);
  const auto large = mem_.SplitForModel(m, 5.0 * max);
  EXPECT_EQ(large.steps, 5);
  EXPECT_LE(large.micro_batch, static_cast<double>(max));
}

TEST_F(MemoryModelTest, OversizedModelReportsZero) {
  // A model whose parameters alone exceed device memory.
  std::vector<Layer> layers;
  layers.push_back(Layer::Fc("huge", 65536, 65536));  // 4.3B params * 12B
  Model m("huge", std::move(layers));
  EXPECT_EQ(mem_.MaxBatchForModel(m), 0);
  EXPECT_FALSE(mem_.FitsModel(m, 1));
}

}  // namespace
}  // namespace fela::model
