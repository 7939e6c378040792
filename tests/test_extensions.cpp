// Tests for the artifact-workflow extensions: binary vector I/O (the
// -s flag) and the matvec/host-I/O overlap driver (§4.2.2 closing
// remark).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "core/block_toeplitz.hpp"
#include "core/matvec_plan.hpp"
#include "core/sequence_driver.hpp"
#include "core/synthetic.hpp"
#include "device/device_spec.hpp"
#include "util/io.hpp"
#include "util/rng.hpp"

namespace fftmv {
namespace {

// ------------------------------------------------------------- io
class IoFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fftmv_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(IoFixture, RoundTripPreservesBits) {
  util::Rng rng(1);
  std::vector<double> v(1000);
  util::fill_uniform_unrepresentable(rng, v.data(), 1000);
  const auto path = (dir_ / "vec.bin").string();
  util::save_vector(path, v);
  const auto back = util::load_vector(path);
  EXPECT_EQ(back, v);
}

TEST_F(IoFixture, EmptyVector) {
  const auto path = (dir_ / "empty.bin").string();
  util::save_vector(path, {});
  EXPECT_TRUE(util::load_vector(path).empty());
}

TEST_F(IoFixture, MissingFileThrows) {
  EXPECT_THROW(util::load_vector((dir_ / "nope.bin").string()),
               std::runtime_error);
}

TEST_F(IoFixture, BadMagicThrows) {
  const auto path = (dir_ / "bad.bin").string();
  std::ofstream(path) << "garbage that is not a vector file";
  EXPECT_THROW(util::load_vector(path), std::runtime_error);
}

TEST_F(IoFixture, TruncatedPayloadThrows) {
  const auto path = (dir_ / "trunc.bin").string();
  util::save_vector(path, std::vector<double>(64, 1.0));
  std::filesystem::resize_file(path, 64);  // chop the payload
  EXPECT_THROW(util::load_vector(path), std::runtime_error);
}

// -------------------------------------------------- sequence driver
struct DriverFixture : public ::testing::Test {
  device::Device dev{device::make_mi300x()};
  device::Stream stream{dev};
  core::ProblemDims dims{64, 4, 16};
  core::LocalDims local = core::LocalDims::single_rank(dims);
  std::vector<double> col = core::make_first_block_col(local, 5);
  core::BlockToeplitzOperator op{dev, stream, local, col};
  core::FftMatvecPlan plan{dev, stream, local};
};

TEST_F(DriverFixture, ProducesSameOutputsAsDirectCalls) {
  core::MatvecSequenceDriver driver(plan, op);
  std::vector<std::vector<double>> outputs;
  const index_t count = 4;
  auto gen = [&](index_t i, std::span<double> m) {
    util::Rng rng(100 + static_cast<std::uint64_t>(i));
    util::fill_uniform(rng, m.data(), static_cast<index_t>(m.size()));
  };
  auto consume = [&](index_t, std::span<const double> d) {
    outputs.emplace_back(d.begin(), d.end());
  };
  const auto report = driver.run_forward(count, gen, consume,
                                         precision::PrecisionConfig{});
  ASSERT_EQ(outputs.size(), static_cast<std::size_t>(count));
  EXPECT_EQ(report.applies, count);

  for (index_t i = 0; i < count; ++i) {
    std::vector<double> m(static_cast<std::size_t>(dims.n_t * dims.n_m));
    std::vector<double> d(static_cast<std::size_t>(dims.n_t * dims.n_d));
    gen(i, m);
    plan.forward(op, m, d, precision::PrecisionConfig{});
    EXPECT_EQ(outputs[static_cast<std::size_t>(i)], d) << "apply " << i;
  }
}

TEST_F(DriverFixture, OverlappedScheduleNeverSlower) {
  core::MatvecSequenceDriver driver(plan, op);
  auto gen = [&](index_t i, std::span<double> m) {
    util::Rng rng(static_cast<std::uint64_t>(i));
    util::fill_uniform(rng, m.data(), static_cast<index_t>(m.size()));
    // Simulated host-side cost (file I/O stand-in).
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  };
  auto consume = [&](index_t, std::span<const double>) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  };
  const auto report =
      driver.run_forward(6, gen, consume, precision::PrecisionConfig{});
  EXPECT_LE(report.overlapped_s, report.serialized_s);
  EXPECT_GT(report.overlap_speedup(), 1.0);
  EXPECT_GT(report.host_s, 0.0);
  EXPECT_GT(report.device_s, 0.0);
}

TEST_F(DriverFixture, ZeroHostCostMakesSchedulesConverge) {
  core::MatvecSequenceDriver driver(plan, op);
  auto gen = [&](index_t, std::span<double> m) {
    std::fill(m.begin(), m.end(), 0.25);
  };
  auto consume = [&](index_t, std::span<const double>) {};
  const auto report =
      driver.run_forward(3, gen, consume, precision::PrecisionConfig{});
  // With (near-)zero host time the overlapped schedule approaches the
  // pure device time.
  EXPECT_LT(report.overlapped_s, report.device_s * 1.5 + 1e-4);
}

}  // namespace
}  // namespace fftmv
