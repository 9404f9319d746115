// Work-counter gate for the two Section-IV optimizations (Fig. 8). On small
// versions of the four paper-dataset streams, MS-BFS (Alg. 3) must never
// issue more range searches than repeated single-source BFS, and MS-BFS
// plus epoch probing (Alg. 4) must test strictly fewer leaf entries than
// neither. The counters are deterministic for a fixed seed, so the gate
// never depends on wall-clock time; it fails when a traversal rewrite
// silently undoes the early exit or the once-per-region index walk.

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "bench/datasets.h"
#include "core/disc.h"
#include "gtest/gtest.h"
#include "stream/sliding_window.h"

namespace disc {
namespace bench {

// Names the dataset in test output instead of dumping the spec's bytes.
void PrintTo(const DatasetSpec& spec, std::ostream* os) { *os << spec.name; }

}  // namespace bench

namespace {

constexpr double kScale = 0.25;  // A quarter of the benchmark windows.
constexpr std::uint64_t kSeed = 1234;
constexpr int kMeasuredSlides = 20;

struct Counters {
  std::uint64_t range_searches = 0;
  std::uint64_t leaf_entries_tested = 0;
};

// Fills the window, then sums the counters over kMeasuredSlides slides of
// 5% stride.
Counters RunVariant(const bench::DatasetSpec& spec, bool msbfs, bool epoch) {
  const std::size_t stride = std::max<std::size_t>(1, spec.window / 20);
  auto source = spec.make(kSeed);
  DiscConfig config;
  config.eps = spec.eps;
  config.tau = spec.tau;
  config.use_msbfs = msbfs;
  config.use_epoch_probing = epoch;
  Disc disc(spec.dims, config);
  CountBasedWindow window(spec.window, stride);
  while (!window.full()) {
    WindowDelta d = window.Advance(source->NextPoints(stride));
    disc.Update(d.incoming, d.outgoing);
  }
  Counters total;
  for (int s = 0; s < kMeasuredSlides; ++s) {
    WindowDelta d = window.Advance(source->NextPoints(stride));
    disc.Update(d.incoming, d.outgoing);
    total.range_searches += disc.last_metrics().range_searches;
    total.leaf_entries_tested += disc.last_metrics().leaf_entries_tested;
  }
  return total;
}

class OptimizationCountersTest
    : public ::testing::TestWithParam<bench::DatasetSpec> {};

TEST_P(OptimizationCountersTest, MsBfsAndEpochProbingSaveWork) {
  const bench::DatasetSpec& spec = GetParam();
  const Counters both = RunVariant(spec, true, true);
  const Counters sequential = RunVariant(spec, false, true);
  const Counters neither = RunVariant(spec, false, false);
  EXPECT_LE(both.range_searches, sequential.range_searches)
      << spec.name << ": MS-BFS issued more range searches than sequential BFS";
  EXPECT_LT(both.leaf_entries_tested, neither.leaf_entries_tested)
      << spec.name
      << ": MS-BFS + epoch probing tested no fewer leaf entries than neither";
}

INSTANTIATE_TEST_SUITE_P(
    PaperDatasets, OptimizationCountersTest,
    ::testing::ValuesIn(bench::StandardDatasets(kScale)),
    [](const ::testing::TestParamInfo<bench::DatasetSpec>& param_info) {
      std::string name;
      for (char c : param_info.param.name) {
        if (std::isalnum(static_cast<unsigned char>(c))) name += c;
      }
      return name;
    });

}  // namespace
}  // namespace disc
