// Golden-model byte-identity regression test.
//
// The periodic-inference hot path carries aggressively restructured kernels
// (pair-sweep DBSCAN, fused/cache-blocked FFT schedule, interleaved ACF
// accumulation) whose contract is *bit-identical* models: every floating-point
// accumulation chain keeps the exact operation order of the straightforward
// formulation, so serialized models must match the reference byte for byte —
// across optimizations, thread counts, and compiler flag changes.
//
// tests/data/golden_models.bbm holds the models the pre-optimization
// implementation trained on the deterministic golden dataset below, without
// user-action forests (the reference pins periodic models, PFSM, thresholds
// and training traces; forest determinism is pinned by test_runtime's
// thread-invariance check). Any divergence means an optimization changed
// arithmetic, not just scheduling, and must be rejected (or the golden
// deliberately regenerated with a documented semantic change).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "behaviot/core/pipeline.hpp"
#include "behaviot/core/serialize_binary.hpp"
#include "behaviot/runtime/runtime.hpp"
#include "behaviot/testbed/datasets.hpp"

namespace behaviot {
namespace {

std::string read_golden() {
  const std::string path =
      std::string(BEHAVIOT_TEST_DATA_DIR) + "/golden_models.bbm";
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << "missing golden file: " << path;
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

std::string train_and_serialize() {
  Pipeline pipeline;
  DomainResolver resolver;
  const auto idle = testbed::Datasets::idle(211, /*days=*/0.25);
  const auto activity = testbed::Datasets::activity(212, /*repetitions=*/2);
  const auto routine = testbed::Datasets::routine_week(213, /*days=*/0.5);
  const auto idle_flows = pipeline.to_flows(idle, resolver);
  const auto activity_flows = pipeline.to_flows(activity, resolver);
  const auto routine_flows = pipeline.to_flows(routine, resolver);
  BehaviorModelSet models = pipeline.train(idle_flows, 0.25 * 86400.0,
                                           activity_flows, routine_flows);
  models.user_actions = {};
  return save_models_binary(models);
}

TEST(GoldenModel, TrainedModelsAreByteIdenticalToReference) {
  const std::string golden = read_golden();
  ASSERT_FALSE(golden.empty());
  const std::string current = train_and_serialize();
  ASSERT_EQ(current.size(), golden.size())
      << "serialized model size diverged from the golden reference";
  // Byte compare; on mismatch report the first diverging offset rather than
  // dumping 37 KB of models.
  if (current != golden) {
    std::size_t at = 0;
    while (at < current.size() && current[at] == golden[at]) ++at;
    FAIL() << "models diverge from golden at byte " << at << " (of "
           << golden.size() << ")";
  }
}

TEST(GoldenModel, ByteIdentityHoldsAcrossThreadCounts) {
  // The parallel inference path must assemble the same bytes at any worker
  // count; runs a second configuration to catch scheduling-dependent
  // arithmetic that the single-configuration test above would miss.
  const std::string golden = read_golden();
  const std::size_t restore = runtime::global_threads();
  runtime::set_global_threads(3);
  const std::string with_three = train_and_serialize();
  runtime::set_global_threads(restore);
  EXPECT_EQ(with_three, golden);
}

}  // namespace
}  // namespace behaviot
