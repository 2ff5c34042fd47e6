// Parallel runtime: primitive correctness (chunking, exceptions, nesting,
// concurrent outside submitters) and the pipeline-wide determinism
// guarantee — training with 1, 2, and hardware-concurrency threads must
// serialize to byte-identical models.
#include "behaviot/runtime/runtime.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "behaviot/core/pipeline.hpp"
#include "behaviot/core/serialize_binary.hpp"
#include "behaviot/net/rng.hpp"

namespace behaviot {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  runtime::ThreadPool pool({.threads = 4});
  std::vector<std::atomic<int>> hits(10'000);
  pool.parallel_for(0, hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelFor, EmptyAndSingleElementRanges) {
  runtime::ThreadPool pool({.threads = 4});
  int calls = 0;
  pool.parallel_for(5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(7, 8, [&](std::size_t i) {
    ++calls;
    EXPECT_EQ(i, 7u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, SerialPoolRunsInline) {
  runtime::ThreadPool pool({.threads = 1});
  EXPECT_EQ(pool.threads(), 1u);
  std::vector<int> order;
  pool.parallel_for(0, 100, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));  // no race: must be inline
  });
  ASSERT_EQ(order.size(), 100u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(ParallelFor, PropagatesException) {
  runtime::ThreadPool pool({.threads = 4});
  EXPECT_THROW(pool.parallel_for(0, 1000,
                                 [&](std::size_t i) {
                                   if (i == 537) {
                                     throw std::runtime_error("index 537");
                                   }
                                 }),
               std::runtime_error);
  try {
    pool.parallel_for(0, 1000, [&](std::size_t i) {
      if (i == 537) throw std::runtime_error("index 537");
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 537");
  }
  // The pool survives a failed job and runs subsequent jobs normally.
  std::atomic<int> total{0};
  pool.parallel_for(0, 64, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 64);
}

TEST(ParallelFor, NestedCallsRunSeriallyWithoutDeadlock) {
  runtime::ThreadPool pool({.threads = 4});
  std::vector<std::atomic<int>> hits(32 * 32);
  pool.parallel_for(0, 32, [&](std::size_t outer) {
    // Inner call re-enters the same pool from a parallel region; it must
    // degrade to inline execution instead of deadlocking on the workers.
    pool.parallel_for(0, 32, [&](std::size_t inner) {
      hits[outer * 32 + inner].fetch_add(1);
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

/// splitmix64 finalizer: a cheap, order-sensitive per-index value.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

TEST(ParallelFor, ConcurrentOutsideSubmittersMatchSerialChecksums) {
  // Outside threads can share one pool: in the watch daemon, a retrain the
  // watchdog abandoned keeps running while the next retrain starts.
  // Randomized rounds from K outside threads must each cover exactly their
  // own range, once, and return only after their own work is done; the
  // per-round checksum must equal a serial recomputation.
  runtime::ThreadPool pool({.threads = 4});
  constexpr std::uint64_t kSubmitters = 4;
  constexpr int kRounds = 300;
  std::atomic<int> bad_rounds{0};
  std::atomic<int> rounds_run{0};
  std::vector<std::thread> submitters;
  for (std::uint64_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      Rng rng(0x5eedULL + t);
      for (int round = 0; round < kRounds; ++round) {
        const std::size_t n = 2 + rng.uniform_index(3000);
        const std::uint64_t salt = rng.next_u64();
        const std::uint64_t work = 1 + rng.uniform_index(32);
        const bool nested = rng.chance(0.2);
        const auto value = [&](std::size_t i) {
          std::uint64_t v = i ^ salt;
          for (std::uint64_t k = 0; k < work; ++k) v = mix(v);
          return v;
        };
        std::vector<std::uint64_t> out(n, 0);
        std::vector<std::atomic<int>> hits(n);
        pool.parallel_for(0, n, [&](std::size_t i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
          std::uint64_t v = value(i);
          if (nested) {
            // A nested region must not touch the pool's submit lock.
            std::atomic<std::uint64_t> inner{0};
            pool.parallel_for(0, 3, [&](std::size_t j) {
              inner.fetch_add(mix(v + j), std::memory_order_relaxed);
            });
            v ^= inner.load();
          }
          out[i] = v;
        });
        std::uint64_t parallel_sum = 0;
        std::uint64_t serial_sum = 0;
        bool once = true;
        for (std::size_t i = 0; i < n; ++i) {
          parallel_sum += out[i];
          std::uint64_t v = value(i);
          if (nested) {
            std::uint64_t inner = 0;
            for (std::size_t j = 0; j < 3; ++j) inner += mix(v + j);
            v ^= inner;
          }
          serial_sum += v;
          once = once && hits[i].load() == 1;
        }
        if (parallel_sum != serial_sum || !once) bad_rounds.fetch_add(1);
        rounds_run.fetch_add(1);
      }
    });
  }
  for (std::thread& s : submitters) s.join();
  EXPECT_EQ(rounds_run.load(), static_cast<int>(kSubmitters) * kRounds);
  EXPECT_EQ(bad_rounds.load(), 0);
  // The pool still serves a lone caller normally afterwards.
  std::atomic<int> total{0};
  pool.parallel_for(0, 1000, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 1000);
}

TEST(ParallelMap, AlignsResultsWithInput) {
  runtime::ThreadPool pool({.threads = 3});
  std::vector<int> items(1000);
  std::iota(items.begin(), items.end(), 0);
  const auto squares =
      pool.parallel_map(items, [](int v) { return v * v; });
  ASSERT_EQ(squares.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(squares[i], items[i] * items[i]);
  }
}

TEST(GlobalPool, SetThreadsRebuildsPool) {
  runtime::set_global_threads(2);
  EXPECT_EQ(runtime::global_threads(), 2u);
  std::atomic<int> total{0};
  runtime::parallel_for(0, 100, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 100);
  runtime::set_global_threads(1);
  EXPECT_EQ(runtime::global_threads(), 1u);
}

/// Serializes the full trained model set for one thread count.
std::string train_and_serialize(std::size_t threads) {
  runtime::set_global_threads(threads);
  Pipeline pipeline;
  DomainResolver resolver;
  const auto idle = testbed::Datasets::idle(71, /*days=*/0.5);
  const auto activity = testbed::Datasets::activity(72, /*repetitions=*/4);
  const auto routine = testbed::Datasets::routine_week(73, /*days=*/1.0);
  const auto idle_flows = pipeline.to_flows(idle, resolver);
  const auto activity_flows = pipeline.to_flows(activity, resolver);
  const auto routine_flows = pipeline.to_flows(routine, resolver);
  const auto models = pipeline.train(idle_flows, 43200.0, activity_flows,
                                     routine_flows);

  // Fold classification outcomes in as well: kinds/labels/merged events must
  // also be invariant, not just the serialized models (forests included).
  const auto classified = pipeline.classify(routine_flows, models);
  std::ostringstream os;
  os << save_models_binary(models);
  os << "classified";
  for (const EventKind k : classified.kinds) os << ' ' << static_cast<int>(k);
  for (const auto& label : classified.labels) os << ' ' << label;
  os << ' ' << classified.periodic_via_timer << ' '
     << classified.periodic_via_cluster << ' '
     << classified.user_events.size();
  return os.str();
}

TEST(ThreadInvariance, TrainAndClassifyAreBitIdenticalAcrossThreadCounts) {
  const std::string serial = train_and_serialize(1);
  ASSERT_FALSE(serial.empty());
  const std::string two_threads = train_and_serialize(2);
  EXPECT_EQ(serial, two_threads);
  const std::size_t hw = runtime::default_threads();
  if (hw > 2) {
    const std::string hw_threads = train_and_serialize(hw);
    EXPECT_EQ(serial, hw_threads);
  }
  runtime::set_global_threads(0);  // restore default for any later suites
}

}  // namespace
}  // namespace behaviot
