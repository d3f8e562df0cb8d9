// Regression for SharedResponseEngine's statistics under concurrency: the
// counters are relaxed atomics, so (a) a monitor may poll cache_stats()
// while device shards read published lattice blocks lock-free and fill
// missing ones under the fill mutex, without tearing or serializing, and
// (b) no increment is ever lost — after the dust settles, hits + misses
// equals the exact number of lookups issued, for any interleaving.
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/metasurface/designs.h"
#include "src/metasurface/response_engine.h"

namespace llama::metasurface {
namespace {

using common::Frequency;
using common::Voltage;

TEST(SharedEngineConcurrency, StatsStayConsistentUnderConcurrentReaders) {
  SharedResponseEngine engine{prototype_fr4_design()};
  const Frequency f = Frequency::ghz(2.44);

  constexpr int kPointThreads = 4;
  constexpr int kPointLookups = 200;
  constexpr int kGridThreads = 2;
  constexpr int kGridWindows = 8;
  const std::vector<double> window{0.0, 10.0, 20.0, 30.0};

  // Point-probe workers cycle a few biases (lookups that find a block
  // unfilled miss and fill it, the rest hit); grid workers issue whole
  // windows.
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kPointThreads; ++t)
    workers.emplace_back([&, t] {
      while (!go.load()) {
      }
      for (int i = 0; i < kPointLookups; ++i) {
        const double v = static_cast<double>((t + i) % 8);
        (void)engine.response(f, SurfaceMode::kTransmissive, Voltage{v},
                              Voltage{v});
      }
    });
  for (int t = 0; t < kGridThreads; ++t)
    workers.emplace_back([&] {
      while (!go.load()) {
      }
      for (int i = 0; i < kGridWindows; ++i)
        (void)engine.response_grid(f, SurfaceMode::kTransmissive, window,
                                   window);
    });

  // The monitor polls concurrently; counters must be monotone (no torn or
  // rolled-back reads) the whole time.
  std::atomic<bool> done{false};
  std::thread monitor{[&] {
    std::uint64_t last_total = 0;
    while (!done.load()) {
      const ResponseCacheStats s = engine.cache_stats();
      const std::uint64_t total = s.hits + s.misses;
      EXPECT_GE(total, last_total);
      last_total = total;
    }
  }};

  go.store(true);
  for (std::thread& w : workers) w.join();
  done.store(true);
  monitor.join();

  // Every lookup counted exactly once: one per point probe, one per grid
  // cell.
  const std::uint64_t expected_lookups =
      static_cast<std::uint64_t>(kPointThreads) * kPointLookups +
      static_cast<std::uint64_t>(kGridThreads) * kGridWindows *
          window.size() * window.size();
  const ResponseCacheStats s = engine.cache_stats();
  EXPECT_EQ(s.hits + s.misses, expected_lookups);
  EXPECT_GT(s.hits, 0u);
  EXPECT_GT(s.misses, 0u);
  EXPECT_EQ(s.evictions, 0u);  // the engine never evicts
}

}  // namespace
}  // namespace llama::metasurface
