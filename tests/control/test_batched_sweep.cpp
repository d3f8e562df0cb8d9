// Determinism and equivalence of the batched sweep engine: batched sweeps
// must reproduce the serial scan order exactly, and parallel grid
// evaluation must be byte-identical to the single-threaded path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "src/control/search.h"
#include "src/control/sweep.h"
#include "src/core/scenarios.h"
#include "src/metasurface/response_engine.h"

namespace llama::control {
namespace {

using common::PowerDbm;
using common::Voltage;

/// Deterministic synthetic plant with one global optimum.
PowerProbe gaussian_peak(double vx_star, double vy_star, double width = 8.0) {
  return [=](Voltage vx, Voltage vy) {
    const double dx = vx.value() - vx_star;
    const double dy = vy.value() - vy_star;
    return PowerDbm{-30.0 - (dx * dx + dy * dy) / (width * width) * 10.0};
  };
}

/// Lifts a deterministic point probe into the grid-probe interface.
GridPowerProbe grid_of(PowerProbe probe) {
  return [probe = std::move(probe)](const std::vector<double>& vxs,
                                    const std::vector<double>& vys) {
    PowerGrid grid(vys.size(), std::vector<PowerDbm>(vxs.size()));
    for (std::size_t iy = 0; iy < vys.size(); ++iy)
      for (std::size_t ix = 0; ix < vxs.size(); ++ix)
        grid[iy][ix] = probe(Voltage{vxs[ix]}, Voltage{vys[iy]});
    return grid;
  };
}

/// Lifts a deterministic point probe into the batch-probe interface.
BatchPowerProbe batch_of(PowerProbe probe) {
  return [probe = std::move(probe)](const BiasPairList& points) {
    std::vector<PowerDbm> powers;
    powers.reserve(points.size());
    for (const auto& [vx, vy] : points) powers.push_back(probe(vx, vy));
    return powers;
  };
}

TEST(FullGridSweepBatched, MatchesSerialRunExactly) {
  const PowerProbe probe = gaussian_peak(18.0, 6.0);
  PowerSupply serial_psu;
  PowerSupply batched_psu;
  FullGridSweep serial{serial_psu, {}};
  FullGridSweep batched{batched_psu, {}};

  const SweepResult a = serial.run(probe);
  const SweepResult b = batched.run_batched(grid_of(probe));

  EXPECT_EQ(a.best_vx.value(), b.best_vx.value());
  EXPECT_EQ(a.best_vy.value(), b.best_vy.value());
  EXPECT_EQ(a.best_power.value(), b.best_power.value());
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.time_cost_s, b.time_cost_s);
  ASSERT_EQ(serial.grid_dbm().size(), batched.grid_dbm().size());
  for (std::size_t iy = 0; iy < serial.grid_dbm().size(); ++iy) {
    ASSERT_EQ(serial.grid_dbm()[iy].size(), batched.grid_dbm()[iy].size());
    for (std::size_t ix = 0; ix < serial.grid_dbm()[iy].size(); ++ix)
      EXPECT_EQ(serial.grid_dbm()[iy][ix], batched.grid_dbm()[iy][ix]);
  }
  EXPECT_EQ(serial.vx_values(), batched.vx_values());
  EXPECT_EQ(serial.vy_values(), batched.vy_values());
}

TEST(FullGridSweepBatched, RepeatedRunsDoNotLeakState) {
  const PowerProbe probe = gaussian_peak(18.0, 6.0);
  PowerSupply psu;
  FullGridSweep sweep{psu, {}};
  const SweepResult first = sweep.run(probe);
  const std::size_t rows = sweep.grid_dbm().size();
  const std::size_t cols = sweep.grid_dbm().front().size();

  // A second run (serial or batched) must fully replace the outputs.
  const SweepResult again = sweep.run(probe);
  EXPECT_EQ(sweep.grid_dbm().size(), rows);
  EXPECT_EQ(sweep.grid_dbm().front().size(), cols);
  EXPECT_EQ(sweep.vx_values().size(), cols);
  EXPECT_EQ(sweep.vy_values().size(), rows);
  EXPECT_EQ(first.best_power.value(), again.best_power.value());

  const SweepResult batched = sweep.run_batched(grid_of(probe));
  EXPECT_EQ(sweep.grid_dbm().size(), rows);
  EXPECT_EQ(sweep.grid_dbm().front().size(), cols);
  EXPECT_EQ(first.best_power.value(), batched.best_power.value());
}

TEST(CoarseToFineSweepBatched, MatchesSerialRunExactly) {
  const PowerProbe probe = gaussian_peak(22.5, 9.0);
  PowerSupply serial_psu;
  PowerSupply batched_psu;
  CoarseToFineSweep serial{serial_psu, {}};
  CoarseToFineSweep batched{batched_psu, {}};

  const SweepResult a = serial.run(probe);
  const SweepResult b = batched.run_batched(grid_of(probe));

  EXPECT_EQ(a.best_vx.value(), b.best_vx.value());
  EXPECT_EQ(a.best_vy.value(), b.best_vy.value());
  EXPECT_EQ(a.best_power.value(), b.best_power.value());
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.time_cost_s, b.time_cost_s);
  ASSERT_EQ(serial.trace().size(), batched.trace().size());
  for (std::size_t i = 0; i < serial.trace().size(); ++i) {
    EXPECT_EQ(serial.trace()[i].vx.value(), batched.trace()[i].vx.value());
    EXPECT_EQ(serial.trace()[i].vy.value(), batched.trace()[i].vy.value());
    EXPECT_EQ(serial.trace()[i].power.value(),
              batched.trace()[i].power.value());
  }
}

TEST(RandomSearchBatched, MatchesSerialRunExactly) {
  const PowerProbe probe = gaussian_peak(11.0, 27.0);
  PowerSupply serial_psu;
  PowerSupply batched_psu;
  RandomSearch serial{serial_psu, {}, common::Rng{42}};
  RandomSearch batched{batched_psu, {}, common::Rng{42}};

  const SweepResult a = serial.run(probe);
  const SweepResult b = batched.run_batched(batch_of(probe));
  EXPECT_EQ(a.best_vx.value(), b.best_vx.value());
  EXPECT_EQ(a.best_vy.value(), b.best_vy.value());
  EXPECT_EQ(a.best_power.value(), b.best_power.value());
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.time_cost_s, b.time_cost_s);
}

TEST(SystemGridProbe, ThreadCountDoesNotChangeBytes) {
  // Two identical systems probed with different worker counts must produce
  // byte-identical power grids: every cell is a pure planned evaluation and
  // the analytic measurement consumes no RNG state.
  std::vector<double> axis;
  for (double v = 0.0; v <= 30.0; v += 3.0) axis.push_back(v);

  core::LlamaSystem sys_serial{core::transmissive_mismatch_config()};
  core::LlamaSystem sys_parallel{core::transmissive_mismatch_config()};
  const PowerGrid serial = sys_serial.make_grid_probe(1)(axis, axis);
  const PowerGrid parallel = sys_parallel.make_grid_probe(7)(axis, axis);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t iy = 0; iy < serial.size(); ++iy)
    for (std::size_t ix = 0; ix < serial[iy].size(); ++ix) {
      const double a = serial[iy][ix].value();
      const double b = parallel[iy][ix].value();
      EXPECT_EQ(std::memcmp(&a, &b, sizeof(a)), 0)
          << "cell (" << iy << ", " << ix << ")";
    }
}

TEST(SystemGridProbe, FullGridSweepBatchedIsDeterministicAcrossThreads) {
  core::LlamaSystem sys_a{core::reflective_mismatch_config()};
  core::LlamaSystem sys_b{core::reflective_mismatch_config()};
  PowerSupply psu_a;
  PowerSupply psu_b;
  FullGridSweep::Options opt;
  opt.step = common::Voltage{3.0};
  FullGridSweep sweep_a{psu_a, opt};
  FullGridSweep sweep_b{psu_b, opt};

  const SweepResult a = sweep_a.run_batched(sys_a.make_grid_probe(1));
  const SweepResult b = sweep_b.run_batched(sys_b.make_grid_probe(6));
  EXPECT_EQ(a.best_vx.value(), b.best_vx.value());
  EXPECT_EQ(a.best_vy.value(), b.best_vy.value());
  EXPECT_EQ(a.best_power.value(), b.best_power.value());
  ASSERT_EQ(sweep_a.grid_dbm().size(), sweep_b.grid_dbm().size());
  for (std::size_t iy = 0; iy < sweep_a.grid_dbm().size(); ++iy)
    for (std::size_t ix = 0; ix < sweep_a.grid_dbm()[iy].size(); ++ix)
      EXPECT_EQ(sweep_a.grid_dbm()[iy][ix], sweep_b.grid_dbm()[iy][ix]);
}

TEST(SystemGridProbe, BatchedOptimizationFindsAComparableOptimum) {
  // The batched round reports expected powers (no sampling jitter), so its
  // optimum must sit within the probe noise of the serial round's.
  core::LlamaSystem serial_sys{core::transmissive_mismatch_config()};
  core::LlamaSystem batched_sys{core::transmissive_mismatch_config()};
  const auto serial = serial_sys.optimize_link();
  const auto batched = batched_sys.optimize_link_batched();
  EXPECT_EQ(serial.sweep.probes, batched.sweep.probes);
  EXPECT_NEAR(serial.sweep.best_power.value(),
              batched.sweep.best_power.value(), 1.5);
  // The surface is left programmed at the batched winner.
  EXPECT_EQ(batched_sys.surface().bias_x().value(),
            batched.sweep.best_vx.value());
  EXPECT_EQ(batched_sys.surface().bias_y().value(),
            batched.sweep.best_vy.value());
}

TEST(FastProbes, CachedPointProbeKeepsSequentialSearchesWorking) {
  core::LlamaSystem sys{core::transmissive_mismatch_config()};
  sys.enable_fast_probes();
  PowerSupply psu;
  HillClimb climb{psu, {}};
  const SweepResult r = climb.run(sys.make_probe(0.01));
  EXPECT_GT(r.probes, 0);
  ASSERT_NE(sys.surface().response_engine(), nullptr);
  const metasurface::ResponseCacheStats stats =
      sys.surface().response_engine()->cache_stats();
  EXPECT_GT(stats.misses, 0u);
}

}  // namespace
}  // namespace llama::control
