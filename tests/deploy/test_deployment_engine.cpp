// Deployment-engine correctness: the shared plan registry + cache must
// reproduce the per-surface response engine exactly, device shards must be
// byte-identical for any thread count, and the engine must agree with the
// pre-engine per-device LlamaSystem path at the same measurement model.
#include "src/deploy/deployment_engine.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/core/scenarios.h"
#include "src/metasurface/designs.h"

namespace llama::deploy {
namespace {

using common::Frequency;
using common::PowerDbm;
using common::Voltage;
using em::JonesMatrix;
using metasurface::SurfaceMode;

constexpr double kTol = 1e-12;

void expect_jones_near(const JonesMatrix& a, const JonesMatrix& b, double tol,
                       const std::string& what) {
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 2; ++c) {
      EXPECT_NEAR(a.at(r, c).real(), b.at(r, c).real(), tol)
          << what << " [" << r << "," << c << "] re";
      EXPECT_NEAR(a.at(r, c).imag(), b.at(r, c).imag(), tol)
          << what << " [" << r << "," << c << "] im";
    }
}

TEST(SharedResponseEngine, MatchesPrivateCachedMetasurface) {
  SharedResponseEngine engine{metasurface::prototype_fr4_design()};
  metasurface::Metasurface reference = metasurface::Metasurface::llama_prototype();
  reference.enable_response_cache();  // same default quantization contract
  const Frequency f = Frequency::ghz(2.44);
  for (auto mode : {SurfaceMode::kTransmissive, SurfaceMode::kReflective}) {
    for (double vx : {0.0, 7.25, 13.5, 30.0}) {
      for (double vy : {0.0, 4.5, 21.0, 30.0}) {
        reference.set_bias(Voltage{vx}, Voltage{vy});
        expect_jones_near(reference.response(f, mode),
                          engine.response(f, mode, Voltage{vx}, Voltage{vy}),
                          kTol, "shared vs private cache");
      }
    }
  }
  // One plan per (frequency, mode) touched, never one per caller.
  EXPECT_EQ(engine.plan_count(), 2u);
}

TEST(SharedResponseEngine, GridMatchesPointwiseAndFillsCache) {
  SharedResponseEngine engine{metasurface::prototype_fr4_design()};
  const Frequency f = Frequency::ghz(2.44);
  const std::vector<double> vxs{0.0, 7.5, 15.0, 30.0};
  const std::vector<double> vys{0.0, 10.0, 30.0};
  // Pre-warm two cells so the grid path exercises the hit+miss mix.
  (void)engine.response(f, SurfaceMode::kTransmissive, Voltage{7.5},
                        Voltage{10.0});
  const metasurface::JonesGrid grid =
      engine.response_grid(f, SurfaceMode::kTransmissive, vxs, vys);
  ASSERT_EQ(grid.size(), vys.size());
  for (std::size_t iy = 0; iy < vys.size(); ++iy) {
    ASSERT_EQ(grid[iy].size(), vxs.size());
    for (std::size_t ix = 0; ix < vxs.size(); ++ix)
      expect_jones_near(engine.response(f, SurfaceMode::kTransmissive,
                                        Voltage{vxs[ix]}, Voltage{vys[iy]}),
                        grid[iy][ix], 0.0, "grid cell vs pointwise");
  }
  const metasurface::ResponseCacheStats stats = engine.cache_stats();
  EXPECT_GT(stats.hits, 0u);
  // cache_size() counts filled 64-quantum lattice blocks: X blocks
  // {0, 117, 234, 468} and Y blocks {0, 156, 468} at the 1 mV quantum.
  EXPECT_EQ(engine.cache_size(), 4u + 3u);
}

TEST(SharedResponseEngine, ClearDropsPlansCacheAndStats) {
  SharedResponseEngine engine{metasurface::prototype_fr4_design()};
  const Frequency f = Frequency::ghz(2.44);
  (void)engine.response(f, SurfaceMode::kTransmissive, Voltage{5.0},
                        Voltage{5.0});
  (void)engine.response(f, SurfaceMode::kTransmissive, Voltage{5.0},
                        Voltage{5.0});
  EXPECT_GT(engine.plan_count(), 0u);
  engine.clear();
  EXPECT_EQ(engine.plan_count(), 0u);
  EXPECT_EQ(engine.cache_size(), 0u);
  EXPECT_EQ(engine.cache_stats().hits, 0u);
  EXPECT_EQ(engine.cache_stats().misses, 0u);
}

/// The acceptance-scale scenario: 24 devices, 2 surfaces.
core::DenseDeploymentScenario acceptance_scenario() {
  return core::dense_deployment_scenario(24, 2);
}

TEST(DeploymentEngine, OptimizesEveryDeviceThroughOneSharedEngine) {
  const core::DenseDeploymentScenario scenario = acceptance_scenario();
  DeploymentEngine engine{scenario.config};
  const DeploymentReport report = engine.run(scenario.devices);

  ASSERT_EQ(report.devices.size(), 24u);
  const int expected_probes = scenario.config.sweep.iterations *
                              scenario.config.sweep.steps_per_axis *
                              scenario.config.sweep.steps_per_axis;
  for (const DeviceResult& d : report.devices) {
    EXPECT_EQ(d.sweep.probes, expected_probes) << d.name;
    EXPECT_GE(d.sweep.best_vx.value(), 0.0);
    EXPECT_LE(d.sweep.best_vx.value(), 30.0);
    EXPECT_GE(d.sweep.best_vy.value(), 0.0);
    EXPECT_LE(d.sweep.best_vy.value(), 30.0);
    EXPECT_LT(d.surface, 2u);
  }

  // One transmissive plan serves all 24 links; every device after the first
  // draws its whole first Algorithm-1 window (T^2 cells) from the memo.
  EXPECT_EQ(report.plan_count, 1u);
  const std::uint64_t t2 = static_cast<std::uint64_t>(
      scenario.config.sweep.steps_per_axis *
      scenario.config.sweep.steps_per_axis);
  EXPECT_GE(report.cache_stats.hits, 23u * t2);

  // Every device is scheduled exactly once on its own surface.
  ASSERT_EQ(report.surfaces.size(), 2u);
  std::vector<int> scheduled(report.devices.size(), 0);
  for (const SurfaceReport& sr : report.surfaces) {
    ASSERT_EQ(sr.scheduled_power.size(), sr.device_ids.size());
    double airtime = 0.0;
    std::size_t members = 0;
    for (const control::ScheduleSlot& slot : sr.slots) {
      airtime += slot.slot_fraction;
      members += slot.device_indices.size();
      for (std::size_t k : slot.device_indices) {
        ASSERT_LT(k, sr.device_ids.size());
        ++scheduled[sr.device_ids[k]];
      }
    }
    EXPECT_EQ(members, sr.device_ids.size());
    EXPECT_NEAR(airtime, 1.0, 1e-9);
  }
  for (std::size_t i = 0; i < scheduled.size(); ++i)
    EXPECT_EQ(scheduled[i], 1) << "device " << i;

  EXPECT_GT(report.sum_capacity_bits_per_hz,
            report.unassisted_capacity_bits_per_hz);
}

TEST(DeploymentEngine, ByteIdenticalForAnyThreadCount) {
  const core::DenseDeploymentScenario scenario = acceptance_scenario();
  deploy::DeploymentConfig serial_cfg = scenario.config;
  serial_cfg.threads = 1;
  deploy::DeploymentConfig parallel_cfg = scenario.config;
  parallel_cfg.threads = 5;
  DeploymentEngine serial{serial_cfg};
  DeploymentEngine parallel{parallel_cfg};
  const DeploymentReport a = serial.run(scenario.devices);
  const DeploymentReport b = parallel.run(scenario.devices);

  ASSERT_EQ(a.devices.size(), b.devices.size());
  for (std::size_t i = 0; i < a.devices.size(); ++i) {
    // Byte-identical, not merely close.
    EXPECT_EQ(a.devices[i].sweep.best_vx.value(),
              b.devices[i].sweep.best_vx.value());
    EXPECT_EQ(a.devices[i].sweep.best_vy.value(),
              b.devices[i].sweep.best_vy.value());
    EXPECT_EQ(a.devices[i].sweep.best_power.value(),
              b.devices[i].sweep.best_power.value());
    EXPECT_EQ(a.devices[i].unoptimized_power.value(),
              b.devices[i].unoptimized_power.value());
    EXPECT_EQ(a.devices[i].surface, b.devices[i].surface);
  }
  EXPECT_EQ(a.sum_capacity_bits_per_hz, b.sum_capacity_bits_per_hz);
  EXPECT_EQ(a.mean_ber, b.mean_ber);
}

TEST(DeploymentEngine, RepeatedRunsOnWarmCacheAreIdentical) {
  const core::DenseDeploymentScenario scenario =
      core::dense_deployment_scenario(6, 1);
  DeploymentEngine engine{scenario.config};
  const DeploymentReport cold = engine.run(scenario.devices);
  const DeploymentReport warm = engine.run(scenario.devices);
  ASSERT_EQ(cold.devices.size(), warm.devices.size());
  for (std::size_t i = 0; i < cold.devices.size(); ++i) {
    EXPECT_EQ(cold.devices[i].sweep.best_vx.value(),
              warm.devices[i].sweep.best_vx.value());
    EXPECT_EQ(cold.devices[i].sweep.best_power.value(),
              warm.devices[i].sweep.best_power.value());
  }
  // The warm pass is served almost entirely from the memo.
  EXPECT_GT(warm.cache_stats.hits, cold.cache_stats.hits);
}

TEST(DeploymentEngine, AgreesWithPerDeviceLlamaSystem) {
  // Equal measurement model: LlamaSystem::optimize_link_batched runs the
  // identical batched Algorithm-1 round through its private (re-planned,
  // unquantized) pipeline. The shared engine evaluates at 1 mV-quantized
  // biases, so powers may differ at the quantization scale — far below any
  // physical sensitivity — and the chosen biases must coincide.
  const core::DenseDeploymentScenario scenario =
      core::dense_deployment_scenario(4, 1);
  DeploymentEngine engine{scenario.config};
  const DeploymentReport report = engine.run(scenario.devices);

  for (std::size_t i = 0; i < scenario.devices.size(); ++i) {
    core::SystemConfig cfg;
    cfg.frequency = scenario.config.frequency;
    cfg.tx_power = scenario.config.tx_power;
    cfg.tx_antenna = scenario.config.tx_antenna;
    cfg.rx_antenna = scenario.config.rx_antenna.oriented(
        scenario.devices[i].orientation);
    cfg.geometry = scenario.config.geometry;
    cfg.environment = scenario.config.environment;
    cfg.receiver = scenario.config.receiver;
    cfg.controller.sweep = scenario.config.sweep;
    core::LlamaSystem sys{cfg};
    const control::OptimizationReport expected = sys.optimize_link_batched();
    EXPECT_NEAR(report.devices[i].sweep.best_vx.value(),
                expected.sweep.best_vx.value(), 2e-3)
        << scenario.devices[i].name;
    EXPECT_NEAR(report.devices[i].sweep.best_vy.value(),
                expected.sweep.best_vy.value(), 2e-3);
    EXPECT_NEAR(report.devices[i].sweep.best_power.value(),
                expected.sweep.best_power.value(), 1e-3);
  }
}

TEST(DeploymentEngine, ExplicitSurfaceAssignmentIsHonored) {
  core::DenseDeploymentScenario scenario =
      core::dense_deployment_scenario(4, 2);
  scenario.devices[0].surface = 1;
  scenario.devices[1].surface = 1;
  scenario.devices[2].surface = 0;
  scenario.devices[3].surface = 0;
  DeploymentEngine engine{scenario.config};
  const DeploymentReport report = engine.run(scenario.devices);
  EXPECT_EQ(report.devices[0].surface, 1u);
  EXPECT_EQ(report.devices[1].surface, 1u);
  EXPECT_EQ(report.devices[2].surface, 0u);
  EXPECT_EQ(report.devices[3].surface, 0u);
}

TEST(DeploymentEngine, LeakageDisabledReportsNoLeakage) {
  const core::DenseDeploymentScenario scenario =
      core::dense_deployment_scenario(6, 2);
  DeploymentEngine engine{scenario.config};
  const DeploymentReport report = engine.run(scenario.devices);
  EXPECT_EQ(report.total_leakage.value(), 0.0);
  EXPECT_EQ(report.max_leakage.value(), 0.0);
  for (const DeviceResult& d : report.devices)
    EXPECT_EQ(d.leakage.value(), 0.0);
}

TEST(DeploymentEngine, LeakageChargesEveryLinkAndCostsCapacity) {
  core::DenseDeploymentScenario off = core::dense_deployment_scenario(8, 2);
  core::DenseDeploymentScenario on = core::dense_deployment_scenario(8, 2);
  on.config.interference.enable_leakage = true;

  DeploymentEngine engine_off{off.config};
  DeploymentEngine engine_on{on.config};
  const DeploymentReport report_off = engine_off.run(off.devices);
  const DeploymentReport report_on = engine_on.run(on.devices);

  // Quiet-neighbor optimization: the chosen biases are identical — leakage
  // enters only as per-link interference over the final schedules.
  ASSERT_EQ(report_on.devices.size(), report_off.devices.size());
  double sum_mw = 0.0;
  for (std::size_t i = 0; i < report_on.devices.size(); ++i) {
    EXPECT_EQ(report_on.devices[i].sweep.best_vx.value(),
              report_off.devices[i].sweep.best_vx.value());
    EXPECT_EQ(report_on.devices[i].sweep.best_vy.value(),
              report_off.devices[i].sweep.best_vy.value());
    // Every device has one serving and one interfering surface at M = 2.
    EXPECT_GT(report_on.devices[i].leakage.value(), 0.0) << "device " << i;
    EXPECT_LE(report_on.devices[i].leakage.value(),
              report_on.max_leakage.value());
    sum_mw += report_on.devices[i].leakage.value();
  }
  EXPECT_NEAR(report_on.total_leakage.value(), sum_mw, 1e-15);
  // Interference can only cost capacity, and measurably does here.
  EXPECT_LT(report_on.sum_capacity_bits_per_hz,
            report_off.sum_capacity_bits_per_hz);
  EXPECT_GE(report_on.mean_ber, report_off.mean_ber);
}

TEST(DeploymentEngine, SingleSurfaceDeploymentHasNoLeakage) {
  core::DenseDeploymentScenario scenario = core::dense_deployment_scenario(4, 1);
  scenario.config.interference.enable_leakage = true;
  DeploymentEngine engine{scenario.config};
  const DeploymentReport report = engine.run(scenario.devices);
  EXPECT_EQ(report.total_leakage.value(), 0.0);
}

TEST(DeploymentEngine, LeakageRunIsByteIdenticalForAnyThreadCount) {
  core::DenseDeploymentScenario scenario = core::dense_deployment_scenario(6, 2);
  scenario.config.interference.enable_leakage = true;
  deploy::DeploymentConfig serial = scenario.config;
  serial.threads = 1;
  deploy::DeploymentConfig parallel = scenario.config;
  parallel.threads = 4;
  DeploymentEngine engine_serial{serial};
  DeploymentEngine engine_parallel{parallel};
  const DeploymentReport a = engine_serial.run(scenario.devices);
  const DeploymentReport b = engine_parallel.run(scenario.devices);
  ASSERT_EQ(a.devices.size(), b.devices.size());
  for (std::size_t i = 0; i < a.devices.size(); ++i) {
    EXPECT_EQ(a.devices[i].optimized_power.value(),
              b.devices[i].optimized_power.value());
    EXPECT_EQ(a.devices[i].leakage.value(), b.devices[i].leakage.value());
  }
  EXPECT_EQ(a.sum_capacity_bits_per_hz, b.sum_capacity_bits_per_hz);
  EXPECT_EQ(a.total_leakage.value(), b.total_leakage.value());
}

TEST(DeploymentEngine, RejectsBadConfigurations) {
  core::DenseDeploymentScenario scenario =
      core::dense_deployment_scenario(2, 1);
  deploy::DeploymentConfig no_surfaces = scenario.config;
  no_surfaces.n_surfaces = 0;
  DeploymentEngine empty{no_surfaces};
  EXPECT_THROW((void)empty.run(scenario.devices), std::invalid_argument);

  DeploymentEngine engine{scenario.config};
  scenario.devices[1].surface = 3;  // only 1 surface exists
  EXPECT_THROW((void)engine.run(scenario.devices), std::out_of_range);
}

}  // namespace
}  // namespace llama::deploy
