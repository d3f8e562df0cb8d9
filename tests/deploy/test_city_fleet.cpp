// CityFleetEngine contracts: roster/config validation, sub-linear pruned
// scenes, the sharded fleet evaluation being byte-identical for any worker
// count AND equal to the per-device direct evaluation, and hierarchical
// frozen aggregation (refreeze_device == fresh freeze, byte for byte).
#include "src/deploy/city_fleet.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "src/core/scenarios.h"

namespace llama::deploy {
namespace {

TEST(CityFleetEngine, ValidatesConfigAndRoster) {
  core::CityScaleScenario scenario = core::city_scale_scenario(8, 4);
  {
    DeploymentConfig cfg = scenario.config;
    cfg.layout.positions.clear();
    EXPECT_THROW((CityFleetEngine{cfg}), std::invalid_argument);
  }
  {
    DeploymentConfig cfg = scenario.config;
    cfg.layout.positions.pop_back();  // n_surfaces now disagrees
    EXPECT_THROW((CityFleetEngine{cfg}), std::invalid_argument);
  }
  {
    DeploymentConfig cfg = scenario.config;
    cfg.geometry.mode = metasurface::SurfaceMode::kReflective;
    EXPECT_THROW((CityFleetEngine{cfg}), std::invalid_argument);
  }

  CityFleetEngine engine{scenario.config};
  {
    auto devices = scenario.devices;
    devices[0].position.reset();
    EXPECT_THROW(engine.assign(devices), std::invalid_argument);
  }
  {
    auto devices = scenario.devices;
    devices[0].surface = 8;  // out of the 8-surface range
    EXPECT_THROW(engine.assign(devices), std::out_of_range);
  }
  engine.assign(scenario.devices);
  EXPECT_THROW((void)engine.serving_surface(scenario.devices.size()),
               std::out_of_range);
  EXPECT_THROW((void)engine.scene(scenario.devices.size()),
               std::out_of_range);
  auto short_biases = scenario.biases;
  short_biases.pop_back();
  EXPECT_THROW((void)engine.evaluate(short_biases), std::invalid_argument);
  EXPECT_THROW((void)engine.freeze_device(scenario.devices.size(),
                                          scenario.biases),
               std::out_of_range);
  EXPECT_THROW((void)engine.freeze_device(0, short_biases),
               std::invalid_argument);
  channel::PropagationScene::FrozenEval frozen =
      engine.freeze_device(0, scenario.biases);
  const std::vector<std::size_t> retuned{engine.serving_surface(0)};
  EXPECT_THROW(engine.refreeze_device(0, frozen, retuned, short_biases),
               std::invalid_argument);
  EXPECT_THROW(core::city_scale_scenario(0, 1), std::invalid_argument);
}

TEST(CityFleetEngine, ExplicitSurfaceOverridesNearest) {
  core::CityScaleScenario scenario = core::city_scale_scenario(9, 6);
  CityFleetEngine nearest{scenario.config};
  nearest.assign(scenario.devices);
  auto devices = scenario.devices;
  const std::size_t forced = (nearest.serving_surface(0) + 1) % 9;
  devices[0].surface = static_cast<int>(forced);
  CityFleetEngine overridden{scenario.config};
  overridden.assign(devices);
  EXPECT_EQ(overridden.serving_surface(0), forced);
  for (std::size_t i = 1; i < devices.size(); ++i)
    EXPECT_EQ(overridden.serving_surface(i), nearest.serving_surface(i));
}

TEST(CityFleetEngine, PrunedScenesAreSubLinearInM) {
  const core::CityScaleScenario scenario =
      core::city_scale_scenario(256, 64, -58.0);
  CityFleetEngine engine{scenario.config};
  engine.assign(scenario.devices);
  // A device's scene keeps its spatial neighborhood, not the city: far
  // below the 255 dense leakage paths.
  EXPECT_LT(engine.mean_kept_leakage(), 32.0);
  EXPECT_GT(engine.total_pruned(), 0u);

  const CityEvalReport report = engine.evaluate(scenario.biases);
  ASSERT_EQ(report.power.size(), scenario.devices.size());
  ASSERT_EQ(report.error_bound_db.size(), scenario.devices.size());
  EXPECT_EQ(report.shard_count, engine.index().cell_count());
  EXPECT_GT(report.max_error_bound_db, 0.0);
  EXPECT_TRUE(std::isfinite(report.max_error_bound_db));
  for (double b : report.error_bound_db) {
    EXPECT_GE(b, 0.0);
    EXPECT_LE(b, report.max_error_bound_db);
  }
}

// The tentpole determinism contract at the sizes the issue pins: M=64
// surfaces x N=512 devices, the identical byte pattern from 1, 2 and 8
// workers (8 oversubscribes any CI machine, which is the point).
TEST(CityFleetEngine, ByteIdenticalPowerForAnyWorkerCount) {
  const core::CityScaleScenario scenario = core::city_scale_scenario(64, 512);
  CityFleetEngine engine{scenario.config};
  engine.assign(scenario.devices);

  const CityEvalReport base = engine.evaluate(scenario.biases, 1);
  ASSERT_EQ(base.power.size(), 512u);
  for (const int threads : {2, 8}) {
    const CityEvalReport other = engine.evaluate(scenario.biases, threads);
    ASSERT_EQ(other.power.size(), base.power.size());
    EXPECT_EQ(std::memcmp(other.power.data(), base.power.data(),
                          base.power.size() * sizeof(common::PowerDbm)),
              0)
        << threads << " workers diverged from 1 worker";
    EXPECT_EQ(std::memcmp(other.error_bound_db.data(),
                          base.error_bound_db.data(),
                          base.error_bound_db.size() * sizeof(double)),
              0);
  }
}

TEST(CityFleetEngine, ShardedEvaluationMatchesDirectSceneEvaluation) {
  const core::CityScaleScenario scenario = core::city_scale_scenario(32, 24);
  CityFleetEngine engine{scenario.config};
  engine.assign(scenario.devices);
  const CityEvalReport report = engine.evaluate(scenario.biases, 4);

  // Resolve the same responses and walk each device's scene directly —
  // the cell-sharded loop must be a pure reordering of this.
  std::vector<em::JonesMatrix> responses;
  for (const SurfaceBias& b : scenario.biases)
    responses.push_back(engine.response_engine().response(
        scenario.config.frequency, scenario.config.geometry.mode, b.vx,
        b.vy));
  for (std::size_t i = 0; i < scenario.devices.size(); ++i) {
    const channel::PropagationScene& scene = engine.scene(i);
    std::vector<const em::JonesMatrix*> view;
    view.push_back(&responses[engine.serving_surface(i)]);
    for (const channel::PlacedLeakageSpec& p : scene.spec().placed)
      view.push_back(&responses[p.external_id]);
    const common::PowerDbm direct = scene.received_power(
        scenario.config.tx_power, scenario.config.frequency,
        channel::PropagationScene::ResponseView{view.data(), view.size()});
    EXPECT_DOUBLE_EQ(report.power[i].value(), direct.value())
        << "device " << i;
  }
}

TEST(CityFleetEngine, RefreezeMatchesFreshFreezeByteForByte) {
  const core::CityScaleScenario scenario = core::city_scale_scenario(32, 8);
  CityFleetEngine engine{scenario.config};
  engine.assign(scenario.devices);

  // Retune three surfaces: the device's own cell neighborhood and one far
  // surface (whose path was likely pruned — refreeze must shrug it off).
  const std::vector<std::size_t> retuned{
      (engine.serving_surface(0) + 1) % 32, (engine.serving_surface(0) + 2) % 32,
      31};
  std::vector<SurfaceBias> after = scenario.biases;
  for (std::size_t s : retuned) {
    after[s].vx = common::Voltage{after[s].vx.value() * 0.5 + 3.0};
    after[s].vy = common::Voltage{27.0 - after[s].vy.value() * 0.5};
  }

  channel::PropagationScene::FrozenEval incremental =
      engine.freeze_device(0, scenario.biases);
  engine.refreeze_device(0, incremental, retuned, after);
  const channel::PropagationScene::FrozenEval fresh =
      engine.freeze_device(0, after);

  EXPECT_EQ(std::memcmp(&incremental.fixed_total, &fresh.fixed_total,
                        sizeof(fresh.fixed_total)),
            0)
      << "incremental refreeze diverged from a fresh freeze";
  ASSERT_EQ(incremental.cell_fields.size(), fresh.cell_fields.size());
  for (std::size_t c = 0; c < fresh.cell_fields.size(); ++c) {
    EXPECT_EQ(incremental.cell_fields[c].cell, fresh.cell_fields[c].cell);
    EXPECT_EQ(std::memcmp(&incremental.cell_fields[c].field,
                          &fresh.cell_fields[c].field,
                          sizeof(fresh.cell_fields[c].field)),
              0)
        << "cell " << fresh.cell_fields[c].cell;
  }

  // And the frozen sweep itself agrees bit-for-bit on fresh candidates.
  const channel::PropagationScene& scene = engine.scene(0);
  for (int c = 0; c < 5; ++c) {
    const em::JonesMatrix candidate = engine.response_engine().response(
        scenario.config.frequency, scenario.config.geometry.mode,
        common::Voltage{static_cast<double>(c) * 6.0},
        common::Voltage{30.0 - static_cast<double>(c) * 6.0});
    EXPECT_DOUBLE_EQ(
        scene.received_power_swept(incremental, candidate).value(),
        scene.received_power_swept(fresh, candidate).value());
  }

  // A retuned index past the deployment is rejected.
  const std::vector<std::size_t> bad{32};
  EXPECT_THROW(engine.refreeze_device(0, incremental, bad, after),
               std::out_of_range);
}

// A freeze or refreeze resolves only the device's own scene surfaces: one
// engine lookup per kept surface, whatever the deployment's size M.
TEST(CityFleetEngine, FreezeLooksUpOnlyTheDevicesSceneSurfaces) {
  for (const std::size_t m : {64u, 256u}) {
    const core::CityScaleScenario scenario = core::city_scale_scenario(m, 16);
    CityFleetEngine engine{scenario.config};
    engine.assign(scenario.devices);
    const auto lookups = [&engine] {
      const metasurface::ResponseCacheStats s =
          engine.response_engine().cache_stats();
      return s.hits + s.misses;
    };
    for (std::size_t d = 0; d < scenario.devices.size(); ++d) {
      const std::size_t kept = engine.scene(d).surface_count();
      ASSERT_LT(kept, m) << "M=" << m << ": scene was not pruned";
      const std::uint64_t before = lookups();
      channel::PropagationScene::FrozenEval frozen =
          engine.freeze_device(d, scenario.biases);
      EXPECT_EQ(lookups() - before, kept) << "M=" << m << " device " << d;

      const std::vector<std::size_t> retuned{engine.serving_surface(d)};
      const std::uint64_t mid = lookups();
      engine.refreeze_device(d, frozen, retuned, scenario.biases);
      EXPECT_EQ(lookups() - mid, kept) << "M=" << m << " device " << d;
    }
  }
}

TEST(CityFleetEngine, FrozenSweepMatchesFullEvaluation) {
  const core::CityScaleScenario scenario = core::city_scale_scenario(64, 4);
  CityFleetEngine engine{scenario.config};
  engine.assign(scenario.devices);
  const channel::PropagationScene::FrozenEval frozen =
      engine.freeze_device(0, scenario.biases);

  // Sweeping the serving surface's own bias must agree with a full
  // evaluation whose bias vector carries that same candidate.
  std::vector<SurfaceBias> biases = scenario.biases;
  biases[engine.serving_surface(0)] = SurfaceBias{common::Voltage{9.0},
                                                  common::Voltage{21.0}};
  const em::JonesMatrix candidate = engine.response_engine().response(
      scenario.config.frequency, scenario.config.geometry.mode,
      common::Voltage{9.0}, common::Voltage{21.0});
  const CityEvalReport full = engine.evaluate(biases, 1);
  EXPECT_NEAR(
      engine.scene(0).received_power_swept(frozen, candidate).value(),
      full.power[0].value(), 1e-12);
}

}  // namespace
}  // namespace llama::deploy
