// fleet_retune: closed loop of DeploymentEngine::run rounds over
// dense_deployment_scenario(256, 8) with cross-surface leakage on and one
// worker; every round re-draws the device orientations (devices moved).
#include <cmath>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/channel/propagation_scene.h"
#include "src/common/rng.h"
#include "src/control/power_supply.h"
#include "src/control/sweep.h"
#include "src/core/scenarios.h"
#include "src/radio/transceiver.h"

namespace perfbench {

using namespace llama;

namespace {

/// Devices replayed with spans in the traced run.
constexpr std::size_t kTraceReplayDevices = 32;

core::DenseDeploymentScenario fleet_scenario(const FleetRetuneParams& p,
                                             int threads) {
  core::DenseDeploymentScenario s =
      core::dense_deployment_scenario(p.devices, p.surfaces);
  s.config.interference.enable_leakage = true;
  s.config.threads = threads;
  return s;
}

/// Every output byte of a round except the response-cache statistics
/// (whose hit/miss split legitimately depends on cache history).
std::vector<unsigned char> report_bytes(const deploy::DeploymentReport& r) {
  std::vector<unsigned char> out;
  const auto put = [&out](const auto& v) {
    unsigned char buf[sizeof v];
    std::memcpy(buf, &v, sizeof v);
    out.insert(out.end(), buf, buf + sizeof v);
  };
  for (const deploy::DeviceResult& d : r.devices) {
    out.insert(out.end(), d.name.begin(), d.name.end());
    put(d.surface);
    put(d.sweep.best_vx.value());
    put(d.sweep.best_vy.value());
    put(d.sweep.best_power.value());
    put(d.sweep.probes);
    put(d.sweep.time_cost_s);
    put(d.optimized_power.value());
    put(d.unoptimized_power.value());
    put(d.leakage.value());
  }
  for (const deploy::SurfaceReport& s : r.surfaces) {
    put(s.surface);
    for (const std::size_t id : s.device_ids) put(id);
    for (const control::ScheduleSlot& slot : s.slots) {
      put(slot.vx.value());
      put(slot.vy.value());
      put(slot.slot_fraction);
      for (const std::size_t i : slot.device_indices) put(i);
    }
    for (const common::PowerDbm& pw : s.scheduled_power) put(pw.value());
  }
  put(r.noise_floor.value());
  put(r.sum_capacity_bits_per_hz);
  put(r.unassisted_capacity_bits_per_hz);
  put(r.mean_ber);
  put(r.unassisted_mean_ber);
  put(r.total_leakage.value());
  put(r.max_leakage.value());
  return out;
}

bool same_sweep(const control::SweepResult& a, const control::SweepResult& b) {
  const auto bits = [](double v) {
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof u);
    return u;
  };
  return bits(a.best_vx.value()) == bits(b.best_vx.value()) &&
         bits(a.best_vy.value()) == bits(b.best_vy.value()) &&
         bits(a.best_power.value()) == bits(b.best_power.value()) &&
         a.probes == b.probes && bits(a.time_cost_s) == bits(b.time_cost_s);
}

/// One device's Algorithm-1 optimisation replayed outside the engine with
/// the engine's own pieces: its scene topology, quiet-neighbour freeze,
/// shared response engine and expected-power measurement model.
control::SweepResult replay_sweep(deploy::DeploymentEngine& engine,
                                  const deploy::DeviceSpec& spec,
                                  Tracer* tr) {
  const deploy::DeploymentConfig& cfg = engine.config();
  const common::Frequency f = cfg.frequency;
  const metasurface::SurfaceMode mode = cfg.geometry.mode;
  const radio::Receiver receiver(cfg.receiver, common::Rng{0});
  const channel::SceneSpec spec_topology =
      deploy::device_scene_spec(cfg.n_surfaces, cfg.interference);
  const channel::PropagationScene scene = [&] {
    const Tracer::Span span(tr, Op::kSceneFromSpec);
    return channel::PropagationScene::from_spec(
        cfg.tx_antenna, cfg.rx_antenna.oriented(spec.orientation),
        cfg.geometry, cfg.environment, spec_topology);
  }();
  const channel::PropagationScene::FrozenEval frozen = [&] {
    const Tracer::Span span(tr, Op::kSceneFreezeExcept);
    return scene.freeze_except(channel::PropagationScene::kHomeSurface,
                               cfg.tx_power, f,
                               channel::PropagationScene::ResponseView{});
  }();
  const control::GridPowerProbe probe = [&](const std::vector<double>& vxs,
                                            const std::vector<double>& vys) {
    const metasurface::JonesGrid responses = [&] {
      const Tracer::Span span(tr, Op::kEngineResponseGrid,
                              vxs.size() * vys.size());
      return engine.response_engine().response_grid(f, mode, vxs, vys);
    }();
    control::PowerGrid grid(vys.size(),
                            std::vector<common::PowerDbm>(vxs.size()));
    for (std::size_t iy = 0; iy < vys.size(); ++iy)
      for (std::size_t ix = 0; ix < vxs.size(); ++ix) {
        const Tracer::Span span(tr, Op::kSceneSwept);
        grid[iy][ix] = receiver.expected_measure(
            scene.received_power_swept(frozen, responses[iy][ix]));
      }
    return grid;
  };
  control::PowerSupply supply;
  control::CoarseToFineSweep sweep{supply, cfg.sweep};
  const Tracer::Span span(tr, Op::kSweepRunBatched);
  return sweep.run_batched(probe);
}

/// Replays `count` seeded devices of `round` and checks each against the
/// engine's result bit for bit.
void check_replay(deploy::DeploymentEngine& engine,
                  const std::vector<deploy::DeviceSpec>& round,
                  const deploy::DeploymentReport& report, std::uint64_t seed,
                  std::size_t count, Tracer* tr, Report& out) {
  bool same = true;
  for (std::size_t k = 0; k < count; ++k) {
    const auto i = static_cast<std::size_t>(
        draw(seed, 0xD3, k, 0.0, static_cast<double>(round.size())));
    same = same_sweep(replay_sweep(engine, round[i], tr),
                      report.devices[i].sweep) &&
           same;
  }
  out.check(same, "fleet_retune: replayed sweeps equal the engine's bit for "
                  "bit");
}

struct Gains {
  double link_db = 0.0;
  double capacity_bps_hz = 0.0;
};

/// Mean over devices of optimized minus surface-absent power, and the
/// per-device capacity gain, of one round.
Gains round_gains(const deploy::DeploymentReport& r) {
  Gains g;
  for (const deploy::DeviceResult& d : r.devices)
    g.link_db += d.optimized_power.value() - d.unoptimized_power.value();
  const auto n = static_cast<double>(r.devices.size());
  g.link_db /= n;
  g.capacity_bps_hz =
      (r.sum_capacity_bits_per_hz - r.unassisted_capacity_bits_per_hz) / n;
  return g;
}

void set_quality(const Gains& g, Report& out, bool traced) {
  if (traced) {
    out.set("quality.link_gain_db", g.link_db);
    out.set("quality.capacity_gain_bps_hz", g.capacity_bps_hz);
  } else {
    out.note("link_gain_db", g.link_db, "dB");
    out.note("capacity_gain_bps_hz", g.capacity_bps_hz, "bit/s/Hz");
  }
  out.check(g.link_db > 0.0 && g.capacity_bps_hz > 0.0,
            "fleet_retune: the surfaces improve link power and capacity");
}

}  // namespace

std::vector<deploy::DeviceSpec> fleet_round_inputs(
    const std::vector<deploy::DeviceSpec>& base, std::uint64_t seed,
    std::uint64_t round) {
  std::vector<deploy::DeviceSpec> devices = base;
  for (std::size_t i = 0; i < devices.size(); ++i)
    devices[i].orientation =
        common::Angle::degrees(draw(seed, 0xF1 + round, i, 50.0, 130.0));
  return devices;
}

void run_fleet_retune(const RunOptions& options, const FleetRetuneParams& p,
                      Report& out) {
  // One set-up: scenario, engine, and the first round, which fills the
  // shared response cache (lazy set-up).
  const auto set_up = [&] {
    core::DenseDeploymentScenario s = fleet_scenario(p, 1);
    auto engine = std::make_unique<deploy::DeploymentEngine>(s.config);
    (void)engine->run(fleet_round_inputs(s.devices, options.seed, 0));
    return std::make_pair(std::move(engine), std::move(s.devices));
  };
  std::vector<double> setup_s;
  const auto timed_set_up = [&] {
    const std::uint64_t t0 = now_ns();
    auto built = set_up();
    setup_s.push_back(seconds_since(t0));
    return built;
  };
  auto [engine, base] = timed_set_up();

  std::vector<double> round_ms;
  deploy::DeploymentReport first;
  std::vector<deploy::DeviceSpec> first_round;
  Gains gains;
  const std::uint64_t start = now_ns();
  std::uint64_t last_setup = start;
  for (std::uint64_t r = 0;
       r < p.quality_rounds || seconds_since(start) < options.seconds; ++r) {
    if (seconds_since(last_setup) >= kSetupIntervalS) {
      (void)timed_set_up();  // sampled across the run, then discarded
      last_setup = now_ns();
    }
    std::vector<deploy::DeviceSpec> devices =
        fleet_round_inputs(base, options.seed, r);
    out.attempt();
    try {
      const std::uint64_t t0 = now_ns();
      deploy::DeploymentReport report = engine->run(devices);
      round_ms.push_back(seconds_since(t0) * 1e3);
      if (r < p.quality_rounds) {
        const Gains g = round_gains(report);
        gains.link_db += g.link_db / static_cast<double>(p.quality_rounds);
        gains.capacity_bps_hz +=
            g.capacity_bps_hz / static_cast<double>(p.quality_rounds);
      }
      if (r == 0) {
        first = std::move(report);
        first_round = std::move(devices);
      }
    } catch (const std::exception& e) {
      out.fail(1, std::string{"fleet_retune round: "} + e.what());
    }
  }
  out.set("setup_s", median(setup_s));
  out.check(!round_ms.empty() && !first.devices.empty(),
            "fleet_retune: rounds completed");
  if (round_ms.empty() || first.devices.empty()) return;
  out.set("latency_ms", median(round_ms));
  out.set("throughput_per_s",
          static_cast<double>(p.devices) / (median(round_ms) * 1e-3));
  out.timing("retune_round_ms", round_ms, "ms");
  set_quality(gains, out, false);
  const metasurface::ResponseCacheStats stats =
      engine->response_engine().cache_stats();
  out.note("cache_hit_ratio",
           static_cast<double>(stats.hits) /
               static_cast<double>(stats.hits + stats.misses),
           "ratio");

  // Output checks: thread-count byte identity of one round, and the
  // per-device sweeps replayed outside the engine.
  const std::vector<unsigned char> warm = report_bytes(first);
  for (const int threads : {1, 2}) {
    deploy::DeploymentEngine fresh{fleet_scenario(p, threads).config};
    out.check(report_bytes(fresh.run(first_round)) == warm,
              "fleet_retune: " + std::to_string(threads) +
                  "-worker round is byte-identical to the measured one");
  }
  check_replay(*engine, first_round, first, options.seed, p.replay_devices,
               nullptr, out);
}

double trace_fleet_retune(const RunOptions& options,
                          const FleetRetuneParams& p, Tracer& tracer,
                          Report& out, double overhead_seconds) {
  Tracer* const tr = &tracer;
  core::DenseDeploymentScenario s = [&] {
    const Tracer::Span span(tr, Op::kCoreScenario);
    return fleet_scenario(p, 1);
  }();
  deploy::DeploymentEngine engine{s.config};
  const std::vector<deploy::DeviceSpec> round0 =
      fleet_round_inputs(s.devices, options.seed, 0);
  deploy::DeploymentReport first;
  {
    const Tracer::Span span(tr, Op::kDeployRun);
    first = engine.run(round0);
  }
  Gains gains;
  for (std::uint64_t r = 0; r < p.quality_rounds; ++r) {
    const Gains g = round_gains(
        engine.run(fleet_round_inputs(s.devices, options.seed, r)));
    gains.link_db += g.link_db / static_cast<double>(p.quality_rounds);
    gains.capacity_bps_hz +=
        g.capacity_bps_hz / static_cast<double>(p.quality_rounds);
  }
  set_quality(gains, out, true);

  double overhead = 0.0;
  if (overhead_seconds > 0.0) {
    std::uint64_t r = 0;
    overhead = measure_overhead(overhead_seconds, [&](bool traced) {
      const std::vector<deploy::DeviceSpec> devices =
          fleet_round_inputs(s.devices, options.seed, ++r);
      const std::uint64_t t0 = now_ns();
      const Tracer::Span span(traced ? tr : nullptr, Op::kDeployRun);
      (void)engine.run(devices);
      return seconds_since(t0);
    });
  }

  // Per-device pieces of one round, replayed with spans.
  const OpSnapshot replay_before = tracer.op_totals();
  check_replay(engine, round0, first, options.seed, kTraceReplayDevices,
               tr, out);
  const OpSnapshot replay = op_delta(tracer.op_totals(), replay_before);
  out.set("metasurface.grid_ns_per_cell",
          ns_per_item(replay, Op::kEngineResponseGrid));
  out.set("channel.scene_build_us",
          mean_ns(replay, Op::kSceneFromSpec) * 1e-3);
  out.set("channel.freeze_us", mean_ns(replay, Op::kSceneFreezeExcept) * 1e-3);
  out.set("channel.swept_ns", mean_ns(replay, Op::kSceneSwept));
  out.set("control.sweep_us", mean_ns(replay, Op::kSweepRunBatched) * 1e-3);
  double probes = 0.0;
  for (const deploy::DeviceResult& d : first.devices) probes += d.sweep.probes;
  out.set("control.probes_per_device",
          probes / static_cast<double>(first.devices.size()));

  // deploy.finalize_ms: round time minus the untraced sum of the round's
  // per-device optimisations (what is left is schedule, leakage pass and
  // capacity aggregation).
  std::vector<double> finalize_ms;
  for (std::uint64_t rep = 0; rep < 5; ++rep) {
    const std::vector<deploy::DeviceSpec> devices =
        fleet_round_inputs(s.devices, options.seed, 1000 + rep);
    const std::uint64_t t0 = now_ns();
    (void)engine.run(devices);
    const double round = seconds_since(t0);
    double per_device = 0.0;
    for (const deploy::DeviceSpec& d : devices) {
      const std::uint64_t t1 = now_ns();
      (void)replay_sweep(engine, d, nullptr);
      per_device += seconds_since(t1);
    }
    finalize_ms.push_back((round - per_device) * 1e3);
  }
  out.set("deploy.finalize_ms", median(finalize_ms));

  const metasurface::ResponseCacheStats stats =
      engine.response_engine().cache_stats();
  out.set("metasurface.cache_hit_ratio",
          static_cast<double>(stats.hits) /
              static_cast<double>(stats.hits + stats.misses));
  out.set("metasurface.lock_contention",
          static_cast<double>(stats.lock_contention));
  return overhead;
}

}  // namespace perfbench
