#include "src/deploy/deployment_engine.h"

#include <optional>
#include <stdexcept>
#include <utility>

#include "src/channel/ber.h"
#include "src/channel/capacity.h"
#include "src/codebook/codebook.h"
#include "src/codebook/compiler.h"
#include "src/common/contracts.h"
#include "src/common/math_utils.h"
#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/control/power_supply.h"

namespace llama::deploy {

namespace {

common::Voltage clamp_bias(common::Voltage v) {
  return common::Voltage{common::clamp(v.value(), 0.0, 30.0)};
}

/// Normalized map key for a frequency (mirrors ResponseCache::make_key's
/// signed-zero handling; NaN is rejected there before we ever look up).
double plan_key(common::Frequency f) {
  const double hz = f.in_hz();
  return hz == 0.0 ? 0.0 : hz;
}

}  // namespace

std::size_t assigned_surface(int spec_surface, std::size_t index,
                             std::size_t n_surfaces) {
  return spec_surface >= 0 ? static_cast<std::size_t>(spec_surface)
                           : index % n_surfaces;
}

channel::SceneSpec device_scene_spec(std::size_t n_surfaces,
                                     const InterferenceModel& interference) {
  channel::SceneSpec spec;
  if (!interference.enable_leakage || n_surfaces <= 1) return spec;
  channel::LeakageSurfaceSpec leak;
  leak.lateral_offset_m = interference.surface_spacing_m;
  leak.coupling = interference.leakage_coupling;
  spec.leakage.assign(n_surfaces - 1, leak);
  return spec;
}

SharedResponseEngine::SharedResponseEngine(
    metasurface::RotatorStack stack, metasurface::ResponseCacheConfig cache)
    : stack_(std::move(stack)), cache_(cache) {}

em::JonesMatrix SharedResponseEngine::response(common::Frequency f,
                                               metasurface::SurfaceMode mode,
                                               common::Voltage vx,
                                               common::Voltage vy) {
  const common::Voltage vxq = cache_.quantize(clamp_bias(vx));
  const common::Voltage vyq = cache_.quantize(clamp_bias(vy));
  const metasurface::ResponseCache::Key key =
      cache_.make_key(f, vxq, vyq, static_cast<int>(mode));
  {
    const std::lock_guard<CountedMutex> lock(cache_mutex_);
    if (auto hit = cache_.find(key)) return *hit;
  }
  // Miss: fetch (or build, once per frequency+mode) the shared plan, then
  // evaluate outside the cache lock. Concurrent misses on one key both
  // compute the same pure function of (f, quantized bias, mode); the second
  // insert refreshes the entry with an identical value.
  const em::JonesMatrix j =
      mode == metasurface::SurfaceMode::kTransmissive
          ? stack_.transmission(*transmission_plan(f), vxq, vyq)
          : stack_.reflection(*reflection_plan(f), vxq, vyq);
  {
    const std::lock_guard<CountedMutex> lock(cache_mutex_);
    cache_.insert(key, j);
  }
  return j;
}

std::shared_ptr<const metasurface::RotatorStack::TransmissionPlan>
SharedResponseEngine::transmission_plan(common::Frequency f) {
  const std::lock_guard<CountedMutex> lock(plan_mutex_);
  auto& slot = transmission_plans_[plan_key(f)];
  if (!slot)
    slot = std::make_shared<const metasurface::RotatorStack::TransmissionPlan>(
        stack_.plan_transmission(f));
  return slot;
}

std::shared_ptr<const metasurface::RotatorStack::ReflectionPlan>
SharedResponseEngine::reflection_plan(common::Frequency f) {
  const std::lock_guard<CountedMutex> lock(plan_mutex_);
  auto& slot = reflection_plans_[plan_key(f)];
  if (!slot)
    slot = std::make_shared<const metasurface::RotatorStack::ReflectionPlan>(
        stack_.plan_reflection(f));
  return slot;
}

metasurface::JonesGrid SharedResponseEngine::response_grid(
    common::Frequency f, metasurface::SurfaceMode mode,
    const std::vector<double>& vxs, const std::vector<double>& vys) {
  metasurface::JonesGrid grid(vys.size(),
                              std::vector<em::JonesMatrix>(vxs.size()));
  if (vxs.empty() || vys.empty()) return grid;

  // Quantized axes and keys, built once per window.
  std::vector<common::Voltage> vxq(vxs.size());
  std::vector<common::Voltage> vyq(vys.size());
  for (std::size_t ix = 0; ix < vxs.size(); ++ix)
    vxq[ix] = cache_.quantize(clamp_bias(common::Voltage{vxs[ix]}));
  for (std::size_t iy = 0; iy < vys.size(); ++iy)
    vyq[iy] = cache_.quantize(clamp_bias(common::Voltage{vys[iy]}));
  const int mode_key = static_cast<int>(mode);

  // Pass 1, one lock: drain every hit, remember the misses.
  std::vector<std::pair<std::size_t, std::size_t>> misses;
  {
    const std::lock_guard<CountedMutex> lock(cache_mutex_);
    for (std::size_t iy = 0; iy < vys.size(); ++iy)
      for (std::size_t ix = 0; ix < vxs.size(); ++ix) {
        const metasurface::ResponseCache::Key key =
            cache_.make_key(f, vxq[ix], vyq[iy], mode_key);
        if (auto hit = cache_.find(key))
          grid[iy][ix] = *hit;
        else
          misses.emplace_back(iy, ix);
      }
  }
  if (misses.empty()) return grid;

  // Compute the misses outside any lock (pure planned evaluations).
  if (mode == metasurface::SurfaceMode::kTransmissive) {
    const auto plan = transmission_plan(f);
    for (const auto& [iy, ix] : misses)
      grid[iy][ix] = stack_.transmission(*plan, vxq[ix], vyq[iy]);
  } else {
    const auto plan = reflection_plan(f);
    for (const auto& [iy, ix] : misses)
      grid[iy][ix] = stack_.reflection(*plan, vxq[ix], vyq[iy]);
  }

  // Pass 2, one lock: publish the new cells.
  {
    const std::lock_guard<CountedMutex> lock(cache_mutex_);
    for (const auto& [iy, ix] : misses)
      cache_.insert(cache_.make_key(f, vxq[ix], vyq[iy], mode_key),
                    grid[iy][ix]);
  }
  return grid;
}

std::size_t SharedResponseEngine::plan_count() const {
  const std::lock_guard<CountedMutex> lock(plan_mutex_);
  return transmission_plans_.size() + reflection_plans_.size();
}

metasurface::ResponseCacheStats SharedResponseEngine::cache_stats() const {
  // The counters are relaxed atomics, so a monitor polling statistics never
  // serializes against device shards inside the two-lock grid path.
  metasurface::ResponseCacheStats stats = cache_.stats();
  stats.lock_contention = plan_mutex_.contended() + cache_mutex_.contended();
  return stats;
}

std::size_t SharedResponseEngine::cache_size() const {
  const std::lock_guard<CountedMutex> lock(cache_mutex_);
  return cache_.size();
}

void SharedResponseEngine::clear() {
  {
    const std::lock_guard<CountedMutex> lock(plan_mutex_);
    transmission_plans_.clear();
    reflection_plans_.clear();
  }
  {
    const std::lock_guard<CountedMutex> lock(cache_mutex_);
    cache_.clear();
  }
  // clear() zeroes ALL statistics, the contention tallies included.
  plan_mutex_.reset();
  cache_mutex_.reset();
}

DeploymentEngine::DeploymentEngine(DeploymentConfig config,
                                   metasurface::RotatorStack stack)
    : config_(std::move(config)),
      engine_(std::move(stack), config_.cache),
      receiver_(config_.receiver, common::Rng{0}) {}

void DeploymentEngine::validate(const std::vector<DeviceSpec>& devices) const {
  if (config_.n_surfaces == 0)
    throw std::invalid_argument{"DeploymentEngine: need >= 1 surface"};
  for (const DeviceSpec& spec : devices)
    if (spec.surface >= 0 &&
        static_cast<std::size_t>(spec.surface) >= config_.n_surfaces)
      throw std::out_of_range{"DeploymentEngine: device '" + spec.name +
                              "' names surface " +
                              std::to_string(spec.surface) + " of " +
                              std::to_string(config_.n_surfaces)};
}

DeploymentReport DeploymentEngine::run(
    const std::vector<DeviceSpec>& devices) {
  validate(devices);

  DeploymentReport report;
  report.devices.resize(devices.size());
  const common::Frequency f = config_.frequency;
  const metasurface::SurfaceMode mode = config_.geometry.mode;

  // Shard the per-device Algorithm-1 runs. Each worker touches only its own
  // DeviceResult slot; the shared engine is the only cross-thread state and
  // serves pure values, so the shard is deterministic for any thread count.
  // Optimization sweeps assume quiet neighbors (the other surfaces' biases
  // are not decided yet, and serving them mid-sweep would make the result
  // depend on device order): each device's scene is frozen with every
  // non-home surface absent and only the swept home path is evaluated per
  // bias cell. Leakage enters afterwards, as per-link interference over the
  // final schedules (finalize_report).
  const channel::SceneSpec scene_spec =
      device_scene_spec(config_.n_surfaces, config_.interference);
  // Each shard writes only its own results[i] slot.
  common::parallel_for(devices.size(), config_.threads, [&](std::size_t i) {
    const DeviceSpec& spec = devices[i];
    const channel::PropagationScene scene =
        channel::PropagationScene::from_spec(
            config_.tx_antenna, config_.rx_antenna.oriented(spec.orientation),
            config_.geometry, config_.environment, scene_spec);
    const channel::PropagationScene::FrozenEval frozen = scene.freeze_except(
        channel::PropagationScene::kHomeSurface, config_.tx_power, f,
        channel::PropagationScene::ResponseView{});
    const control::GridPowerProbe probe =
        [&](const std::vector<double>& vxs, const std::vector<double>& vys) {
          const metasurface::JonesGrid responses =
              engine_.response_grid(f, mode, vxs, vys);
          control::PowerGrid grid(
              vys.size(), std::vector<common::PowerDbm>(vxs.size()));
          for (std::size_t iy = 0; iy < vys.size(); ++iy)
            for (std::size_t ix = 0; ix < vxs.size(); ++ix)
              grid[iy][ix] = receiver_.expected_measure(
                  scene.received_power_swept(frozen, responses[iy][ix]));
          return grid;
        };
    control::PowerSupply supply;  // per-device instrument-time accounting
    control::CoarseToFineSweep sweep{supply, config_.sweep};
    LLAMA_INVARIANT(i < report.devices.size(),
                    "each shard writes only its own result slot");
    DeviceResult& out = report.devices[i];
    out.name = spec.name;
    out.surface = assigned_surface(spec.surface, i, config_.n_surfaces);
    LLAMA_ENSURES(out.surface < config_.n_surfaces,
                  "assigned surfaces lie inside the deployment");
    out.sweep = sweep.run_batched(probe);
    out.optimized_power = out.sweep.best_power;
    out.unoptimized_power = receiver_.expected_measure(
        scene.received_power_without_surface(config_.tx_power, f));
  });

  finalize_report(devices, report);
  return report;
}

DeploymentReport DeploymentEngine::run_codebook(
    const std::vector<DeviceSpec>& devices, const codebook::Codebook& book) {
  validate(devices);
  const codebook::Codebook::Header& header = book.header();
  if (header.mode != config_.geometry.mode)
    throw std::invalid_argument{
        "DeploymentEngine: codebook surface mode does not match the "
        "deployment geometry"};
  if (header.config_hash !=
      codebook::deployment_config_hash(config_, engine_.stack()))
    throw codebook::CodebookStaleError{
        "DeploymentEngine: codebook was compiled for a different deployment "
        "configuration (config-hash mismatch); recompile it"};
  if (!book.covers_frequency(config_.frequency))
    throw std::out_of_range{
        "DeploymentEngine: deployment frequency lies outside the codebook's "
        "compiled frequency axis"};

  DeploymentReport report;
  report.devices.resize(devices.size());
  const common::Frequency f = config_.frequency;
  const metasurface::SurfaceMode mode = config_.geometry.mode;

  // When the power measured at the interpolated bias falls short of the
  // codebook's interpolated prediction by more than this, the device sits
  // between lattice cells whose optima disagree (a multi-modal bias plane)
  // and the blend may have landed in a valley; fall back to the nearest
  // cell's compiled best — a bias the offline sweep actually probed.
  constexpr double kDeviationThresholdDb = 1.0;

  // One immutable codebook shared by every shard: lookup() touches no
  // mutable state, so the fan-out is lock-free on the codebook itself; the
  // only shared touch is one response evaluation per device (two when the
  // deviation guard fires) for the reported power (cached, so devices with
  // coinciding optima hit).
  const channel::SceneSpec scene_spec =
      device_scene_spec(config_.n_surfaces, config_.interference);
  // Each shard writes only its own results[i] slot.
  common::parallel_for(devices.size(), config_.threads, [&](std::size_t i) {
    const DeviceSpec& spec = devices[i];
    const channel::PropagationScene scene =
        channel::PropagationScene::from_spec(
            config_.tx_antenna, config_.rx_antenna.oriented(spec.orientation),
            config_.geometry, config_.environment, scene_spec);
    const auto power_at = [&](common::Voltage vx, common::Voltage vy) {
      return receiver_.expected_measure(scene.received_power_with_response(
          config_.tx_power, f, engine_.response(f, mode, vx, vy)));
    };
    const codebook::BiasPoint hit = book.lookup(f, spec.orientation);
    control::PowerSupply supply;  // per-device instrument-time accounting
    supply.set_outputs(hit.vx, hit.vy);

    DeviceResult& out = report.devices[i];
    out.name = spec.name;
    out.surface = assigned_surface(spec.surface, i, config_.n_surfaces);
    out.sweep.best_vx = hit.vx;
    out.sweep.best_vy = hit.vy;
    out.sweep.best_power = power_at(hit.vx, hit.vy);
    out.sweep.probes = 1;
    if (out.sweep.best_power.value() <
        hit.predicted_power.value() - kDeviationThresholdDb) {
      const codebook::BiasPoint& anchor =
          book.nearest(f, spec.orientation).best;
      supply.set_outputs(anchor.vx, anchor.vy);
      const common::PowerDbm anchored = power_at(anchor.vx, anchor.vy);
      ++out.sweep.probes;
      if (anchored > out.sweep.best_power) {
        out.sweep.best_vx = anchor.vx;
        out.sweep.best_vy = anchor.vy;
        out.sweep.best_power = anchored;
      }
    }
    out.sweep.time_cost_s = supply.elapsed_s();
    out.optimized_power = out.sweep.best_power;
    out.unoptimized_power = receiver_.expected_measure(
        scene.received_power_without_surface(config_.tx_power, f));
  });

  finalize_report(devices, report);
  return report;
}

DeploymentReport DeploymentEngine::run_codebook_file(
    const std::vector<DeviceSpec>& devices, const std::string& path) {
  // Roster errors are the caller's bug and throw like run(); only artifact
  // failures (checked below, before any optimization work) degrade.
  validate(devices);
  std::optional<codebook::Codebook> book;
  std::string reason;
  try {
    book.emplace(codebook::Codebook::load(path));
    const codebook::Codebook::Header& header = book->header();
    if (header.mode != config_.geometry.mode)
      throw std::invalid_argument{
          "DeploymentEngine: codebook surface mode does not match the "
          "deployment geometry"};
    if (header.config_hash !=
        codebook::deployment_config_hash(config_, engine_.stack()))
      throw codebook::CodebookStaleError{
          "DeploymentEngine: codebook was compiled for a different "
          "deployment configuration (config-hash mismatch); recompile it"};
    if (!book->covers_frequency(config_.frequency))
      throw std::out_of_range{
          "DeploymentEngine: deployment frequency lies outside the "
          "codebook's compiled frequency axis"};
  } catch (const std::exception& e) {
    reason = e.what();
    book.reset();
  }
  DeploymentReport report =
      book ? run_codebook(devices, *book) : run(devices);
  report.used_codebook = book.has_value();
  report.codebook_fallback_reason = reason;
  return report;
}

void DeploymentEngine::finalize_report(const std::vector<DeviceSpec>& devices,
                                       DeploymentReport& report) {
  // Per-surface scheduling and network-wide aggregation (serial: cheap).
  report.noise_floor = receiver_.noise_floor_dbm();
  const control::PolarizationScheduler scheduler{config_.scheduler};
  report.surfaces.resize(config_.n_surfaces);
  for (std::size_t s = 0; s < config_.n_surfaces; ++s)
    report.surfaces[s].surface = s;
  for (std::size_t i = 0; i < report.devices.size(); ++i)
    report.surfaces[report.devices[i].surface].device_ids.push_back(i);

  // Phase 1: every surface's schedule, so the leakage pass below can see
  // what biases the OTHER surfaces actually air.
  std::vector<std::vector<control::DeviceEntry>> surface_entries(
      config_.n_surfaces);
  for (SurfaceReport& sr : report.surfaces) {
    std::vector<control::DeviceEntry>& entries = surface_entries[sr.surface];
    entries.reserve(sr.device_ids.size());
    for (std::size_t id : sr.device_ids) {
      const DeviceResult& d = report.devices[id];
      entries.push_back(control::DeviceEntry{
          d.name, d.sweep.best_vx, d.sweep.best_vy, d.optimized_power,
          d.unoptimized_power, devices[id].traffic_weight});
    }
    sr.slots = scheduler.build_schedule(entries);
    sr.scheduled_power = scheduler.expected_power(entries, sr.slots);
  }

  // Phase 2: cross-surface leakage. Each non-serving surface airs its own
  // schedule's biases; the interference a device hears from it is the
  // slot-fraction-weighted power of the leakage path at each aired bias.
  if (config_.interference.enable_leakage && config_.n_surfaces > 1) {
    const channel::SceneSpec scene_spec =
        device_scene_spec(config_.n_surfaces, config_.interference);
    const common::Frequency f = config_.frequency;
    const metasurface::SurfaceMode mode = config_.geometry.mode;
    // Each surface's aired slot responses, resolved once per round (M x
    // slots lookups) rather than once per listening device.
    std::vector<std::vector<em::JonesMatrix>> aired(config_.n_surfaces);
    for (const SurfaceReport& sr : report.surfaces) {
      aired[sr.surface].reserve(sr.slots.size());
      for (const control::ScheduleSlot& slot : sr.slots)
        aired[sr.surface].push_back(
            engine_.response(f, mode, slot.vx, slot.vy));
    }
    for (std::size_t i = 0; i < report.devices.size(); ++i) {
      DeviceResult& d = report.devices[i];
      const channel::PropagationScene scene =
          channel::PropagationScene::from_spec(
              config_.tx_antenna,
              config_.rx_antenna.oriented(devices[i].orientation),
              config_.geometry, config_.environment, scene_spec);
      // Leakage paths appear in scene order; scene leakage index k maps to
      // the k-th deployment surface != d.surface, ascending.
      std::vector<std::size_t> leakage_paths;
      for (std::size_t p = 0; p < scene.paths().size(); ++p)
        if (scene.paths()[p].kind == channel::PathKind::kLeakage)
          leakage_paths.push_back(p);
      std::vector<const em::JonesMatrix*> responses(scene.surface_count(),
                                                    nullptr);
      double leak_mw = 0.0;
      std::size_t k = 0;
      for (std::size_t s = 0; s < config_.n_surfaces; ++s) {
        if (s == d.surface) continue;
        const std::size_t leak_surface = k + 1;  // scene id of this surface
        const std::vector<control::ScheduleSlot>& slots =
            report.surfaces[s].slots;
        for (std::size_t j = 0; j < slots.size(); ++j) {
          responses[leak_surface] = &aired[s][j];
          leak_mw +=
              slots[j].slot_fraction *
              scene.path_power(leakage_paths[k], config_.tx_power, f,
                               responses)
                  .value();
          responses[leak_surface] = nullptr;
        }
        ++k;
      }
      d.leakage = common::PowerMw{leak_mw};
      report.total_leakage += d.leakage;
      if (d.leakage.value() > report.max_leakage.value())
        report.max_leakage = d.leakage;
    }
  }

  // Phase 3: SINR-based aggregation — each link's noise is rate_noise plus
  // its own leakage (exactly rate_noise when the model is disabled).
  std::size_t links = 0;
  double ber_sum = 0.0;
  double raw_ber_sum = 0.0;
  for (SurfaceReport& sr : report.surfaces) {
    const std::vector<control::DeviceEntry>& entries =
        surface_entries[sr.surface];
    for (std::size_t k = 0; k < sr.scheduled_power.size(); ++k) {
      const common::PowerDbm sched = sr.scheduled_power[k];
      const common::PowerDbm raw = entries[k].unoptimized_power;
      const common::PowerMw leak = report.devices[sr.device_ids[k]].leakage;
      const common::PowerDbm noise =
          leak.value() > 0.0
              ? common::PowerMw{config_.rate_noise.to_mw().value() +
                                leak.value()}
                    .to_dbm()
              : config_.rate_noise;
      report.sum_capacity_bits_per_hz +=
          channel::capacity_bits_per_hz(sched, noise);
      report.unassisted_capacity_bits_per_hz +=
          channel::capacity_bits_per_hz(raw, noise);
      ber_sum += channel::ber_qpsk((sched - noise).value());
      raw_ber_sum += channel::ber_qpsk((raw - noise).value());
      ++links;
    }
  }
  report.mean_ber = links > 0 ? ber_sum / static_cast<double>(links) : 0.0;
  report.unassisted_mean_ber =
      links > 0 ? raw_ber_sum / static_cast<double>(links) : 0.0;
  report.cache_stats = engine_.cache_stats();
  report.plan_count = engine_.plan_count();
}

}  // namespace llama::deploy
