#include "src/deploy/deployment_engine.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <span>
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
#include "src/kernel/jones_kernels.h"

namespace llama::deploy {

namespace {

/// Top of the bias supply range [V]; biases clamp to [0, kMaxBiasV].
constexpr double kMaxBiasV = 30.0;

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

/// One (frequency, mode) plane: the plan's cell cascade plus, per bias
/// axis, one slot per lattice block. A slot is null until its block is
/// filled; a filled block holds kBlockQuanta entries of `stride` doubles
/// (entry i of the block at offset i * stride: each channel's (re, im), the
/// solve_axis_entries layout). Blocks are allocated as they fill, so an
/// engine holds memory only for the blocks its lookups touched.
struct SharedResponseEngine::AxisPlane {
  AxisPlane(kernel::CellCascade cell_cascade, common::Frequency f,
            metasurface::SurfaceMode surface_mode, std::size_t n_blocks)
      : hz(f.in_hz()),
        mode(surface_mode),
        cells(std::move(cell_cascade)),
        stride(2 * cells.channels().size()) {
    for (auto& slots : blocks)
      slots = std::make_unique<std::atomic<const double*>[]>(n_blocks);
  }

  /// Published entry `index` of `axis`, or null while its block is
  /// unfilled. Lock-free.
  [[nodiscard]] const double* entry(std::size_t axis, std::size_t index) const {
    const double* block =
        blocks[axis][index / kBlockQuanta].load(std::memory_order_acquire);
    return block == nullptr ? nullptr
                            : block + (index % kBlockQuanta) * stride;
  }

  const double hz;
  const metasurface::SurfaceMode mode;
  const kernel::CellCascade cells;
  const std::size_t stride;  ///< doubles per entry
  std::array<std::unique_ptr<std::atomic<const double*>[]>, 2> blocks;
  /// Owns every filled block; appended under the fill mutex.
  std::vector<std::unique_ptr<double[]>> storage;
  /// The plane published before this one.
  AxisPlane* previous = nullptr;
};

namespace {

std::size_t checked_lattice_entries(double quantum_v) {
  if (!std::isfinite(quantum_v) || quantum_v <= 0.0)
    throw std::invalid_argument{
        "SharedResponseEngine: voltage quantum must be finite and > 0"};
  const double last = std::round(kMaxBiasV / quantum_v);
  if (!(last < static_cast<double>(SharedResponseEngine::kMaxLatticeEntries)))
    throw std::invalid_argument{
        "SharedResponseEngine: voltage quantum too fine (lattice over 2^25 "
        "entries)"};
  return static_cast<std::size_t>(last) + 1;
}

}  // namespace

SharedResponseEngine::SharedResponseEngine(
    metasurface::RotatorStack stack, metasurface::ResponseCacheConfig cache)
    : stack_(std::move(stack)),
      quantum_v_(cache.voltage_quantum_v),
      lattice_entries_(checked_lattice_entries(cache.voltage_quantum_v)) {}

SharedResponseEngine::~SharedResponseEngine() = default;

std::size_t SharedResponseEngine::lattice_index(common::Voltage v) const {
  if (std::isnan(v.value()))
    throw std::invalid_argument{"SharedResponseEngine: NaN bias"};
  const std::size_t index = static_cast<std::size_t>(
      std::llround(common::clamp(v.value(), 0.0, kMaxBiasV) / quantum_v_));
  LLAMA_INVARIANT(index < lattice_entries_, "clamped bias inside the lattice");
  return index;
}

SharedResponseEngine::AxisPlane& SharedResponseEngine::plane(
    common::Frequency f, metasurface::SurfaceMode mode) {
  const double hz = f.in_hz();
  if (std::isnan(hz))
    throw std::invalid_argument{"SharedResponseEngine: NaN frequency"};
  // -0.0 == 0.0, so both signed zeros find one plane.
  const auto find = [&]() -> AxisPlane* {
    for (AxisPlane* p = newest_plane_.load(std::memory_order_acquire);
         p != nullptr; p = p->previous)
      if (p->hz == hz && p->mode == mode) return p;
    return nullptr;
  };
  if (AxisPlane* p = find()) return *p;
  const std::lock_guard<CountedMutex> lock(fill_mutex_);
  if (AxisPlane* p = find()) return *p;
  auto fresh = std::make_unique<AxisPlane>(
      mode == metasurface::SurfaceMode::kTransmissive
          ? kernel::TransmissionCascade{stack_, stack_.plan_transmission(f)}
                .cells()
          : kernel::reflection_cells(stack_, stack_.plan_reflection(f)),
      f, mode, (lattice_entries_ + kBlockQuanta - 1) / kBlockQuanta);
  fresh->previous = newest_plane_.load(std::memory_order_acquire);
  AxisPlane* published = fresh.get();
  planes_.push_back(std::move(fresh));
  newest_plane_.store(published, std::memory_order_release);
  return *published;
}

const double* SharedResponseEngine::fill(AxisPlane& plane, std::size_t axis,
                                         std::size_t index) {
  if (const double* ready = plane.entry(axis, index)) return ready;
  // Solve the block's fixed index range [first, first + n): the same biases
  // whichever lookup gets here first.
  const std::size_t block = index / kBlockQuanta;
  const std::size_t first = block * kBlockQuanta;
  const std::size_t n = std::min(kBlockQuanta, lattice_entries_ - first);
  std::array<double, kBlockQuanta> biases{};
  for (std::size_t i = 0; i < n; ++i)
    biases[i] = static_cast<double>(first + i) * quantum_v_;
  auto values = std::make_unique<double[]>(
      std::max<std::size_t>(1, kBlockQuanta * plane.stride));
  kernel::solve_axis_entries(
      plane.cells.channels(),
      axis == 0 ? kernel::BiasAxis::kX : kernel::BiasAxis::kY,
      std::span<const double>{biases.data(), n}, values.get());
  const double* published = values.get();
  plane.storage.push_back(std::move(values));
  plane.blocks[axis][block].store(published, std::memory_order_release);
  ++filled_blocks_;
  return plane.entry(axis, index);
}

void SharedResponseEngine::count(std::uint64_t hits, std::uint64_t misses) {
  // llama-lint: allow(relaxed-atomic) monotone stats tally, not ordering
  if (hits != 0) hits_.fetch_add(hits, std::memory_order_relaxed);
  // llama-lint: allow(relaxed-atomic) monotone stats tally, not ordering
  if (misses != 0) misses_.fetch_add(misses, std::memory_order_relaxed);
}

em::JonesMatrix SharedResponseEngine::response(common::Frequency f,
                                               metasurface::SurfaceMode mode,
                                               common::Voltage vx,
                                               common::Voltage vy) {
  const std::size_t ix = lattice_index(vx);
  const std::size_t iy = lattice_index(vy);
  AxisPlane& p = plane(f, mode);
  const double* x = p.entry(0, ix);
  const double* y = p.entry(1, iy);
  const bool miss = x == nullptr || y == nullptr;
  if (miss) {
    const std::lock_guard<CountedMutex> lock(fill_mutex_);
    x = fill(p, 0, ix);
    y = fill(p, 1, iy);
  }
  count(miss ? 0 : 1, miss ? 1 : 0);
  return p.cells.eval(x, y);
}

metasurface::JonesGrid SharedResponseEngine::response_grid(
    common::Frequency f, metasurface::SurfaceMode mode,
    const std::vector<double>& vxs, const std::vector<double>& vys) {
  const std::size_t nx = vxs.size();
  const std::size_t ny = vys.size();
  // The window's lattice indices, X then Y (validated before any work).
  std::vector<std::size_t> index(nx + ny);
  for (std::size_t i = 0; i < nx; ++i)
    index[i] = lattice_index(common::Voltage{vxs[i]});
  for (std::size_t i = 0; i < ny; ++i)
    index[nx + i] = lattice_index(common::Voltage{vys[i]});
  metasurface::JonesGrid grid(ny, std::vector<em::JonesMatrix>(nx));
  if (nx == 0 || ny == 0) return grid;

  // Resolve both axes lock-free; fill every unfilled block under one lock.
  AxisPlane& p = plane(f, mode);
  const auto axis_of = [nx](std::size_t i) { return i < nx ? 0 : 1; };
  std::vector<const double*> entry(nx + ny);
  std::array<std::size_t, 2> unfilled{0, 0};
  for (std::size_t i = 0; i < nx + ny; ++i) {
    entry[i] = p.entry(axis_of(i), index[i]);
    if (entry[i] == nullptr) ++unfilled[axis_of(i)];
  }
  if (unfilled[0] + unfilled[1] != 0) {
    const std::lock_guard<CountedMutex> lock(fill_mutex_);
    for (std::size_t i = 0; i < nx + ny; ++i)
      if (entry[i] == nullptr) entry[i] = fill(p, axis_of(i), index[i]);
  }
  // A cell misses when either of its entries was unfilled.
  const std::uint64_t hits =
      static_cast<std::uint64_t>(nx - unfilled[0]) * (ny - unfilled[1]);
  count(hits, nx * ny - hits);

  // Each column's X half and each row's Y half once (X columns first, then
  // Y rows), then one combine per cell: the same arithmetic as response()'s
  // eval.
  const kernel::CellCascade& cells = p.cells;
  const std::size_t stride = cells.terms_size();
  std::vector<double> halves((nx + ny) * stride);
  for (std::size_t i = 0; i < nx + ny; ++i)
    cells.axis_terms(i < nx ? kernel::BiasAxis::kX : kernel::BiasAxis::kY,
                     entry[i], halves.data() + i * stride);
  const double* const y_halves = halves.data() + nx * stride;
  for (std::size_t iy = 0; iy < ny; ++iy)
    for (std::size_t ix = 0; ix < nx; ++ix)
      grid[iy][ix] = cells.combine(halves.data() + ix * stride,
                                   y_halves + iy * stride);
  return grid;
}

std::size_t SharedResponseEngine::plan_count() const {
  const std::lock_guard<CountedMutex> lock(fill_mutex_);
  return planes_.size();
}

metasurface::ResponseCacheStats SharedResponseEngine::cache_stats() const {
  metasurface::ResponseCacheStats stats;
  // llama-lint: allow(relaxed-atomic) racy snapshot of a stats counter
  stats.hits = hits_.load(std::memory_order_relaxed);
  // llama-lint: allow(relaxed-atomic) racy snapshot of a stats counter
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.lock_contention = fill_mutex_.contended();
  return stats;
}

std::size_t SharedResponseEngine::cache_size() const {
  const std::lock_guard<CountedMutex> lock(fill_mutex_);
  return filled_blocks_;
}

void SharedResponseEngine::clear() {
  {
    const std::lock_guard<CountedMutex> lock(fill_mutex_);
    newest_plane_.store(nullptr, std::memory_order_release);
    planes_.clear();
    filled_blocks_ = 0;
  }
  // clear() zeroes ALL statistics, the contention tally included.
  // llama-lint: allow(relaxed-atomic) stats counter zeroing, no ordering
  hits_.store(0, std::memory_order_relaxed);
  // llama-lint: allow(relaxed-atomic) stats counter zeroing, no ordering
  misses_.store(0, std::memory_order_relaxed);
  fill_mutex_.reset();
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
