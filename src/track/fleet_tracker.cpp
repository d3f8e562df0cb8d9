#include "src/track/fleet_tracker.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "src/channel/spatial_index.h"
#include "src/common/contracts.h"
#include "src/common/parallel.h"
#include "src/core/scenarios.h"
#include "src/fault/fault_injector.h"
#include "src/metasurface/response_engine.h"

namespace llama::track {

namespace {

/// One device's whole plant: every shard owns its own copies, so the
/// fan-out shares nothing but the thread-safe response engine.
struct Shard {
  std::unique_ptr<core::LlamaSystem> system;
  std::unique_ptr<channel::OrientationProcess> process;
  std::unique_ptr<RetunePolicy> policy;
  std::unique_ptr<TrackingLoop> loop;
  std::size_t surface = 0;
};

Shard make_shard(
    const FleetConfig& config,
    const std::shared_ptr<metasurface::SharedResponseEngine>& engine,
    const FleetDeviceSpec& spec, std::size_t index,
    std::optional<std::size_t> serving = std::nullopt,
    const std::optional<channel::LinkGeometry>& geometry = std::nullopt) {
  Shard shard;
  core::SystemConfig cfg = core::device_system_config(
      config.deployment, common::Angle::degrees(0.0));
  // City path: the device's real serving distance replaces the template
  // geometry (the layout decided it, deterministically, before the fan-out).
  if (geometry) cfg.geometry = *geometry;
  shard.system = std::make_unique<core::LlamaSystem>(std::move(cfg));
  // Tracking revisits lattice biases constantly (codebook hits, the
  // re-sweep's coarse window); the fleet's engine keeps per-tick probes
  // cheap and shares every filled block across plants.
  shard.system->enable_fast_probes(engine);
  shard.process = spec.process();
  shard.surface = serving ? *serving
                          : deploy::assigned_surface(
                                spec.surface, index,
                                config.deployment.n_surfaces);
  LLAMA_ENSURES(shard.surface < config.deployment.n_surfaces,
                "every shard serves a surface inside the deployment");
  return shard;
}

}  // namespace

FleetTracker::FleetTracker(FleetConfig config)
    : config_(std::move(config)),
      engine_(std::make_shared<metasurface::SharedResponseEngine>(
          metasurface::prototype_fr4_design(), config_.deployment.cache)) {
  if (config_.deployment.n_surfaces == 0)
    throw std::invalid_argument{"FleetTracker: need >= 1 surface"};
  if (config_.loop.dt_s <= 0.0)
    throw std::invalid_argument{"FleetTracker: loop tick must be positive"};
  if (config_.faults && config_.deployment.interference.enable_leakage)
    throw std::invalid_argument{
        "FleetTracker: a fault plan and cross-surface leakage cannot be "
        "combined (the lockstep snapshot path has no health machinery)"};
  if (!config_.deployment.layout.empty()) {
    if (config_.deployment.layout.positions.size() !=
        config_.deployment.n_surfaces)
      throw std::invalid_argument{
          "FleetTracker: layout.positions.size() must equal n_surfaces"};
    if (config_.faults || config_.deployment.interference.enable_leakage)
      throw std::invalid_argument{
          "FleetTracker: the city layout path runs independent shards only "
          "(no fault plan or leakage lockstep)"};
  }
  if (config_.faults) fault::validate(*config_.faults);
}

void FleetTracker::run_independent(const std::vector<FleetDeviceSpec>& devices,
                                   const PolicyFactory& make_policy,
                                   long ticks, FleetReport& report) const {
  const channel::SurfaceLayout& layout = config_.deployment.layout;
  if (!layout.empty()) {
    // City path. Serving assignment, per-device geometry and the cell ->
    // device grouping are all computed serially from the layout alone, so
    // the fan-out below inherits them identically for any thread count.
    const channel::SpatialSurfaceIndex index{layout.positions,
                                             layout.prune.cell_size_m};
    std::vector<std::size_t> serving(devices.size());
    std::vector<channel::LinkGeometry> geometry(devices.size());
    std::vector<std::vector<std::size_t>> cells(index.cell_count());
    for (std::size_t i = 0; i < devices.size(); ++i) {
      serving[i] = devices[i].surface >= 0
                       ? static_cast<std::size_t>(devices[i].surface)
                       : index.nearest(*devices[i].position);
      channel::LinkGeometry g = config_.deployment.geometry;
      g.tx_rx_distance_m =
          g.tx_surface_distance_m +
          std::max(channel::distance_m(*devices[i].position,
                                       layout.positions[serving[i]]),
                   1e-3);
      geometry[i] = g;
      cells[static_cast<std::size_t>(index.cell_of(serving[i]))].push_back(i);
    }
    // Shard = spatial cell: each worker owns its cells' whole plants and
    // writes only its own devices' result slots.
    common::parallel_for(
        cells.size(), config_.deployment.threads, [&](std::size_t c) {
          for (std::size_t i : cells[c]) {
            Shard shard =
                make_shard(config_, engine_, devices[i], i, serving[i],
                           geometry[i]);
            const std::unique_ptr<RetunePolicy> policy = make_policy();
            TrackingLoop loop{*shard.system, *shard.process, *policy,
                              config_.loop};
            DeviceTrackResult& out = report.devices[i];
            out.name = devices[i].name;
            out.surface = shard.surface;
            out.home_surface = shard.surface;
            out.report = loop.run(ticks);
          }
        });
    return;
  }

  // Each shard owns its whole plant (system, process, policy) and writes
  // only its own result slot, so the fan-out is embarrassingly parallel and
  // deterministic for any thread count.
  common::parallel_for(
      devices.size(), config_.deployment.threads, [&](std::size_t i) {
        Shard shard = make_shard(config_, engine_, devices[i], i);
        const std::unique_ptr<RetunePolicy> policy = make_policy();
        TrackingLoop loop{*shard.system, *shard.process, *policy,
                          config_.loop};
        DeviceTrackResult& out = report.devices[i];
        out.name = devices[i].name;
        out.surface = shard.surface;
        out.home_surface = shard.surface;
        out.report = loop.run(ticks);
      });
}

void FleetTracker::run_lockstep(const std::vector<FleetDeviceSpec>& devices,
                                const PolicyFactory& make_policy, long ticks,
                                FleetReport& report) const {
  const std::size_t n_surfaces = config_.deployment.n_surfaces;
  const common::Frequency f = config_.deployment.frequency;
  const metasurface::SurfaceMode mode = config_.deployment.geometry.mode;

  // Plants are built serially, in device order, so the run never depends on
  // construction interleaving.
  std::vector<Shard> shards;
  shards.reserve(devices.size());
  for (std::size_t i = 0; i < devices.size(); ++i) {
    Shard shard = make_shard(config_, engine_, devices[i], i);
    shard.policy = make_policy();
    shard.loop = std::make_unique<TrackingLoop>(*shard.system, *shard.process,
                                                *shard.policy, config_.loop);
    shard.loop->begin(ticks);
    shards.push_back(std::move(shard));
  }

  // Every deployment surface is the same fabricated stack; the fleet's
  // engine serves the snapshot responses.
  metasurface::Metasurface snapshot_surface =
      metasurface::Metasurface::llama_prototype();
  snapshot_surface.share_response_engine(engine_);

  // What each surface aired at the previous tick's end; nullopt until its
  // first tick (cold surfaces are absent from neighbors' scenes). The
  // one-tick delay is what keeps the tick fan-out deterministic: every
  // shard reads the same immutable snapshot.
  std::vector<std::optional<em::JonesMatrix>> aired(n_surfaces);

  for (long t = 0; t < ticks; ++t) {
    // Each shard writes only its own shards[i] plant; `aired` is read-only
    // inside the tick and republished serially after the join below.
    common::parallel_for(
        devices.size(), config_.deployment.threads, [&](std::size_t i) {
          Shard& shard = shards[i];
          // Scene leakage index k enumerates the deployment surfaces this
          // device is NOT served by, ascending — the same order
          // deploy::device_scene_spec laid the scene out in.
          std::vector<std::optional<em::JonesMatrix>> externals;
          externals.reserve(n_surfaces - 1);
          for (std::size_t s = 0; s < n_surfaces; ++s)
            if (s != shard.surface) externals.push_back(aired[s]);
          shard.system->set_external_responses(std::move(externals));
          shard.loop->step();
        });

    // Refresh the snapshot from this tick's end-state biases (serial, in
    // device order). A surface time-shares its devices; its neighbors hear
    // the mean of the biases it airs.
    std::vector<em::JonesMatrix> sum(
        n_surfaces, em::JonesMatrix{em::Complex{0.0, 0.0}, em::Complex{0.0, 0.0},
                                    em::Complex{0.0, 0.0}, em::Complex{0.0, 0.0}});
    std::vector<std::size_t> count(n_surfaces, 0);
    for (const Shard& shard : shards) {
      const metasurface::Metasurface& dev_surface = shard.system->surface();
      snapshot_surface.set_bias(dev_surface.bias_x(), dev_surface.bias_y());
      sum[shard.surface] =
          sum[shard.surface] + snapshot_surface.response(f, mode);
      ++count[shard.surface];
    }
    for (std::size_t s = 0; s < n_surfaces; ++s)
      if (count[s] > 0)
        aired[s] = em::Complex{1.0 / static_cast<double>(count[s]), 0.0} *
                   sum[s];
  }

  for (std::size_t i = 0; i < devices.size(); ++i) {
    DeviceTrackResult& out = report.devices[i];
    out.name = devices[i].name;
    out.surface = shards[i].surface;
    out.home_surface = shards[i].surface;
    out.report = shards[i].loop->finish();
  }
}

void FleetTracker::run_faulted(const std::vector<FleetDeviceSpec>& devices,
                               const PolicyFactory& make_policy, long ticks,
                               FleetReport& report) const {
  const std::size_t n_surfaces = config_.deployment.n_surfaces;
  const fault::FaultInjector injector{*config_.faults};
  fault::HealthMonitor monitor{n_surfaces, config_.health};

  // Plants are built serially, in device order (same rationale as the
  // lockstep mode: construction interleaving must not matter).
  std::vector<Shard> shards;
  shards.reserve(devices.size());
  std::vector<std::size_t> current;  // serving surface, may drift from home
  current.reserve(devices.size());
  for (std::size_t i = 0; i < devices.size(); ++i) {
    Shard shard = make_shard(config_, engine_, devices[i], i);
    shard.policy = make_policy();
    shard.loop = std::make_unique<TrackingLoop>(*shard.system, *shard.process,
                                                *shard.policy, config_.loop);
    shard.loop->begin(ticks);
    shard.loop->set_fault_context({&injector, i, shard.surface});
    current.push_back(shard.surface);
    shards.push_back(std::move(shard));
  }

  // Lowest-index serving surface, healthy rungs first; refugees are never
  // parked on a probation surface (it serves its canary only).
  const auto pick_target =
      [&monitor, n_surfaces](std::size_t avoid) -> std::optional<std::size_t> {
    for (const fault::SurfaceHealth want :
         {fault::SurfaceHealth::kHealthy, fault::SurfaceHealth::kDegraded})
      for (std::size_t s = 0; s < n_surfaces; ++s)
        if (s != avoid && monitor.health(s) == want) return s;
    return std::nullopt;
  };

  const auto move_device = [&](std::size_t i, std::size_t target) {
    current[i] = target;
    shards[i].loop->set_fault_context({&injector, i, target});
    // Fresh policy episode on the new surface: a ladder parked in
    // direct-only against the dead surface must start over on the live one.
    shards[i].loop->rebind_policy();
    ++report.reassignments;
  };

  std::vector<fault::SurfaceHealth> prev_health(
      n_surfaces, fault::SurfaceHealth::kHealthy);

  for (long t = 0; t < ticks; ++t) {
    // Each shard writes only its own shards[i] plant; health evidence is
    // gathered by the serial pass below, after the join.
    common::parallel_for(devices.size(), config_.deployment.threads,
                         [&](std::size_t i) { shards[i].loop->step(); });

    // Serial health pass. Evidence is power-based (below the outage floor),
    // NOT duty-based: a surface whose devices all happen to burn a tick
    // re-sweeping is busy, not broken.
    const double t_s = static_cast<double>(t) * config_.loop.dt_s;
    std::vector<fault::HealthMonitor::TickEvidence> evidence(n_surfaces);
    for (std::size_t i = 0; i < shards.size(); ++i) {
      const std::optional<TrackTrace> last = shards[i].loop->last_tick();
      fault::HealthMonitor::TickEvidence& ev = evidence[current[i]];
      ++ev.devices;
      if (last && last->power < shards[i].loop->power_floor()) ++ev.in_outage;
    }
    for (std::size_t s = 0; s < n_surfaces; ++s)
      monitor.observe(s, evidence[s], t_s);

    // React to this tick's transitions (serial, surface order then device
    // order — deterministic).
    for (std::size_t s = 0; s < n_surfaces; ++s) {
      const fault::SurfaceHealth now = monitor.health(s);
      const fault::SurfaceHealth was = prev_health[s];
      prev_health[s] = now;
      if (now == was) continue;
      if (now == fault::SurfaceHealth::kQuarantined) {
        // Evacuate everyone currently on the surface (covers both the
        // first quarantine and a failed canary trial).
        const std::optional<std::size_t> target = pick_target(s);
        if (!target) continue;  // whole fleet sick; nowhere better
        for (std::size_t i = 0; i < shards.size(); ++i)
          if (current[i] == s) move_device(i, *target);
      } else if (now == fault::SurfaceHealth::kProbation) {
        // Trial re-admission: send the lowest-index displaced home device
        // back as the canary.
        for (std::size_t i = 0; i < shards.size(); ++i)
          if (shards[i].surface == s && current[i] != s) {
            move_device(i, s);
            break;
          }
      } else if (now == fault::SurfaceHealth::kHealthy &&
                 was == fault::SurfaceHealth::kProbation) {
        // Surface earned its way back: every displaced device goes home.
        for (std::size_t i = 0; i < shards.size(); ++i)
          if (shards[i].surface == s && current[i] != s) move_device(i, s);
      }
    }
  }

  for (std::size_t i = 0; i < devices.size(); ++i) {
    DeviceTrackResult& out = report.devices[i];
    out.name = devices[i].name;
    out.surface = current[i];
    out.home_surface = shards[i].surface;
    out.report = shards[i].loop->finish();
  }
  report.health_transitions = monitor.transition_count();
  report.surface_health.resize(n_surfaces);
  for (std::size_t s = 0; s < n_surfaces; ++s)
    report.surface_health[s] = monitor.health(s);
}

FleetReport FleetTracker::run(const std::vector<FleetDeviceSpec>& devices,
                              const PolicyFactory& make_policy, long ticks) {
  if (ticks <= 0) throw std::invalid_argument{"FleetTracker: need >= 1 tick"};
  if (!make_policy)
    throw std::invalid_argument{"FleetTracker: missing policy factory"};
  for (const FleetDeviceSpec& spec : devices) {
    if (!spec.process)
      throw std::invalid_argument{"FleetTracker: device '" + spec.name +
                                  "' has no orientation-process factory"};
    if (spec.surface >= 0 &&
        static_cast<std::size_t>(spec.surface) >=
            config_.deployment.n_surfaces)
      throw std::out_of_range{"FleetTracker: device '" + spec.name +
                              "' names surface " +
                              std::to_string(spec.surface) + " of " +
                              std::to_string(config_.deployment.n_surfaces)};
    if (!config_.deployment.layout.empty() && !spec.position)
      throw std::invalid_argument{
          "FleetTracker: device '" + spec.name +
          "' needs a position (the deployment carries a city layout)"};
  }

  FleetReport report;
  report.devices.resize(devices.size());

  const bool lockstep = config_.deployment.interference.enable_leakage &&
                        config_.deployment.n_surfaces > 1;
  if (config_.faults)
    run_faulted(devices, make_policy, ticks, report);
  else if (lockstep)
    run_lockstep(devices, make_policy, ticks, report);
  else
    run_independent(devices, make_policy, ticks, report);

  // Serial aggregation (cheap): per-surface and fleet-wide rollups.
  report.surfaces.resize(config_.deployment.n_surfaces);
  for (std::size_t s = 0; s < report.surfaces.size(); ++s)
    report.surfaces[s].surface = s;
  double outage_sum = 0.0;
  for (const DeviceTrackResult& d : report.devices) {
    LLAMA_INVARIANT(d.surface < report.surfaces.size(),
                    "device results roll up onto deployment surfaces");
    SurfaceTrackSummary& sr = report.surfaces[d.surface];
    ++sr.device_count;
    sr.mean_outage_fraction += d.report.outage_fraction;  // sum, for now
    sr.retune_count += d.report.retune_count;
    sr.retune_airtime_s += d.report.retune_airtime_s;
    sr.sum_delivered_mbps += d.report.mean_delivered_mbps;
    outage_sum += d.report.outage_fraction;
    report.retune_count += d.report.retune_count;
    report.retune_airtime_s += d.report.retune_airtime_s;
    report.sum_delivered_mbps += d.report.mean_delivered_mbps;
    report.dropped_measurements += d.report.dropped_measurements;
  }
  for (SurfaceTrackSummary& sr : report.surfaces)
    if (sr.device_count > 0)
      sr.mean_outage_fraction /= static_cast<double>(sr.device_count);
  if (!report.devices.empty())
    report.mean_outage_fraction =
        outage_sum / static_cast<double>(report.devices.size());
  report.mean_retune_latency_s =
      report.retune_count > 0
          ? report.retune_airtime_s / static_cast<double>(report.retune_count)
          : 0.0;
  return report;
}

}  // namespace llama::track
