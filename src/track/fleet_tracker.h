// Fleet-scale tracking: N independent per-device TrackingLoops sharded
// across a deployment's M surfaces with common::parallel_for.
//
// Each device shard stands up its own LlamaSystem (from the deployment's
// shared link parameters via core::device_system_config), orientation
// process, and policy instance. The only state shards share is the
// tracker's metasurface::SharedResponseEngine, bound to every plant's
// surface: a thread-safe store of pure lattice responses, kept across
// run() calls so repeated episodes start warm. Combined with the loops'
// deterministic expected-power measurement model, a fleet run is
// byte-identical for any thread count — the same contract as
// deploy::DeploymentEngine and the codebook compiler. Devices are assigned
// to surfaces by deploy::assigned_surface (explicit index or round-robin),
// and per-surface aggregates expose which surface's supply is saturated by
// retune airtime.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/channel/mobility.h"
#include "src/deploy/deployment_engine.h"
#include "src/fault/fault_plan.h"
#include "src/fault/health_monitor.h"
#include "src/track/tracking_loop.h"

namespace llama::track {

/// Builds one device's orientation trajectory; called once per run inside
/// the device's shard. Must be deterministic for the fleet's determinism
/// contract to hold.
using ProcessFactory =
    std::function<std::unique_ptr<channel::OrientationProcess>()>;

/// Builds one device's policy instance; called once per device per run.
using PolicyFactory = std::function<std::unique_ptr<RetunePolicy>()>;

/// One mobile endpoint of a tracked fleet.
struct FleetDeviceSpec {
  std::string name;
  ProcessFactory process;
  /// Surface serving this device; -1 assigns round-robin by index (or
  /// nearest-surface when the deployment carries a city layout).
  int surface = -1;
  /// Device position on the deployment plane; required when
  /// deployment.layout is non-empty (the city-scale path), ignored
  /// otherwise.
  std::optional<channel::Point2> position;
};

/// Fleet-wide parameters: the deployment's shared link configuration
/// (surfaces, geometry, antennas, receiver, per-shard thread count) plus the
/// per-device loop options.
struct FleetConfig {
  deploy::DeploymentConfig deployment{};
  TrackingLoop::Options loop{};
  /// Scheduled fault plan driving every shard's fault layer; nullptr runs
  /// the fleet healthy. Shared so scenario builders hand the identical plan
  /// to the tracker, benches, and serialization round-trips. Mutually
  /// exclusive with interference.enable_leakage (the lockstep snapshot path
  /// does not carry the health/reassignment machinery).
  std::shared_ptr<const fault::FaultPlan> faults;
  /// Health state-machine thresholds for the faulted run.
  fault::HealthMonitor::Options health{};
};

/// One device's tracking outcome.
struct DeviceTrackResult {
  std::string name;
  /// Surface serving the device at the end of the run (may differ from
  /// home_surface after a health reassignment).
  std::size_t surface = 0;
  /// Surface the roster originally assigned.
  std::size_t home_surface = 0;
  TrackReport report;
};

/// Per-surface aggregate: how much of the surface's supply the fleet's
/// retuning consumed, and how its devices fared.
struct SurfaceTrackSummary {
  std::size_t surface = 0;
  std::size_t device_count = 0;
  double mean_outage_fraction = 0.0;
  long retune_count = 0;
  double retune_airtime_s = 0.0;
  double sum_delivered_mbps = 0.0;
};

/// Outcome of one fleet run.
struct FleetReport {
  std::vector<DeviceTrackResult> devices;
  std::vector<SurfaceTrackSummary> surfaces;
  double mean_outage_fraction = 0.0;
  long retune_count = 0;
  double retune_airtime_s = 0.0;
  double mean_retune_latency_s = 0.0;
  double sum_delivered_mbps = 0.0;
  /// Fault-layer observability (all zero/empty for a healthy run).
  long dropped_measurements = 0;
  /// Device -> surface moves the health monitor triggered (evacuations,
  /// canary trials, and probation homecomings).
  long reassignments = 0;
  long health_transitions = 0;
  /// Final per-surface health; empty when no fault plan was installed.
  std::vector<fault::SurfaceHealth> surface_health;
};

class FleetTracker {
 public:
  /// Builds the fleet's response engine for the prototype stack at
  /// config.deployment.cache (no plane or block work: it fills lazily).
  /// Throws std::invalid_argument when the deployment has no surfaces or a
  /// non-positive loop tick.
  explicit FleetTracker(FleetConfig config);

  /// Tracks every device for `ticks` steps (sharded over
  /// config.deployment.threads workers; byte-identical for any value).
  /// Throws std::invalid_argument on a missing process/policy factory or
  /// ticks <= 0, and std::out_of_range when a spec names a surface index
  /// >= n_surfaces.
  ///
  /// With config.deployment.interference.enable_leakage set (and M > 1)
  /// the fleet runs in tick lockstep: every device's scene carries the
  /// other surfaces as leakage paths, frozen per tick at the snapshot of
  /// what those surfaces aired at the previous tick's end (a surface
  /// serving several devices airs their mean response). One device's
  /// retune therefore perturbs its neighbors' measured power on the next
  /// tick — the paper's scaling question made observable — while the
  /// one-tick-delayed snapshot keeps the run byte-identical for any
  /// thread count.
  ///
  /// With a city layout (deployment.layout non-empty) the independent
  /// path serves each device from its nearest placed surface, overrides
  /// the link geometry with the device's real serving distance, and
  /// shards the device loop over spatial cells (each worker owns whole
  /// cells). Cell assignment is a function of the layout only, so the
  /// byte-identity contract is unchanged. Devices then need positions
  /// (std::invalid_argument otherwise); combining a layout with leakage
  /// lockstep or a fault plan is rejected at construction.
  [[nodiscard]] FleetReport run(const std::vector<FleetDeviceSpec>& devices,
                                const PolicyFactory& make_policy, long ticks);

  [[nodiscard]] const FleetConfig& config() const { return config_; }
  /// The response engine every device plant and snapshot surface shares.
  [[nodiscard]] metasurface::SharedResponseEngine& response_engine() {
    return *engine_;
  }

 private:
  /// Independent per-device shards (no cross-surface coupling).
  void run_independent(const std::vector<FleetDeviceSpec>& devices,
                       const PolicyFactory& make_policy, long ticks,
                       FleetReport& report) const;
  /// Tick-lockstep shards with per-tick neighbor-surface snapshots.
  void run_lockstep(const std::vector<FleetDeviceSpec>& devices,
                    const PolicyFactory& make_policy, long ticks,
                    FleetReport& report) const;
  /// Faulted mode: parallel per-tick stepping under the configured fault
  /// plan, followed by a serial health pass that walks the per-surface
  /// state machines and reassigns devices away from quarantined surfaces
  /// (and back, through the probation canary protocol). The health pass is
  /// serial and evidence is read from each shard's completed tick, so the
  /// run stays byte-identical for any thread count.
  void run_faulted(const std::vector<FleetDeviceSpec>& devices,
                   const PolicyFactory& make_policy, long ticks,
                   FleetReport& report) const;

  FleetConfig config_;
  std::shared_ptr<metasurface::SharedResponseEngine> engine_;
};

}  // namespace llama::track
