// Multi-surface dense-deployment engine (paper Section 7 outlook at scale):
// one controller time-shares bias states across M metasurfaces serving N
// IoT devices.
//
// Two pieces:
//
//  - SharedResponseEngine: the Jones response of one stack design at any
//    (frequency, mode, bias pair), shared by every link of a deployment.
//    It keeps one axis plane per (frequency, mode). A bias-dependent
//    board's X response depends only on Vx and its Y response only on Vy,
//    so the plane holds every such board's per-axis S-parameters on two
//    1-D bias lattices, index i = llround(clamp(v, 0, 30 V) / q) (default
//    q = 1 mV, the ResponseCache quantization contract). The kernel layer
//    solves lattice entries (kernel::solve_axis_entries) in fixed blocks of
//    kBlockQuanta on first touch, and evaluates a cell from one X entry and
//    one Y entry (kernel::CellCascade).
//
//  - DeploymentEngine: shards the per-device Algorithm-1 optimizations over
//    common::parallel_for, then feeds each surface's per-device optima into
//    PolarizationScheduler and reports aggregate spectral efficiency
//    (channel::capacity) and BER (channel::ber) under the schedule.
//
// Thread-safety / determinism contract: a block is filled once, under the
// engine's one mutex, then published with a release store; lookups read
// published blocks with acquire loads and take no lock. A block always
// covers the same index range and every entry is a pure function of its
// own lattice bias, so an entry's value does not depend on which thread
// filled its block or in what order blocks were filled. Point and grid
// lookups run the same per-cell arithmetic, so a grid cell equals the
// pointwise lookup bit for bit, and the engine's results are
// byte-identical for any thread count — only the hit/miss split varies.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/channel/propagation_scene.h"
#include "src/channel/spatial_index.h"
#include "src/common/units.h"
#include "src/control/scheduler.h"
#include "src/control/sweep.h"
#include "src/metasurface/metasurface.h"
#include "src/radio/transceiver.h"

namespace llama::codebook {
class Codebook;
}  // namespace llama::codebook

namespace llama::deploy {

/// std::mutex with a contention tally: a lock() that cannot acquire
/// immediately counts one contended acquisition before blocking. The tally
/// is a monotone stats counter read through snapshots (never a
/// synchronization input), so relaxed ordering is exactly right — the lock
/// itself provides every happens-before edge the protected state needs.
/// Satisfies Lockable, so std::lock_guard/std::unique_lock work unchanged.
class CountedMutex {
 public:
  void lock() {
    if (mutex_.try_lock()) return;
    // llama-lint: allow(relaxed-atomic) monotone stats tally, not ordering
    contended_.fetch_add(1, std::memory_order_relaxed);
    mutex_.lock();
  }
  void unlock() { mutex_.unlock(); }
  [[nodiscard]] bool try_lock() { return mutex_.try_lock(); }

  /// Contended acquisitions since construction / the last reset().
  [[nodiscard]] std::uint64_t contended() const {
    // llama-lint: allow(relaxed-atomic) racy snapshot of a stats counter
    return contended_.load(std::memory_order_relaxed);
  }
  void reset() {
    // llama-lint: allow(relaxed-atomic) stats counter zeroing, no ordering
    contended_.store(0, std::memory_order_relaxed);
  }

 private:
  std::mutex mutex_;
  std::atomic<std::uint64_t> contended_{0};
};

/// Thread-safe shared response engine for one stack design, on lazily
/// solved per-axis lattice planes (see the file comment). All M surfaces of
/// a deployment are the same fabricated hardware, so one engine serves
/// every link regardless of which surface carries it.
class SharedResponseEngine {
 public:
  /// Lattice entries solved per block fill.
  static constexpr std::size_t kBlockQuanta = 64;
  /// Largest lattice (entries per axis) the engine accepts.
  static constexpr std::size_t kMaxLatticeEntries = std::size_t{1} << 25;

  /// Only `cache.voltage_quantum_v` is read; `capacity` does not apply (the
  /// planes never evict). Throws std::invalid_argument when the quantum is
  /// non-finite or <= 0, or when the 0-30 V lattice would exceed
  /// kMaxLatticeEntries entries.
  explicit SharedResponseEngine(metasurface::RotatorStack stack,
                                metasurface::ResponseCacheConfig cache = {});
  ~SharedResponseEngine();
  SharedResponseEngine(const SharedResponseEngine&) = delete;
  SharedResponseEngine& operator=(const SharedResponseEngine&) = delete;

  /// Response at a bias pair, each rail clamped to the 0-30 V supply range
  /// (so +-inf clamp to the rails) and snapped to the lattice. Safe to call
  /// from many threads; the returned matrix is a pure function of
  /// (frequency, lattice bias, mode). Throws std::invalid_argument on a NaN
  /// frequency or bias.
  [[nodiscard]] em::JonesMatrix response(common::Frequency f,
                                         metasurface::SurfaceMode mode,
                                         common::Voltage vx,
                                         common::Voltage vy);

  /// Batched variant over a whole bias window: grid[iy][ix] is the response
  /// at (vxs[ix], vys[iy]), bit-identical to pointwise response() calls. All
  /// of the window's missing blocks are filled under one lock acquisition.
  [[nodiscard]] metasurface::JonesGrid response_grid(
      common::Frequency f, metasurface::SurfaceMode mode,
      const std::vector<double>& vxs, const std::vector<double>& vys);

  /// Number of distinct (frequency, mode) axis planes built so far.
  [[nodiscard]] std::size_t plan_count() const;
  /// Lookup counters. Each point lookup or grid cell counts exactly one hit
  /// or one miss; a miss is a lookup that found one of its blocks unfilled
  /// and took the fill lock. evictions is always 0. lock_contention counts
  /// contended acquisitions of the fill mutex. Lock-free: safe to poll from
  /// a monitor while device shards are filling blocks.
  [[nodiscard]] metasurface::ResponseCacheStats cache_stats() const;
  /// Number of filled lattice blocks, over every plane and both axes.
  [[nodiscard]] std::size_t cache_size() const;
  /// Drops every plane and zeroes the statistics. Must not run concurrently
  /// with lookups: they read published blocks without a lock.
  void clear();

  [[nodiscard]] const metasurface::RotatorStack& stack() const {
    return stack_;
  }

 private:
  struct AxisPlane;

  /// Lattice index of a bias (throws on NaN).
  [[nodiscard]] std::size_t lattice_index(common::Voltage v) const;
  /// The plane for (f, mode): a lock-free scan of the published planes,
  /// building one under the fill mutex on first use.
  [[nodiscard]] AxisPlane& plane(common::Frequency f,
                                 metasurface::SurfaceMode mode);
  /// Entry `index` of `axis`, solving its block if still unfilled. Caller
  /// holds fill_mutex_.
  const double* fill(AxisPlane& plane, std::size_t axis, std::size_t index);
  void count(std::uint64_t hits, std::uint64_t misses);

  const metasurface::RotatorStack stack_;
  const double quantum_v_;
  const std::size_t lattice_entries_;
  /// Guards plane creation, block fills, planes_ and filled_blocks_.
  mutable CountedMutex fill_mutex_;
  std::vector<std::unique_ptr<AxisPlane>> planes_;
  /// Newest published plane; planes link to their predecessor.
  std::atomic<AxisPlane*> newest_plane_{nullptr};
  std::size_t filled_blocks_ = 0;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

/// Surface serving the device at roster position `index`: the spec's
/// explicit surface when set (>= 0), else round-robin by index. The caller
/// validates explicit indices against n_surfaces.
[[nodiscard]] std::size_t assigned_surface(int spec_surface,
                                           std::size_t index,
                                           std::size_t n_surfaces);

/// Cross-surface interference model. When leakage is enabled every
/// non-serving surface of the deployment appears in each device's
/// propagation scene as a leakage path: the device's per-link SINR then
/// includes the power the other surfaces' scattered lobes deposit at its
/// receiver. Surfaces are modeled at a common lateral spacing from every
/// device they do not serve (symmetric ring placement), so the scene
/// topology — and therefore the codebook configuration hash — is identical
/// for every device of the fleet.
struct InterferenceModel {
  bool enable_leakage = false;
  /// Effective lateral offset of a non-serving surface [m].
  double surface_spacing_m = 0.4;
  /// Amplitude coupling of a leakage path (an unserved surface's lobe is
  /// not steered at this device).
  double leakage_coupling = 0.15;
};

/// Scene topology of one deployment device: (n_surfaces - 1) leakage
/// surfaces at the interference model's spacing/coupling when leakage is
/// enabled, empty otherwise. One source of truth shared by the engine's
/// run paths, core::device_system_config and the codebook config hash.
[[nodiscard]] channel::SceneSpec device_scene_spec(
    std::size_t n_surfaces, const InterferenceModel& interference);

/// One served endpoint of a deployment.
struct DeviceSpec {
  std::string name;
  /// Mounting orientation of the device's antenna (applied to the config's
  /// rx antenna template).
  common::Angle orientation = common::Angle::degrees(0.0);
  double traffic_weight = 1.0;  ///< relative airtime demand
  /// Surface this device is served by; -1 assigns round-robin by index
  /// (or, in a city deployment with a surface layout, nearest-surface).
  int surface = -1;
  /// Device position on the deployment plane; required by the city-scale
  /// path (CityFleetEngine / a FleetTracker with a layout), ignored by the
  /// ring-model paths.
  std::optional<channel::Point2> position;
};

/// Deployment-wide parameters shared by every link.
struct DeploymentConfig {
  std::size_t n_surfaces = 1;
  common::Frequency frequency = common::Frequency::ghz(2.44);
  common::PowerDbm tx_power{14.0};
  /// Link geometry template (mode + distances), identical per link.
  channel::LinkGeometry geometry{};
  channel::Environment environment = channel::Environment::absorber_chamber();
  /// AP-side antenna, shared; and the device-side template re-oriented per
  /// DeviceSpec::orientation.
  channel::Antenna tx_antenna =
      channel::Antenna::iot_dipole(common::Angle::degrees(0.0));
  channel::Antenna rx_antenna =
      channel::Antenna::iot_dipole(common::Angle::degrees(0.0));
  radio::ReceiverConfig receiver{};
  /// Noise+interference level against which the aggregate capacity/BER are
  /// reported (default: the busy-building level of the paper's IoT
  /// evaluation, which keeps links rate-sensitive; the receiver's thermal
  /// floor is reported separately in DeploymentReport::noise_floor).
  common::PowerDbm rate_noise{-62.0};
  /// Cross-surface leakage (scene topology of every device's link).
  InterferenceModel interference{};
  /// City-scale surface placement. Empty (the default) keeps the classic
  /// ring-model paths; non-empty (positions.size() == n_surfaces) routes
  /// CityFleetEngine and FleetTracker through the spatial index: nearest-
  /// surface serving, per-device geometry from real mount positions,
  /// build-time leakage pruning at layout.prune.cutoff_db, and device
  /// loops sharded by spatial cell.
  channel::SurfaceLayout layout{};
  /// Per-device Algorithm 1 parameters (paper: N = 2, T = 5).
  control::CoarseToFineSweep::Options sweep{};
  control::PolarizationScheduler::Options scheduler{};
  metasurface::ResponseCacheConfig cache{};
  /// Worker threads for the per-device optimization shard (<= 0 default).
  int threads = 0;
};

/// Per-device optimization outcome.
struct DeviceResult {
  std::string name;
  std::size_t surface = 0;  ///< surface this device was scheduled on
  control::SweepResult sweep;
  common::PowerDbm optimized_power{-120.0};    ///< expected, at best bias
  common::PowerDbm unoptimized_power{-120.0};  ///< expected, surface absent
  /// Slot-weighted interference this device receives from every surface it
  /// is NOT served by (0 mW when leakage is disabled or M == 1).
  common::PowerMw leakage{0.0};
};

/// One surface's airtime schedule. Slot device_indices index into
/// `device_ids` (the surface-local roster), which in turn indexes
/// DeploymentReport::devices.
struct SurfaceReport {
  std::size_t surface = 0;
  std::vector<std::size_t> device_ids;
  std::vector<control::ScheduleSlot> slots;
  /// Expected per-device mean power under the schedule, per device_ids entry.
  std::vector<common::PowerDbm> scheduled_power;
};

/// Outcome of one deployment-wide optimization round.
struct DeploymentReport {
  std::vector<DeviceResult> devices;
  std::vector<SurfaceReport> surfaces;
  common::PowerDbm noise_floor{-120.0};
  /// Sum over links of Shannon spectral efficiency [bit/s/Hz] at the
  /// scheduled expected power.
  double sum_capacity_bits_per_hz = 0.0;
  /// Same aggregate for the unassisted network (no surface deployed).
  double unassisted_capacity_bits_per_hz = 0.0;
  /// Mean uncoded QPSK BER over links at the scheduled SNR.
  double mean_ber = 0.0;
  double unassisted_mean_ber = 0.0;
  /// Per-link interference aggregate: total cross-surface leakage summed
  /// over devices (0 when the interference model is disabled), and the
  /// worst single link's leakage. With leakage enabled the capacity/BER
  /// aggregates are SINR-based: each link's noise is rate_noise plus its
  /// own leakage.
  common::PowerMw total_leakage{0.0};
  common::PowerMw max_leakage{0.0};
  metasurface::ResponseCacheStats cache_stats;
  std::size_t plan_count = 0;
  /// run_codebook_file() provenance: whether the compiled artifact actually
  /// served the round, and if not, why it was rejected (empty otherwise).
  bool used_codebook = false;
  std::string codebook_fallback_reason;
};

/// M surfaces, N devices, one shared response engine.
class DeploymentEngine {
 public:
  explicit DeploymentEngine(DeploymentConfig config,
                            metasurface::RotatorStack stack =
                                metasurface::prototype_fr4_design());

  /// Optimizes every device's bias pair (Algorithm 1, batched measurement
  /// model, sharded over threads), builds each surface's schedule, and
  /// aggregates capacity/BER. Deterministic: byte-identical results for any
  /// `threads` setting. Throws std::invalid_argument when the config has no
  /// surfaces and std::out_of_range when a DeviceSpec names a surface index
  /// >= n_surfaces.
  [[nodiscard]] DeploymentReport run(const std::vector<DeviceSpec>& devices);

  /// Codebook fast path of run(): every device's bias pair comes from one
  /// O(1) lookup in the shared immutable codebook instead of an Algorithm-1
  /// sweep — the lookup itself takes no locks, so N devices across M
  /// surfaces re-optimize concurrently without contending on anything; the
  /// per-device response evaluation (for the reported power) is the only
  /// shared-cache touch. When the measured power undershoots the codebook's
  /// interpolated prediction by > 1 dB the device falls back to its nearest
  /// cell's compiled best (a probed optimum) and takes the better of the
  /// two — still sweep-free, at most two evaluations. Scheduling and
  /// capacity/BER aggregation are identical to run(). Throws like run(),
  /// plus std::invalid_argument on a surface-mode mismatch,
  /// codebook::CodebookStaleError when the codebook's config hash differs
  /// from deployment_config_hash(config(), stack), and std::out_of_range
  /// when the deployment frequency is outside the compiled axis.
  [[nodiscard]] DeploymentReport run_codebook(
      const std::vector<DeviceSpec>& devices, const codebook::Codebook& book);

  /// run_codebook() from a serialized artifact, with degraded-mode serving:
  /// any artifact failure — unreadable/truncated/corrupt file
  /// (CodebookFormatError), stale config hash (CodebookStaleError), surface
  /// mode or frequency mismatch — falls back to the full Algorithm-1 run()
  /// instead of failing the fleet. The report's used_codebook /
  /// codebook_fallback_reason record which path served the round. Device
  /// roster errors still throw exactly like run().
  [[nodiscard]] DeploymentReport run_codebook_file(
      const std::vector<DeviceSpec>& devices, const std::string& path);

  [[nodiscard]] const DeploymentConfig& config() const { return config_; }
  [[nodiscard]] SharedResponseEngine& response_engine() { return engine_; }

 private:
  /// Shared argument validation for run()/run_codebook().
  void validate(const std::vector<DeviceSpec>& devices) const;
  /// Shared tail: per-surface scheduling, the cross-surface leakage pass
  /// (slot-weighted interference each device receives from the other
  /// surfaces' final schedules, when the interference model is enabled),
  /// then SINR-based capacity/BER aggregation.
  void finalize_report(const std::vector<DeviceSpec>& devices,
                       DeploymentReport& report);

  DeploymentConfig config_;
  SharedResponseEngine engine_;
  /// Expected-power measurement model only (no RNG state is consumed).
  radio::Receiver receiver_;
};

}  // namespace llama::deploy
