// The four benchmark workloads. Each one has
//
//   run_<name>(options, params, report)
//       the untraced run: sets up several times (setup_s is the median),
//       measures its operations for options.seconds, checks its outputs
//       and fills every end-to-end metric;
//   trace_<name>(options, params, tracer, report, overhead_seconds)
//       the traced probe: times the benchmark's calls into the layers the
//       workload exercises and fills their per-layer metrics. With
//       overhead_seconds > 0 it also alternates untraced and traced
//       operations for that long and returns traced / untraced median time
//       (bench.trace_overhead); otherwise it returns 0.
//
// Inputs are pure functions of options.seed (the *_inputs helpers below),
// so one seed always measures the same work. Params default to the sizes
// the benchmark is defined at; the self-tests shrink them. serve_churn
// takes none: no test shrinks it, so its sizes are constants.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "perfbench/src/record.h"
#include "perfbench/src/trace.h"
#include "src/deploy/city_fleet.h"
#include "src/deploy/deployment_engine.h"
#include "src/fault/fault_plan.h"
#include "src/serve/load_generator.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
};

/// Cheap set-ups (fleet_retune, track_faults) are timed once more every
/// this many seconds of the measured window, so setup_s samples the whole
/// run rather than its first moments.
constexpr double kSetupIntervalS = 0.5;

// --- fleet_retune: Algorithm 1 at fleet scale ---------------------------

struct FleetRetuneParams {
  std::size_t devices = 256;
  std::size_t surfaces = 8;
  /// Rounds the deterministic link/capacity gains average over.
  std::size_t quality_rounds = 8;
  /// Devices whose sweep is replayed outside the engine and compared bit
  /// for bit in the untraced run.
  std::size_t replay_devices = 8;
};

/// Round `round`'s roster: the scenario's devices with orientations
/// re-drawn uniformly over the mismatch band [50, 130) deg (devices moved).
[[nodiscard]] std::vector<llama::deploy::DeviceSpec> fleet_round_inputs(
    const std::vector<llama::deploy::DeviceSpec>& base, std::uint64_t seed,
    std::uint64_t round);

void run_fleet_retune(const RunOptions& options, const FleetRetuneParams& p,
                      Report& out);
double trace_fleet_retune(const RunOptions& options,
                          const FleetRetuneParams& p, Tracer& tracer,
                          Report& out, double overhead_seconds);

// --- city_eval: pruned city-scale scenes, reads and writes --------------

struct CityEvalParams {
  std::size_t surfaces = 1024;
  std::size_t devices = 16384;
  int setups = 3;
  /// Devices per retune batch and candidate biases per device.
  std::size_t batch = 128;
  std::size_t candidates = 16;
  /// The pruned-vs-dense fixture.
  std::size_t fixture_surfaces = 64;
  std::size_t fixture_devices = 512;
};

/// Per-surface bias jitter [V] of a read's programming.
constexpr double kCityJitterV = 0.5;

/// Read `index`'s programming: every surface's bias jittered by up to
/// +-kCityJitterV around `base` (clamped to the 0-30 V supply).
[[nodiscard]] std::vector<llama::deploy::SurfaceBias> city_programming_inputs(
    const std::vector<llama::deploy::SurfaceBias>& base, std::uint64_t seed,
    std::uint64_t index);

/// One retune batch: device ids and each device's candidate bias pairs.
struct CityRetuneBatch {
  std::vector<std::size_t> devices;
  std::vector<llama::deploy::SurfaceBias> candidates;  ///< devices x K
};
[[nodiscard]] CityRetuneBatch city_retune_inputs(std::size_t n_devices,
                                                 std::uint64_t seed,
                                                 std::uint64_t index,
                                                 std::size_t batch,
                                                 std::size_t candidates);

void run_city_eval(const RunOptions& options, const CityEvalParams& p,
                   Report& out);
double trace_city_eval(const RunOptions& options, const CityEvalParams& p,
                       Tracer& tracer, Report& out, double overhead_seconds);

// --- serve_churn: the serving runtime under retune-heavy churn ----------

/// The generator config of one schedule chunk: the scenario's retune-heavy
/// mix at `rate_hz` over `duration_s`, seeded from (seed, chunk), over the
/// whole fleet.
[[nodiscard]] llama::serve::LoadGeneratorConfig serve_load_inputs(
    const llama::serve::LoadGeneratorConfig& retune_heavy,
    std::size_t n_devices, std::uint64_t seed, std::uint64_t chunk,
    double rate_hz, double duration_s);

void run_serve_churn(const RunOptions& options, Report& out);
double trace_serve_churn(const RunOptions& options, Tracer& tracer,
                         Report& out, double overhead_seconds);

// --- track_faults: mobile fleet under the fault drill -------------------

struct TrackFaultsParams {
  std::size_t devices = 256;
  std::size_t surfaces = 4;
  long ticks = 120;
};

/// The drill's fault plan with its draw seed taken from the run seed.
[[nodiscard]] std::shared_ptr<const llama::fault::FaultPlan>
track_plan_inputs(const llama::fault::FaultPlan& base, std::uint64_t seed);

void run_track_faults(const RunOptions& options, const TrackFaultsParams& p,
                      Report& out);
double trace_track_faults(const RunOptions& options,
                          const TrackFaultsParams& p, Tracer& tracer,
                          Report& out, double overhead_seconds);

/// Times `op_fn(traced)` alternately untraced and traced for `seconds` and
/// returns median(traced) / median(untraced); `op_fn` returns its own
/// elapsed seconds.
template <typename Fn>
double measure_overhead(double seconds, Fn&& op_fn) {
  std::vector<double> plain;
  std::vector<double> traced;
  const std::uint64_t start = now_ns();
  while (plain.size() < 3 || seconds_since(start) < seconds) {
    plain.push_back(op_fn(false));
    traced.push_back(op_fn(true));
  }
  return median(traced) / median(plain);
}

constexpr double kMiB = 1024.0 * 1024.0;

}  // namespace perfbench
