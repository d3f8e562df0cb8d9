// City-scale fleet evaluation bench: M placed surfaces x N positioned
// devices through CityFleetEngine, against the dense (cutoff = -infinity)
// counterpart of the exact same city. Six phases, one JSON line each:
//
//   city_eval_dense_m256       full fleet evaluation with every leakage
//                              path kept (per-device cost O(M)) — the
//                              baseline the speedup gate divides by.
//   city_eval_pruned_m256      the pruned fleet at the same biases:
//                              `speedup_vs_dense` (the >= 8x CI floor),
//                              `max_abs_dp_db` (measured pruning error,
//                              <= 0.1 dB CI ceiling) and `bound_max_db`
//                              (the analytic worst case, which must
//                              dominate the measurement).
//   city_eval_pruned_m256_t2/4 the same evaluation at 2 and 4 workers:
//                              `parallel_efficiency` = t1 / (n * tn), the
//                              median over interleaved 1-worker/n-worker
//                              repetition pairs (so drift on a shared box
//                              hits both sides of each ratio alike). CI
//                              gates efficiency only when effective_cores
//                              (measured spin speedup) allows real
//                              parallelism.
//   city_determinism_m64       power vectors memcmp'd across 1, 2 and 8
//                              workers — `deterministic` must be true on
//                              any machine, 1-core containers included.
//   city_frozen_sweep_m4/m256  per-candidate retune cost on a frozen
//                              device scene at M=4 vs M=256: hierarchical
//                              frozen aggregation makes the ratio ~1
//                              (sweeps independent of fleet size).
//   city_freeze_device_m4/m256 freeze_device(0) at M=4 vs M=256: a freeze
//                              looks up only the device's kept scene
//                              surfaces, so its cost follows the kept
//                              paths, not M (CI gates the ratio <= 2x).
//   city_assign_m256/m4096     CityFleetEngine::assign of 4096 devices at
//                              M=256 vs M=4096, one worker: the pyramid
//                              descent keeps the per-device cost O(kept +
//                              log M), so `ns_ratio_vs_m256` (the median
//                              of interleaved pair ratios) is CI-gated
//                              <= 2 (~1.5 measured; the former O(M) scene
//                              build read ~11).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_harness.h"
#include "src/core/scenarios.h"
#include "src/deploy/city_fleet.h"

using namespace llama;

namespace {

// Operating cutoff for the city fleet. The -40 dB PruneConfig default is
// the conservative general-purpose setting; this city runs deeper because
// the CI accuracy gate is a fleet-wide max, not a typical case: the error
// is dominated by the first pruned ring (~8 surfaces just under the
// cutoff amplitude), so max |Delta P| ~ a few * sqrt(8) * 10^(cutoff/20)
// in field terms. -58 dB lands that comfortably under 0.1 dB while still
// keeping only the ~2-cell neighborhood of each device.
constexpr double kCityCutoffDb = -58.0;

double max_abs_dp_db(const deploy::CityEvalReport& a,
                     const deploy::CityEvalReport& b) {
  double max_dp = 0.0;
  for (std::size_t i = 0; i < a.power.size(); ++i)
    max_dp = std::max(max_dp,
                      std::abs(a.power[i].value() - b.power[i].value()));
  return max_dp;
}

bool same_powers(const deploy::CityEvalReport& a,
                 const deploy::CityEvalReport& b) {
  return a.power.size() == b.power.size() &&
         std::memcmp(a.power.data(), b.power.data(),
                     a.power.size() * sizeof(common::PowerDbm)) == 0;
}

std::string bool_json(bool b) { return b ? "true" : "false"; }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Per-repetition ns per call of two operations timed in alternating
/// repetitions (each at least `min_time_s` of back-to-back calls, after one
/// untimed warm-up call of each), so drift on a shared box lands on both
/// sides of every a/b pair.
struct PairedTimes {
  std::vector<double> a_ns;
  std::vector<double> b_ns;

  /// Median over the pairs of a_ns[i] / b_ns[i].
  [[nodiscard]] double median_ratio() const {
    std::vector<double> ratios;
    for (std::size_t i = 0; i < a_ns.size(); ++i)
      ratios.push_back(a_ns[i] / b_ns[i]);
    return median(ratios);
  }
};

/// One side's timing as a bench line: its median ns per call.
bench::BenchResult median_result(std::string name,
                                 const std::vector<double>& ns) {
  bench::BenchResult r;
  r.name = std::move(name);
  r.ns_per_op = median(ns);
  r.ops_per_s = 1e9 / r.ns_per_op;
  r.iterations = static_cast<long>(ns.size());
  return r;
}

template <typename A, typename B>
PairedTimes run_paired(A&& a, B&& b, int pairs = 9,
                       double min_time_s = 0.05) {
  const auto ns_per_call = [min_time_s](auto& op) {
    using clock = std::chrono::steady_clock;
    long calls = 0;
    const clock::time_point start = clock::now();
    double elapsed_s = 0.0;
    do {
      op();
      ++calls;
      elapsed_s = std::chrono::duration<double>(clock::now() - start).count();
    } while (elapsed_s < min_time_s);
    return elapsed_s * 1e9 / static_cast<double>(calls);
  };
  a();
  b();
  PairedTimes t;
  for (int i = 0; i < pairs; ++i) {
    t.a_ns.push_back(ns_per_call(a));
    t.b_ns.push_back(ns_per_call(b));
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = bench::json_mode(argc, argv);
  if (!bench::open_out(argc, argv)) return 1;
  volatile double sink = 0.0;

  constexpr std::size_t kM = 256;
  constexpr std::size_t kN = 4096;

  // The pruned and dense scenarios share the seed (it ignores the cutoff),
  // so positions, serving assignments and biases are identical — the power
  // comparison below isolates pruning alone.
  const core::CityScaleScenario pruned_scenario =
      core::city_scale_scenario(kM, kN, kCityCutoffDb);
  const core::CityScaleScenario dense_scenario = core::city_scale_scenario(
      kM, kN, -std::numeric_limits<double>::infinity());

  deploy::CityFleetEngine pruned{pruned_scenario.config};
  pruned.assign(pruned_scenario.devices);
  deploy::CityFleetEngine dense{dense_scenario.config};
  dense.assign(dense_scenario.devices);

  const double n = static_cast<double>(kN);

  // Phase 1+2: dense vs pruned full-fleet evaluation, single worker.
  const bench::BenchResult dense_t1 = bench::run_bench(
      "city_eval_dense_m256",
      [&] { sink = sink + dense.evaluate(dense_scenario.biases, 1)
                              .power.back().value(); });
  const bench::BenchResult pruned_t1 = bench::run_bench(
      "city_eval_pruned_m256",
      [&] { sink = sink + pruned.evaluate(pruned_scenario.biases, 1)
                              .power.back().value(); });
  const double speedup = dense_t1.ns_per_op / pruned_t1.ns_per_op;

  const deploy::CityEvalReport pruned_report =
      pruned.evaluate(pruned_scenario.biases, 1);
  const deploy::CityEvalReport dense_report =
      dense.evaluate(dense_scenario.biases, 1);
  const double max_dp = max_abs_dp_db(pruned_report, dense_report);

  bench::print_result(dense_t1, json,
                      ",\"per_device_ns\":" +
                          std::to_string(dense_t1.ns_per_op / n) +
                          bench::threads_extra_json(1));
  bench::print_result(
      pruned_t1, json,
      ",\"per_device_ns\":" + std::to_string(pruned_t1.ns_per_op / n) +
          ",\"speedup_vs_dense\":" + std::to_string(speedup) +
          ",\"max_abs_dp_db\":" + std::to_string(max_dp) +
          ",\"bound_max_db\":" +
          std::to_string(pruned_report.max_error_bound_db) +
          ",\"mean_kept_leakage\":" +
          std::to_string(pruned.mean_kept_leakage()) +
          ",\"cutoff_db\":" + std::to_string(kCityCutoffDb) +
          ",\"shards\":" + std::to_string(pruned_report.shard_count) +
          bench::threads_extra_json(1));
  if (!json)
    std::printf("  -> pruned %.1fx vs dense; max |dP| %.4f dB"
                " (analytic bound %.4f dB); %.1f kept of %zu\n",
                speedup, max_dp, pruned_report.max_error_bound_db,
                pruned.mean_kept_leakage(), kM - 1);

  // Phase 3: thread scaling of the pruned fleet evaluation, 1-worker and
  // n-worker repetitions interleaved.
  for (int threads : {2, 4}) {
    const PairedTimes times = run_paired(
        [&] {
          sink = sink + pruned.evaluate(pruned_scenario.biases, 1)
                            .power.back().value();
        },
        [&] {
          sink = sink + pruned.evaluate(pruned_scenario.biases, threads)
                            .power.back().value();
        });
    const bench::BenchResult tn = median_result(
        "city_eval_pruned_m256_t" + std::to_string(threads), times.b_ns);
    const double efficiency =
        times.median_ratio() / static_cast<double>(threads);
    bench::print_result(
        tn, json,
        ",\"per_device_ns\":" + std::to_string(tn.ns_per_op / n) +
            ",\"parallel_efficiency\":" + std::to_string(efficiency) +
            bench::threads_extra_json(threads));
    if (!json)
      std::printf("  -> %d workers: efficiency %.2f\n", threads, efficiency);
  }

  // Phase 4: byte-identity across worker counts (M=64 x N=512, the test
  // suite's fixture scaled into bench territory).
  {
    const core::CityScaleScenario scenario =
        core::city_scale_scenario(64, 512, kCityCutoffDb);
    deploy::CityFleetEngine engine{scenario.config};
    engine.assign(scenario.devices);
    const deploy::CityEvalReport r1 = engine.evaluate(scenario.biases, 1);
    const deploy::CityEvalReport r2 = engine.evaluate(scenario.biases, 2);
    deploy::CityEvalReport r8;
    const bench::BenchResult t8 = bench::run_bench(
        "city_determinism_m64",
        [&] { r8 = engine.evaluate(scenario.biases, 8); });
    const bool deterministic = same_powers(r1, r2) && same_powers(r1, r8);
    bench::print_result(t8, json,
                        ",\"deterministic\":" + bool_json(deterministic) +
                            ",\"threads_checked\":3" +
                            bench::threads_extra_json(8));
    if (!json)
      std::printf("  -> power bytes across 1/2/8 workers: %s\n",
                  deterministic ? "identical" : "DIVERGED");
  }

  // Phase 5: frozen retune sweeps must not scale with M. Freeze one
  // device in a 4-surface town and one in the 256-surface city, then time
  // received_power_swept per candidate response.
  {
    double m4_ns = 0.0;
    for (const std::size_t m : {std::size_t{4}, kM}) {
      const core::CityScaleScenario scenario =
          core::city_scale_scenario(m, 8, kCityCutoffDb);
      deploy::CityFleetEngine engine{scenario.config};
      engine.assign(scenario.devices);
      const channel::PropagationScene::FrozenEval frozen =
          engine.freeze_device(0, scenario.biases);
      const channel::PropagationScene& scene = engine.scene(0);

      std::vector<em::JonesMatrix> candidates;
      for (int c = 0; c < 16; ++c)
        candidates.push_back(engine.response_engine().response(
            scenario.config.frequency, scenario.config.geometry.mode,
            common::Voltage{static_cast<double>(c) * 2.0},
            common::Voltage{30.0 - static_cast<double>(c) * 2.0}));

      std::size_t next = 0;
      const bench::BenchResult r = bench::run_bench(
          "city_frozen_sweep_m" + std::to_string(m), [&] {
            sink = sink +
                   scene.received_power_swept(
                            frozen, candidates[next++ % candidates.size()])
                       .value();
          });
      std::string extra = bench::threads_extra_json(1);
      if (m == 4)
        m4_ns = r.ns_per_op;
      else
        extra = ",\"ns_ratio_vs_m4\":" + std::to_string(r.ns_per_op / m4_ns) +
                extra;
      bench::print_result(r, json, extra);
    }
  }

  // Phase 6: the freeze that precedes a retune sweep must not scale with M
  // either. Time freeze_device(0) on a warm cache in the same two cities.
  {
    double m4_ns = 0.0;
    for (const std::size_t m : {std::size_t{4}, kM}) {
      const core::CityScaleScenario scenario =
          core::city_scale_scenario(m, 8, kCityCutoffDb);
      deploy::CityFleetEngine engine{scenario.config};
      engine.assign(scenario.devices);
      const bench::BenchResult r = bench::run_bench(
          "city_freeze_device_m" + std::to_string(m), [&] {
            sink = sink + engine.freeze_device(0, scenario.biases)
                              .fixed_total.ex().real();
          });
      std::string extra =
          ",\"kept_surfaces\":" +
          std::to_string(engine.scene(0).surface_count()) +
          bench::threads_extra_json(1);
      if (m == 4)
        m4_ns = r.ns_per_op;
      else
        extra = ",\"ns_ratio_vs_m4\":" + std::to_string(r.ns_per_op / m4_ns) +
                extra;
      bench::print_result(r, json, extra);
    }
  }

  // Phase 7: assign (serving lookup, pyramid descent, scene construction)
  // must cost O(kept + log M) per device, not O(M). Time a 4096-device
  // assign in a 256- and a 4096-surface city at one worker, interleaved.
  {
    core::CityScaleScenario small =
        core::city_scale_scenario(kM, kN, kCityCutoffDb);
    core::CityScaleScenario large =
        core::city_scale_scenario(4096, kN, kCityCutoffDb);
    small.config.threads = 1;
    large.config.threads = 1;
    deploy::CityFleetEngine small_engine{small.config};
    deploy::CityFleetEngine large_engine{large.config};
    const PairedTimes times = run_paired(
        [&] {
          large_engine.assign(large.devices);
          sink = sink + large_engine.mean_kept_leakage();
        },
        [&] {
          small_engine.assign(small.devices);
          sink = sink + small_engine.mean_kept_leakage();
        });
    const double ratio = times.median_ratio();
    const auto line = [&](const char* name, const std::vector<double>& ns,
                          const deploy::CityFleetEngine& engine,
                          const std::string& prefix) {
      const bench::BenchResult r = median_result(name, ns);
      bench::print_result(
          r, json,
          prefix + ",\"per_device_ns\":" + std::to_string(r.ns_per_op / n) +
              ",\"mean_kept_leakage\":" +
              std::to_string(engine.mean_kept_leakage()) +
              bench::threads_extra_json(1));
    };
    line("city_assign_m256", times.b_ns, small_engine, "");
    line("city_assign_m4096", times.a_ns, large_engine,
         ",\"ns_ratio_vs_m256\":" + std::to_string(ratio));
    if (!json)
      std::printf("  -> assign per device M=4096/M=256: %.2fx\n", ratio);
  }
  return 0;
}
