// Dense-deployment scaling: N devices x M surfaces through the
// DeploymentEngine's shared response engine, versus the pre-engine
// approach of standing up one LlamaSystem per device (which rebuilds
// per-frequency plans per grid probe and owns a private cache).
// Both paths run the identical batched Algorithm-1 measurement model
// (expected powers, no per-probe IQ synthesis), so the speedup isolates
// the sharing. `--json` emits one line per (N, M) point with
// `speedup_vs_llama_system` (single-threaded engine, sharing gain only)
// and `speedup_parallel` (default thread shard on top).
#include <cstdio>

#include "bench/bench_harness.h"
#include "src/common/parallel.h"
#include "src/core/scenarios.h"

using namespace llama;

namespace {

/// One full deployment optimization round; returns a checksum so the
/// optimizer cannot drop the work.
double run_engine(const core::DenseDeploymentScenario& scenario, int threads,
                  metasurface::ResponseCacheStats* stats_out = nullptr) {
  deploy::DeploymentConfig cfg = scenario.config;
  cfg.threads = threads;
  deploy::DeploymentEngine engine{cfg};
  const deploy::DeploymentReport report = engine.run(scenario.devices);
  if (stats_out != nullptr) *stats_out = report.cache_stats;
  double sum = 0.0;
  for (const deploy::DeviceResult& d : report.devices)
    sum += d.sweep.best_power.value();
  return sum;
}

/// The pre-engine baseline at the same measurement model: one LlamaSystem
/// per device, each running the batched Algorithm-1 round with its own
/// (re-planned per probe call) response pipeline.
double run_llama_system_baseline(
    const core::DenseDeploymentScenario& scenario) {
  double sum = 0.0;
  for (const deploy::DeviceSpec& spec : scenario.devices) {
    core::LlamaSystem sys{
        core::device_system_config(scenario.config, spec.orientation)};
    sum += sys.optimize_link_batched().sweep.best_power.value();
  }
  return sum;
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = bench::json_mode(argc, argv);
  if (!bench::open_out(argc, argv)) return 1;
  volatile double sink = 0.0;

  const std::pair<std::size_t, std::size_t> points[] = {
      {6, 1}, {24, 2}, {48, 4}};
  for (const auto& [n, m] : points) {
    const core::DenseDeploymentScenario scenario =
        core::dense_deployment_scenario(n, m);
    const std::string tag =
        "n" + std::to_string(n) + "_m" + std::to_string(m);

    const bench::BenchResult baseline = bench::run_bench(
        "dense_llama_system_" + tag,
        [&] { sink = sink + run_llama_system_baseline(scenario); });
    const bench::BenchResult engine_serial = bench::run_bench(
        "dense_engine_serial_" + tag,
        [&] { sink = sink + run_engine(scenario, 1); });
    // Contention tally of the last round's shared-engine locks (plan
    // registry + cache): the signal that sharding the fan-out is starting
    // to serialize on the memo.
    metasurface::ResponseCacheStats parallel_stats;
    const bench::BenchResult engine_parallel = bench::run_bench(
        "dense_engine_parallel_" + tag,
        [&] { sink = sink + run_engine(scenario, 0, &parallel_stats); });

    const double speedup_serial =
        baseline.ns_per_op / engine_serial.ns_per_op;
    const double speedup_parallel =
        baseline.ns_per_op / engine_parallel.ns_per_op;
    bench::print_result(baseline, json);
    bench::print_result(engine_serial, json,
                        ",\"speedup_vs_llama_system\":" +
                            std::to_string(speedup_serial) +
                            bench::threads_extra_json(1));
    bench::print_result(engine_parallel, json,
                        ",\"speedup_vs_llama_system\":" +
                            std::to_string(speedup_parallel) +
                            bench::threads_extra_json(
                                common::default_parallelism()) +
                            ",\"lock_contention\":" +
                            std::to_string(parallel_stats.lock_contention));
    if (!json)
      std::printf("  -> %zu devices x %zu surfaces: shared engine %.1fx"
                  " (serial), %.1fx (parallel shard)\n",
                  n, m, speedup_serial, speedup_parallel);
  }
  return 0;
}
