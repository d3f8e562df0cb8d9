// The perfbench program. Usage:
//
//   perfbench --workload <fleet_retune|city_eval|serve_churn|track_faults>
//             --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 runs the workload and prints its end-to-end metrics.
// --trace 1 runs the traced probes of every layer (each on the workload
// that exercises it) plus, for the named workload, alternating untraced
// and traced operations that give bench.trace_overhead; it prints the
// per-layer metrics. Either way the last line of stdout is the result
// object and the line before it the detail record (see src/record.h).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "perfbench/src/harness.h"
#include "perfbench/src/record.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/workloads.h"

namespace {

using namespace perfbench;

constexpr const char* kWorkloads[] = {"fleet_retune", "city_eval",
                                      "serve_churn", "track_faults"};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<fleet_retune|city_eval|serve_churn|track_faults> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

void run_untraced(const std::string& w, const RunOptions& o, Report& out) {
  if (w == "fleet_retune") run_fleet_retune(o, FleetRetuneParams{}, out);
  if (w == "city_eval") run_city_eval(o, CityEvalParams{}, out);
  if (w == "serve_churn") run_serve_churn(o, out);
  if (w == "track_faults") run_track_faults(o, TrackFaultsParams{}, out);
  out.set("peak_rss_mb", static_cast<double>(peak_rss_bytes()) / kMiB);
}

double trace_one(const std::string& w, const RunOptions& o, Tracer& tracer,
                 Report& out, double overhead_s) {
  if (w == "fleet_retune")
    return trace_fleet_retune(o, FleetRetuneParams{}, tracer, out,
                              overhead_s);
  if (w == "city_eval")
    return trace_city_eval(o, CityEvalParams{}, tracer, out, overhead_s);
  if (w == "serve_churn")
    return trace_serve_churn(o, tracer, out, overhead_s);
  return trace_track_faults(o, TrackFaultsParams{}, tracer, out, overhead_s);
}

void run_traced(const std::string& workload, const RunOptions& o,
                const Machine& machine, Report& out) {
  Tracer tracer;
  double overhead = 0.0;
  for (const char* w : kWorkloads) {
    const bool named = workload == w;
    const double ratio =
        trace_one(w, o, tracer, out, named ? o.seconds : 0.0);
    if (named) overhead = ratio;
  }
  const auto layers = tracer.layer_totals();
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    const std::string name = layer_name(static_cast<Layer>(l));
    out.set(name + ".calls", static_cast<double>(layers[l].calls));
    out.set(name + ".busy_ms", layers[l].busy_ns * 1e-6);
    out.set(name + ".self_ms", layers[l].self_ns * 1e-6);
  }
  out.set("bench.effective_cores", machine.effective_cores);
  out.set("bench.trace_overhead", overhead);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunOptions options;
  int trace = -1;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && options.seconds > 0.0;
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") == 0) trace = 0;
      if (std::strcmp(value, "1") == 0) trace = 1;
    } else {
      return usage(("unknown flag " + arg).c_str());
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || workload == w;
  if (!known) return usage(("unknown workload '" + workload + "'").c_str());
  if (!have_seed || !have_seconds || trace < 0)
    return usage("--seed, --seconds (> 0) and --trace 0|1 are required");

  const Machine machine = describe_machine();
  Report out;
  try {
    if (trace == 0)
      run_untraced(workload, options, out);
    else
      run_traced(workload, options, machine, out);
    const std::string result = out.result_line(trace == 1);
    std::printf("%s\n",
                out.detail_line(machine, workload, options.seed,
                                options.seconds, trace == 1)
                    .c_str());
    std::printf("%s\n", result.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }
  return 0;
}
