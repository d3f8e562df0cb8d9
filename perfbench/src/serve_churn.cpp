// serve_churn: serving_scenario(16384, 4) behind 2 worker shards and one
// submitter thread, with a band codebook (9 frequencies over 2.40-2.48 GHz,
// 37 orientations, 0.5 V lattice) and the retune-heavy mix.
//
//   phase 1  open loop paced at a fixed rate with the deployed admission
//            ladder: submit-to-response latency, lateness of the generator
//   phase 2  the same kind of schedule unpaced, admission unlimited: the
//            served rate when offered faster than service (capacity)
#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/codebook/compiler.h"
#include "src/core/scenarios.h"
#include "src/metasurface/metasurface.h"
#include "src/serve/serve_runtime.h"

namespace perfbench {

using namespace llama;

namespace {

// The workload's definition: fleet and shard sizes, the band codebook
// lattice and the window lengths. Phase 1 is paced at the scenario's
// retune-heavy rate (10k requests/s): at 50k, host stalls of 25-60 ms on
// a box with about one effective core filled a shard's queue past the shed
// depth in some runs, so requests failed for reasons outside the program.
constexpr std::size_t kDevices = 16384;
constexpr std::size_t kSurfaces = 4;
constexpr std::size_t kShards = 2;
constexpr int kSetups = 5;
/// Share of the run spent in phase 1; both phases run in windows of
/// kWindowS, a fresh runtime each.
constexpr double kPacedShare = 0.6;
constexpr double kWindowS = 0.5;
/// Length of the 1-shard vs 2-shard determinism schedule.
constexpr double kDeterminismS = 0.25;
constexpr std::size_t kFrequencies = 9;
constexpr double kVStep = 0.5;
/// Traced probe: paced window length (long enough for 10 samples beyond
/// p99.9) and sampled device plants.
constexpr double kTraceWindowS = 1.5;
constexpr std::size_t kTraceMeasureDevices = 256;

codebook::CompilerOptions band_options() {
  codebook::CompilerOptions o;
  o.f_min = common::Frequency::ghz(2.40);
  o.f_max = common::Frequency::ghz(2.48);
  o.n_frequencies = kFrequencies;
  o.n_orientations = 37;
  o.v_step = common::Voltage{kVStep};
  o.threads = 1;
  return o;
}

core::ServingScenario serve_scenario() {
  core::ServingScenario s = core::serving_scenario(kDevices, kSurfaces);
  s.topology.n_shards = kShards;
  return s;
}

/// A fresh fleet around an already compiled codebook (the runtime consumes
/// its fleet, so every serving window needs one).
serve::ServingFleet fleet_with_book(
    const core::ServingScenario& s,
    std::shared_ptr<const codebook::Codebook> book) {
  serve::ServingFleet fleet;
  fleet.frequency = s.config.frequency;
  fleet.rx_template = s.config.rx_antenna;
  fleet.book = std::move(book);
  fleet.systems.reserve(s.devices.size());
  fleet.orientations.reserve(s.devices.size());
  for (const deploy::DeviceSpec& d : s.devices) {
    fleet.systems.push_back(std::make_unique<core::LlamaSystem>(
        core::device_system_config(s.config, d.orientation)));
    fleet.orientations.push_back(d.orientation);
  }
  return fleet;
}

/// A retune-heavy schedule chunk at the scenario's own rate.
std::vector<serve::TimedRequest> retune_schedule(const core::ServingScenario& s,
                                                std::uint64_t seed,
                                                std::uint64_t chunk,
                                                double duration_s) {
  return serve::generate_schedule(
      serve_load_inputs(s.retune_heavy, kDevices, seed, chunk,
                        s.retune_heavy.rate_hz, duration_s));
}

struct Submitted {
  std::vector<double> late_us;      ///< per submission, paced only
  std::vector<double> queue_depth;  ///< owner queue depth at submission
  std::uint64_t count = 0;
};

/// Submits `schedule` from this thread. Paced: each request waits for its
/// due time (yield while far out, spin the last 50 us) and its lateness is
/// recorded; the generator never waits on the server. Unpaced: submits
/// back to back, one pass over the schedule, or repeated passes (ids
/// renumbered) until `budget_s` has elapsed when that is positive.
Submitted submit_schedule(serve::ServeRuntime& runtime,
                          const std::vector<serve::TimedRequest>& schedule,
                          bool paced, double budget_s, Tracer* tr,
                          bool sample_depth) {
  Submitted out;
  if (paced) {
    out.late_us.reserve(schedule.size());
    if (sample_depth) out.queue_depth.reserve(schedule.size());
  }
  const serve::ServeTopology& topo = runtime.topology();
  const std::uint64_t begin = now_ns();
  const std::uint64_t t0 = begin + 1'000'000;  // first due time
  for (;;) {
    for (const serve::TimedRequest& timed : schedule) {
      serve::Request request = timed.request;
      request.id = out.count;
      if (paced) {
        const std::uint64_t due =
            t0 + static_cast<std::uint64_t>(timed.t_s * 1e9);
        while (now_ns() + 50'000 < due) std::this_thread::yield();
        std::uint64_t now = now_ns();
        while (now < due) now = now_ns();
        out.late_us.push_back(static_cast<double>(now - due) * 1e-3);
      }
      if (sample_depth)
        out.queue_depth.push_back(static_cast<double>(
            runtime.queue_depth(topo.owner_shard(request.device))));
      {
        const Tracer::Span span(tr, Op::kServeSubmit);
        (void)runtime.submit(request);
      }
      ++out.count;
    }
    if (paced || budget_s <= 0.0 || seconds_since(begin) >= budget_s) break;
  }
  return out;
}

serve::ServeReport stop(serve::ServeRuntime& runtime, Tracer* tr) {
  const Tracer::Span span(tr, Op::kServeStop);
  return runtime.stop();
}

/// Latency percentile [us] over served requests, refused ones counting as
/// infinitely late (a miss): +inf when the percentile lands on a refusal.
double latency_us(const serve::ServeReport& r, double pct) {
  const double frac =
      served_fraction(pct, r.ok + r.degraded, r.shed);
  if (frac > 1.0) return std::numeric_limits<double>::infinity();
  return r.latency.percentile_ns(frac) * 1e-3;
}

void check_report(const serve::ServeReport& r, const std::string& phase,
                  Report& out) {
  out.check(r.conserved(), "serve_churn " + phase +
                               ": every request answered exactly once");
  out.check(r.errors == 0 && r.first_error.empty(),
            "serve_churn " + phase + ": no worker errors (" + r.first_error +
                ")");
  out.fail(r.shed, "serve_churn " + phase + ": requests shed");
}

std::uint64_t unpaced_fingerprint(const core::ServingScenario& s,
                                  std::shared_ptr<const codebook::Codebook> book,
                                  const std::vector<serve::TimedRequest>& sched,
                                  std::size_t shards, Report& out) {
  serve::ServeTopology topology = s.topology;
  topology.n_shards = shards;
  topology.admission = serve::AdmissionConfig::unlimited();
  serve::ServeRuntime runtime(topology, fleet_with_book(s, std::move(book)));
  runtime.start();
  (void)submit_schedule(runtime, sched, false, 0.0, nullptr, false);
  const serve::ServeReport r = runtime.stop();
  out.attempt(r.submitted);
  check_report(r, std::to_string(shards) + "-shard determinism run", out);
  return r.payload_fingerprint;
}

}  // namespace

serve::LoadGeneratorConfig serve_load_inputs(
    const serve::LoadGeneratorConfig& retune_heavy, std::size_t n_devices,
    std::uint64_t seed, std::uint64_t chunk, double rate_hz,
    double duration_s) {
  serve::LoadGeneratorConfig load = retune_heavy;
  load.seed = mix_seed(seed, 0x5E + chunk);
  load.n_devices = n_devices;
  load.rate_hz = rate_hz;
  load.duration_s = duration_s;
  return load;
}

void run_serve_churn(const RunOptions& options, Report& out) {
  const core::ServingScenario s = serve_scenario();
  std::vector<double> setup_s;
  std::unique_ptr<serve::ServingFleet> fleet;
  for (int k = 0; k < kSetups; ++k) {
    fleet.reset();
    const std::uint64_t start = now_ns();
    fleet = std::make_unique<serve::ServingFleet>(
        serve::build_serving_fleet(s.config, s.devices, band_options()));
    setup_s.push_back(seconds_since(start));
  }
  out.set("setup_s", median(setup_s));
  const std::shared_ptr<const codebook::Codebook> book = fleet->book;

  // Phase 1: paced open loop at the fixed rate, deployed admission ladder,
  // as a series of windows (a fresh runtime each); latency percentiles are
  // taken per window and their median reported, so one window that the
  // host preempted does not set the run's figure.
  const double paced_s = kPacedShare * options.seconds;
  const auto windows = static_cast<std::uint64_t>(
      std::max(1.0, std::round(paced_s / kWindowS)));
  std::vector<double> p50_us;
  std::vector<double> p90_us;
  std::vector<double> p99_us;
  std::vector<double> late_us;
  std::uint64_t samples = 0;
  for (std::uint64_t w = 0; w < windows; ++w) {
    const std::vector<serve::TimedRequest> schedule =
        retune_schedule(s, options.seed, 1000 + w, kWindowS);
    serve::ServeRuntime runtime(
        s.topology, fleet ? std::move(*fleet) : fleet_with_book(s, book));
    fleet.reset();
    runtime.start();
    const Submitted sub =
        submit_schedule(runtime, schedule, true, 0.0, nullptr, false);
    const serve::ServeReport r = runtime.stop();
    out.attempt(r.submitted);
    check_report(r, "paced", out);
    p50_us.push_back(latency_us(r, 50.0));
    p90_us.push_back(latency_us(r, 90.0));
    p99_us.push_back(latency_us(r, 99.0));
    late_us.insert(late_us.end(), sub.late_us.begin(), sub.late_us.end());
    samples += r.latency.count();
  }

  // Phase 2: unpaced, admission unlimited, for the rest of the run, again
  // in windows; capacity is the median window's served rate.
  const std::vector<serve::TimedRequest> flat_schedule =
      serve::generate_schedule(serve_load_inputs(
          s.retune_heavy, kDevices, options.seed, 2, 1e6, 0.05));
  serve::ServeTopology unlimited = s.topology;
  unlimited.admission = serve::AdmissionConfig::unlimited();
  std::vector<double> capacity;
  const std::uint64_t flat_start = now_ns();
  while (capacity.size() < 3 ||
         seconds_since(flat_start) < options.seconds - paced_s) {
    serve::ServeRuntime runtime(unlimited, fleet_with_book(s, book));
    runtime.start();
    (void)submit_schedule(runtime, flat_schedule, false, kWindowS, nullptr,
                          false);
    const serve::ServeReport r = runtime.stop();
    out.attempt(r.submitted);
    check_report(r, "unpaced", out);
    capacity.push_back(r.achieved_rps);
  }

  out.set("latency_ms", median(p50_us) * 1e-3);
  out.set("throughput_per_s", median(capacity));
  // Per-window figures; their medians are serve_p50_us, serve_p90_us and
  // serve_capacity_rps.
  out.timing("serve_p50_us", p50_us, "us");
  out.timing("serve_p90_us", p90_us, "us");
  out.timing("serve_p99_us", p99_us, "us");
  out.timing("serve_capacity_rps", capacity, "1/s");
  out.timing("serve_late_us", late_us, "us");
  out.note("serve_late_p99_us", percentile(late_us, 99.0), "us");
  out.note("serve_samples", static_cast<double>(samples), "count");

  // Determinism: one unpaced admission-off schedule, 1 vs 2 shards.
  const std::vector<serve::TimedRequest> det_schedule =
      retune_schedule(s, options.seed, 3, kDeterminismS);
  const std::uint64_t one = unpaced_fingerprint(s, book, det_schedule, 1, out);
  const std::uint64_t two = unpaced_fingerprint(s, book, det_schedule, 2, out);
  out.check(one == two,
            "serve_churn: payload fingerprint identical at 1 and 2 shards");
}

double trace_serve_churn(const RunOptions& options, Tracer& tracer,
                         Report& out, double overhead_seconds) {
  Tracer* const tr = &tracer;
  const core::ServingScenario s = [&] {
    const Tracer::Span span(tr, Op::kCoreScenario);
    return serve_scenario();
  }();
  const codebook::CompilerOptions band = band_options();
  const OpSnapshot before = tracer.op_totals();

  // Codebook: the band compile and its artifact size.
  const codebook::CodebookCompiler compiler(
      core::device_system_config(s.config, common::Angle::degrees(0.0)));
  std::uint64_t t0 = now_ns();
  const codebook::Codebook book = [&] {
    const Tracer::Span span(tr, Op::kCodebookCompile);
    return compiler.compile(band);
  }();
  out.set("codebook.compile_s", seconds_since(t0));
  {
    const Tracer::Span span(tr, Op::kCodebookSerialize);
    out.set("codebook.bytes", static_cast<double>(book.serialize().size()));
  }

  // Kernel: the SoA response grid over the compile lattice.
  const metasurface::Metasurface surface =
      metasurface::Metasurface::llama_prototype();
  std::vector<double> axis;
  for (double v = 0.0; v <= 30.0 + 1e-9; v += kVStep) axis.push_back(v);
  std::uint64_t cells = 0;
  for (std::size_t i = 0; i < kFrequencies; ++i) {
    const double ghz =
        kFrequencies == 1
            ? 2.40
            : 2.40 + 0.08 * static_cast<double>(i) /
                         static_cast<double>(kFrequencies - 1);
    const Tracer::Span span(tr, Op::kKernelResponseGrid,
                            axis.size() * axis.size());
    cells += axis.size() * axis.size();
    (void)surface.response_grid(common::Frequency::ghz(ghz),
                                s.config.geometry.mode, axis, axis, 1);
  }
  out.set("kernel.cells", static_cast<double>(cells));

  // Codebook lookups on the schedule's queries, 1000 per span.
  const std::vector<serve::TimedRequest> queries =
      serve::generate_schedule(serve_load_inputs(
          s.retune_heavy, kDevices, options.seed, 4, 1e6, 0.02));
  double sink = 0.0;
  for (std::size_t i = 0; i < queries.size(); i += 1000) {
    const std::size_t end = std::min(queries.size(), i + 1000);
    const Tracer::Span span(tr, Op::kCodebookLookup, end - i);
    for (std::size_t j = i; j < end; ++j)
      sink += book.lookup(queries[j].request.frequency,
                          queries[j].request.orientation)
                  .vx.value();
  }
  out.check(std::isfinite(sink), "serve_churn: codebook lookups are finite");

  // Core: the per-device plant's measurement after a bias change.
  for (std::size_t i = 0; i < kTraceMeasureDevices; ++i) {
    const std::size_t d = i * s.devices.size() / kTraceMeasureDevices;
    core::LlamaSystem system(
        core::device_system_config(s.config, s.devices[d].orientation));
    sink += system.expected_measure_with_surface().value();  // warm plans
    system.surface().set_bias(
        common::Voltage{draw(options.seed, 0x5F, i, 0.0, 30.0)},
        common::Voltage{draw(options.seed, 0x60, i, 0.0, 30.0)});
    const Tracer::Span span(tr, Op::kCoreMeasure);
    sink += system.expected_measure_with_surface().value();
  }

  // Serve: the fleet build (RSS per device) and one traced paced window.
  std::unique_ptr<serve::ServingFleet> fleet;
  {
    const RssDelta rss;
    const Tracer::Span span(tr, Op::kServeBuildFleet);
    fleet = std::make_unique<serve::ServingFleet>(
        serve::build_serving_fleet(s.config, s.devices, band));
    out.set("core.bytes_per_device",
            rss.delta_bytes() / static_cast<double>(kDevices));
  }
  const std::shared_ptr<const codebook::Codebook> shared = fleet->book;
  const std::vector<serve::TimedRequest> window =
      retune_schedule(s, options.seed, 5, kTraceWindowS);
  serve::ServeReport report;
  Submitted sub;
  {
    serve::ServeRuntime runtime(s.topology, std::move(*fleet));
    fleet.reset();
    runtime.start();
    sub = submit_schedule(runtime, window, true, 0.0, tr, true);
    report = stop(runtime, tr);
  }
  out.attempt(report.submitted);
  check_report(report, "traced paced", out);
  const OpSnapshot probe = op_delta(tracer.op_totals(), before);
  out.set("kernel.ns_per_cell", ns_per_item(probe, Op::kKernelResponseGrid));
  out.set("codebook.lookup_ns", ns_per_item(probe, Op::kCodebookLookup));
  out.set("core.measure_ns", mean_ns(probe, Op::kCoreMeasure));
  out.set("serve.submit_ns", mean_ns(probe, Op::kServeSubmit));
  out.set("serve.queue_depth_p90", percentile(sub.queue_depth, 90.0));
  out.set("serve.late_us_p99", percentile(sub.late_us, 99.0));
  // Percentiles of the served requests; serve.shed counts the refusals.
  for (const auto& [name, q] : {std::pair{"serve.p50_us", 0.5},
                                {"serve.p90_us", 0.9},
                                {"serve.p99_us", 0.99},
                                {"serve.p999_us", 0.999}})
    out.set(name, report.latency.percentile_ns(q) * 1e-3);
  out.set("serve.samples", static_cast<double>(report.latency.count()));
  out.set("serve.ok", static_cast<double>(report.ok));
  out.set("serve.degraded", static_cast<double>(report.degraded));
  out.set("serve.shed", static_cast<double>(report.shed));
  out.set("serve.forwarded", static_cast<double>(report.forwarded));
  out.set("serve.errors", static_cast<double>(report.errors));

  double overhead = 0.0;
  if (overhead_seconds > 0.0) {
    std::uint64_t chunk = 100;
    overhead = measure_overhead(overhead_seconds, [&](bool traced) {
      const std::vector<serve::TimedRequest> sched =
          retune_schedule(s, options.seed, ++chunk, kTraceWindowS);
      serve::ServeRuntime runtime(s.topology, fleet_with_book(s, shared));
      runtime.start();
      (void)submit_schedule(runtime, sched, true, 0.0, traced ? tr : nullptr,
                            false);
      const serve::ServeReport r = runtime.stop();
      return latency_us(r, 50.0) * 1e-6;
    });
  }
  return overhead;
}

}  // namespace perfbench
