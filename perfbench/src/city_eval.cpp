// city_eval: city_scale_scenario(1024, 16384, -58 dB) set up once, then
// alternating reads (fleet-wide evaluate at a fresh seeded programming) and
// writes (a seeded batch of device retunes: freeze_device, then K
// candidate received_power_swept calls). One worker.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/core/scenarios.h"

namespace perfbench {

using namespace llama;

namespace {

/// The operating pruning cutoff of the city scenario (bench_city_scale's).
constexpr double kCityCutoffDb = -58.0;

struct City {
  core::CityScaleScenario scenario;
  std::unique_ptr<deploy::CityFleetEngine> engine;
  double assign_s = 0.0;
  double assign_bytes = 0.0;
};

City build_city(const CityEvalParams& p, Tracer* tr) {
  City c;
  {
    const Tracer::Span span(tr, Op::kCoreScenario);
    c.scenario = core::city_scale_scenario(p.surfaces, p.devices, kCityCutoffDb);
  }
  c.scenario.config.threads = 1;
  c.engine = std::make_unique<deploy::CityFleetEngine>(c.scenario.config);
  const RssDelta rss;
  const std::uint64_t t0 = now_ns();
  {
    const Tracer::Span span(tr, Op::kCityAssign);
    c.engine->assign(c.scenario.devices);
  }
  c.assign_s = seconds_since(t0);
  c.assign_bytes = rss.delta_bytes();
  return c;
}

/// One write: retune every device of the batch against the programming
/// `biases`; returns the best candidate power summed over the batch.
double retune_batch(deploy::CityFleetEngine& engine,
                    const std::vector<deploy::SurfaceBias>& biases,
                    const CityRetuneBatch& batch, Tracer* tr) {
  const deploy::DeploymentConfig& cfg = engine.config();
  const std::size_t k = batch.candidates.size() / batch.devices.size();
  double total = 0.0;
  for (std::size_t j = 0; j < batch.devices.size(); ++j) {
    const std::size_t d = batch.devices[j];
    const channel::PropagationScene::FrozenEval frozen = [&] {
      const Tracer::Span span(tr, Op::kCityFreezeDevice);
      return engine.freeze_device(d, biases);
    }();
    double best = -std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < k; ++c) {
      const deploy::SurfaceBias& cand = batch.candidates[j * k + c];
      const em::JonesMatrix response = [&] {
        const Tracer::Span span(tr, Op::kEngineResponse);
        return engine.response_engine().response(
            cfg.frequency, cfg.geometry.mode, cand.vx, cand.vy);
      }();
      const Tracer::Span span(tr, Op::kSceneSwept);
      best = std::max(
          best, engine.scene(d).received_power_swept(frozen, response).value());
    }
    total += best;
  }
  return total;
}

bool all_finite(const deploy::CityEvalReport& r) {
  return std::all_of(r.power.begin(), r.power.end(),
                     [](const common::PowerDbm& pw) {
                       return std::isfinite(pw.value());
                     });
}

bool same_bytes(const deploy::CityEvalReport& a,
                const deploy::CityEvalReport& b) {
  return a.power.size() == b.power.size() &&
         a.error_bound_db.size() == b.error_bound_db.size() &&
         std::memcmp(a.power.data(), b.power.data(),
                     a.power.size() * sizeof(a.power[0])) == 0 &&
         std::memcmp(a.error_bound_db.data(), b.error_bound_db.data(),
                     a.error_bound_db.size() * sizeof(double)) == 0;
}

/// Pruned-vs-dense on the small fixture: every device's |dP| must stay
/// within the bound the pruned evaluation reports for it.
void check_fixture(const CityEvalParams& p, std::uint64_t seed, Report& out) {
  const core::CityScaleScenario pruned_s = core::city_scale_scenario(
      p.fixture_surfaces, p.fixture_devices, kCityCutoffDb);
  const core::CityScaleScenario dense_s =
      core::city_scale_scenario(p.fixture_surfaces, p.fixture_devices,
                                -std::numeric_limits<double>::infinity());
  deploy::CityFleetEngine pruned{pruned_s.config};
  deploy::CityFleetEngine dense{dense_s.config};
  pruned.assign(pruned_s.devices);
  dense.assign(dense_s.devices);
  const std::vector<deploy::SurfaceBias> biases =
      city_programming_inputs(pruned_s.biases, seed, 0);
  const deploy::CityEvalReport a = pruned.evaluate(biases, 1);
  const deploy::CityEvalReport b = dense.evaluate(biases, 1);
  bool within = a.power.size() == b.power.size();
  for (std::size_t i = 0; within && i < a.power.size(); ++i)
    within = std::abs(a.power[i].value() - b.power[i].value()) <=
             a.error_bound_db[i] + 1e-9;
  out.check(within, "city_eval: pruned-vs-dense |dP| within the reported "
                    "bound on the fixture");
}

}  // namespace

std::vector<deploy::SurfaceBias> city_programming_inputs(
    const std::vector<deploy::SurfaceBias>& base, std::uint64_t seed,
    std::uint64_t index) {
  std::vector<deploy::SurfaceBias> out = base;
  for (std::size_t s = 0; s < out.size(); ++s) {
    const double dx =
        draw(seed, 0xC1 + 2 * index, s, -kCityJitterV, kCityJitterV);
    const double dy =
        draw(seed, 0xC2 + 2 * index, s, -kCityJitterV, kCityJitterV);
    out[s].vx = common::Voltage{std::clamp(base[s].vx.value() + dx, 0.0, 30.0)};
    out[s].vy = common::Voltage{std::clamp(base[s].vy.value() + dy, 0.0, 30.0)};
  }
  return out;
}

CityRetuneBatch city_retune_inputs(std::size_t n_devices, std::uint64_t seed,
                                   std::uint64_t index, std::size_t batch,
                                   std::size_t candidates) {
  CityRetuneBatch b;
  b.devices.reserve(batch);
  b.candidates.reserve(batch * candidates);
  const std::uint64_t key = mix_seed(seed, 0xC3 + index);
  for (std::size_t j = 0; j < batch; ++j) {
    b.devices.push_back(static_cast<std::size_t>(
        draw(key, 0, j, 0.0, static_cast<double>(n_devices))));
    for (std::size_t c = 0; c < candidates; ++c)
      b.candidates.push_back(deploy::SurfaceBias{
          common::Voltage{draw(key, 1 + c, j, 0.0, 30.0)},
          common::Voltage{draw(key, 1 + candidates + c, j, 0.0, 30.0)}});
  }
  return b;
}

void run_city_eval(const RunOptions& options, const CityEvalParams& p,
                   Report& out) {
  City city;
  std::vector<double> setup_s;
  for (int k = 0; k < p.setups; ++k) {
    city = City{};
    const std::uint64_t start = now_ns();
    city = build_city(p, nullptr);
    setup_s.push_back(seconds_since(start));
    // Later set-ups reuse the freed heap, so only the first sees growth.
    if (k == 0)
      out.note("city_bytes_per_device",
               city.assign_bytes / static_cast<double>(p.devices), "B");
  }
  out.set("setup_s", median(setup_s));
  out.note("city_assign_s", city.assign_s, "s");

  deploy::CityFleetEngine& engine = *city.engine;
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  std::vector<deploy::SurfaceBias> biases;
  deploy::CityEvalReport first;
  bool finite = true;
  const std::uint64_t start = now_ns();
  for (std::uint64_t i = 0;
       write_ms.size() < 3 || seconds_since(start) < options.seconds; ++i) {
    biases = city_programming_inputs(city.scenario.biases, options.seed, i);
    const CityRetuneBatch batch = city_retune_inputs(
        p.devices, options.seed, i, p.batch, p.candidates);
    out.attempt(2);
    try {
      std::uint64_t t0 = now_ns();
      deploy::CityEvalReport report = engine.evaluate(biases);
      read_ms.push_back(seconds_since(t0) * 1e3);
      finite = finite && all_finite(report);
      if (i == 0) first = std::move(report);
      t0 = now_ns();
      finite = std::isfinite(retune_batch(engine, biases, batch, nullptr)) &&
               finite;
      write_ms.push_back(seconds_since(t0) * 1e3);
    } catch (const std::exception& e) {
      out.fail(1, std::string{"city_eval op: "} + e.what());
    }
  }
  out.check(!read_ms.empty() && !write_ms.empty() && !first.power.empty(),
            "city_eval: reads and writes completed");
  if (read_ms.empty() || write_ms.empty() || first.power.empty()) return;
  out.check(finite, "city_eval: every evaluated power is finite");
  out.set("latency_ms", median(read_ms));
  out.set("throughput_per_s",
          static_cast<double>(p.batch) / (median(write_ms) * 1e-3));
  out.timing("city_eval_ms", read_ms, "ms");
  out.timing("city_retune_ms", write_ms, "ms");
  out.note("city_err_bound_db", first.max_error_bound_db, "dB");
  out.note("city_shards", static_cast<double>(first.shard_count), "count");

  // Output checks: 1- vs 2-worker memcmp at the first read's programming,
  // and the pruning bound on the small fixture.
  const std::vector<deploy::SurfaceBias> first_biases =
      city_programming_inputs(city.scenario.biases, options.seed, 0);
  out.check(same_bytes(engine.evaluate(first_biases, 1), first) &&
                same_bytes(engine.evaluate(first_biases, 2), first),
            "city_eval: 1- and 2-worker power vectors are memcmp-identical");
  out.check(std::isfinite(first.max_error_bound_db) &&
                first.max_error_bound_db > 0.0,
            "city_eval: the pruning error bound is finite and positive");
  check_fixture(p, options.seed, out);
}

double trace_city_eval(const RunOptions& options, const CityEvalParams& p,
                       Tracer& tracer, Report& out, double overhead_seconds) {
  Tracer* const tr = &tracer;
  const City city = build_city(p, tr);
  deploy::CityFleetEngine& engine = *city.engine;
  out.set("channel.assign_s", city.assign_s);
  out.set("deploy.city_bytes_per_device",
          city.assign_bytes / static_cast<double>(p.devices));
  out.set("channel.kept_paths", engine.mean_kept_leakage());
  out.set("channel.pruned_paths", static_cast<double>(engine.total_pruned()));

  const std::vector<deploy::SurfaceBias> biases0 = city_programming_inputs(
      city.scenario.biases, options.seed, 0);
  deploy::CityEvalReport first;
  {
    const Tracer::Span span(tr, Op::kCityEvaluate);
    first = engine.evaluate(biases0);
  }
  out.set("deploy.city_shards", static_cast<double>(first.shard_count));
  out.set("quality.city_err_bound_db", first.max_error_bound_db);

  double overhead = 0.0;
  if (overhead_seconds > 0.0) {
    std::uint64_t i = 0;
    overhead = measure_overhead(overhead_seconds, [&](bool traced) {
      const std::vector<deploy::SurfaceBias> biases = city_programming_inputs(
          city.scenario.biases, options.seed, ++i);
      const std::uint64_t t0 = now_ns();
      const Tracer::Span span(traced ? tr : nullptr, Op::kCityEvaluate);
      (void)engine.evaluate(biases);
      return seconds_since(t0);
    });
  }

  // Writes with spans: freeze_device, the response miss path and swept.
  const OpSnapshot before = tracer.op_totals();
  for (std::uint64_t i = 0; i < 4; ++i) {
    const std::vector<deploy::SurfaceBias> biases = city_programming_inputs(
        city.scenario.biases, options.seed, i);
    (void)retune_batch(
        engine, biases,
        city_retune_inputs(p.devices, options.seed, i, p.batch, p.candidates),
        tr);
  }
  const OpSnapshot writes = op_delta(tracer.op_totals(), before);
  out.set("channel.city_freeze_us",
          mean_ns(writes, Op::kCityFreezeDevice) * 1e-3);
  out.set("metasurface.response_ns", mean_ns(writes, Op::kEngineResponse));
  return overhead;
}

}  // namespace perfbench
