// Self-tests of the benchmark's own code: order statistics, the RSS probe,
// the metric registry and result record, the span tracer, and seed
// plumbing (same seed, same inputs and deterministic figures; another
// seed, other inputs). Build and run with `python3 perfbench/run.py
// --selftest`.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "perfbench/src/harness.h"
#include "perfbench/src/record.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/workloads.h"
#include "src/core/scenarios.h"

namespace perfbench {
namespace {

using namespace llama;

// --- order statistics ----------------------------------------------------

TEST(Stats, MedianOfOddAndEvenSamples) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_THROW((void)median({}), std::invalid_argument);
}

TEST(Stats, PercentileInterpolatesLinearlyBetweenRanks) {
  const std::vector<double> v = {5.0, 1.0, 4.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 90.0), 4.6);  // numpy "linear"
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.0);
  EXPECT_THROW((void)percentile(v, 101.0), std::invalid_argument);
}

TEST(Stats, TailIsHighestPercentileWithTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  Tail t = tail(v);
  EXPECT_EQ(t.pct, 99.0);  // 10 samples beyond p99, 1 beyond p99.9
  EXPECT_EQ(t.samples, 1000u);
  EXPECT_DOUBLE_EQ(t.value, percentile(v, 99.0));

  v.resize(100);
  EXPECT_EQ(tail(v).pct, 90.0);
  v.resize(19);
  t = tail(v);
  EXPECT_EQ(t.pct, 0.0);  // not even 10 beyond the median
  EXPECT_DOUBLE_EQ(t.value, 19.0);
}

TEST(Stats, RefusedRequestsCountAsMisses) {
  // 90 served, 10 refused: p50 is the served distribution's 55.6th
  // percentile; p95 falls among the refusals.
  EXPECT_NEAR(served_fraction(50.0, 90, 10), 50.0 / 90.0, 1e-12);
  EXPECT_GT(served_fraction(95.0, 90, 10), 1.0);
  EXPECT_DOUBLE_EQ(served_fraction(50.0, 100, 0), 0.5);
  EXPECT_GT(served_fraction(50.0, 0, 5), 1.0);
}

// --- memory probe --------------------------------------------------------

TEST(Rss, DeltaSeesTouchedAllocationAndPeakCoversIt) {
  const RssDelta delta;
  std::vector<char> block(64u << 20);
  std::memset(block.data(), 1, block.size());
  EXPECT_GE(delta.delta_bytes(), 48.0 * 1024 * 1024);
  EXPECT_GE(peak_rss_bytes(), rss_bytes());
  EXPECT_EQ(block[block.size() / 2], 1);
}

// --- registry and record -------------------------------------------------

bool valid_name(const std::string& s) {
  return !s.empty() && s.size() <= 64 && std::isalnum(s[0]) &&
         std::all_of(s.begin(), s.end(), [](char c) {
           return std::isalnum(c) || c == '_' || c == '.' || c == '-';
         });
}

bool valid_unit(const std::string& s) {
  return !s.empty() && s.size() <= 16 &&
         std::all_of(s.begin(), s.end(), [](char c) {
           return std::isalnum(c) || std::strchr("_/%.-", c) != nullptr;
         });
}

TEST(Registry, EveryMetricHasAUnitAndADirection) {
  std::set<std::string> names;
  std::size_t e2e = 0;
  std::size_t per_layer = 0;
  for (const MetricSpec& m : metric_registry()) {
    EXPECT_TRUE(valid_name(m.name)) << m.name;
    EXPECT_TRUE(valid_unit(m.unit)) << m.name << " unit " << m.unit;
    EXPECT_TRUE(m.better == Better::kLower || m.better == Better::kHigher);
    EXPECT_TRUE(names.insert(m.name).second) << "duplicate " << m.name;
    (m.end_to_end ? e2e : per_layer) += 1;
  }
  EXPECT_GE(e2e, 1u);
  EXPECT_LE(e2e, 16u);
  EXPECT_GE(per_layer, 1u);
  EXPECT_LE(per_layer, 128u);
  const auto setup = std::find_if(
      metric_registry().begin(), metric_registry().end(),
      [](const MetricSpec& m) { return m.name == "setup_s"; });
  ASSERT_NE(setup, metric_registry().end());
  EXPECT_TRUE(setup->end_to_end);
  EXPECT_EQ(setup->unit, "s");
  EXPECT_EQ(setup->better, Better::kLower);
}

TEST(Record, ResultLineCarriesEveryMetricOfItsMode) {
  Report r;
  r.attempt(3);
  for (const MetricSpec& m : metric_registry())
    if (m.end_to_end) r.set(m.name, 1.25);
  const std::string line = r.result_line(false);
  EXPECT_EQ(line.rfind("{\"correct\":true,\"attempted\":", 0), 0u) << line;
  for (const MetricSpec& m : metric_registry()) {
    const bool present =
        line.find("\"" + m.name + "\":{\"value\":1.25,\"unit\":\"" + m.unit +
                  "\"}") != std::string::npos;
    EXPECT_EQ(present, m.end_to_end) << m.name;
  }
  EXPECT_THROW((void)r.result_line(true), std::logic_error);
  EXPECT_THROW(r.set("not_a_metric", 1.0), std::invalid_argument);
}

TEST(Record, FailedCheckMakesTheRunIncorrect) {
  Report r;
  EXPECT_TRUE(r.check(true, "fine"));
  r.fail(2, "shed");  // failed operations alone keep the run correct
  EXPECT_TRUE(r.correct());
  EXPECT_FALSE(r.check(false, "broken"));
  EXPECT_FALSE(r.correct());
  EXPECT_EQ(r.attempted(), 2u);
  EXPECT_EQ(r.failed(), 3u);
}

TEST(Record, NonFiniteValuesFailAndPrintAsNull) {
  Report r;
  r.set("latency_ms", 1.0 / 0.0);
  EXPECT_FALSE(r.correct());
  EXPECT_EQ(json_number(0.1), "0.10000000000000001");
  EXPECT_EQ(json_number(1.0 / 0.0), "null");
}

// --- tracer --------------------------------------------------------------

void spin_ns(std::uint64_t ns) {
  const std::uint64_t end = now_ns() + ns;
  while (now_ns() < end) {
  }
}

TEST(Trace, SelfTimeExcludesChildrenAndBusyTimeCountsNestingOnce) {
  Tracer tracer;
  {
    const Tracer::Span outer(&tracer, Op::kSweepRunBatched);  // control
    spin_ns(200'000);
    {
      const Tracer::Span inner(&tracer, Op::kSceneSwept);  // channel
      spin_ns(300'000);
      const Tracer::Span nested(&tracer, Op::kSceneFromSpec);  // channel
      spin_ns(100'000);
    }
  }
  {
    const Tracer::Span items(&tracer, Op::kCodebookLookup, 1000);
    spin_ns(100'000);
  }
  const Tracer::Span ignored(nullptr, Op::kDeployRun);  // untraced: no-op
  EXPECT_EQ(tracer.span_count(), 4u);

  const auto layers = tracer.layer_totals();
  const auto& control = layers[static_cast<std::size_t>(Layer::kControl)];
  const auto& channel = layers[static_cast<std::size_t>(Layer::kChannel)];
  const auto ops = tracer.op_totals();
  const double outer_ns =
      ops[static_cast<std::size_t>(Op::kSweepRunBatched)].total_ns;
  const double swept_ns = ops[static_cast<std::size_t>(Op::kSceneSwept)].total_ns;
  const double spec_ns =
      ops[static_cast<std::size_t>(Op::kSceneFromSpec)].total_ns;
  EXPECT_EQ(control.calls, 1u);
  EXPECT_EQ(channel.calls, 2u);
  EXPECT_DOUBLE_EQ(control.self_ns, outer_ns - swept_ns);
  EXPECT_DOUBLE_EQ(control.busy_ns, outer_ns);
  // The nested channel span sits inside another channel span: busy time
  // counts the interval once, self time splits it.
  EXPECT_DOUBLE_EQ(channel.busy_ns, swept_ns);
  EXPECT_DOUBLE_EQ(channel.self_ns, swept_ns);
  EXPECT_GE(spec_ns, 100'000.0);
  EXPECT_GE(control.self_ns, 200'000.0);
  EXPECT_GT(ns_per_item(ops, Op::kCodebookLookup), 0.0);
  EXPECT_EQ(ops[static_cast<std::size_t>(Op::kCodebookLookup)].items, 1000u);
  EXPECT_EQ(mean_ns(ops, Op::kDeployRun), 0.0);
}

// --- seed plumbing -------------------------------------------------------

TEST(Seeds, FleetRoundsDependOnSeedAndRoundOnly) {
  const auto base = core::dense_deployment_scenario(32, 2).devices;
  const auto a = fleet_round_inputs(base, 7, 3);
  const auto b = fleet_round_inputs(base, 7, 3);
  const auto c = fleet_round_inputs(base, 8, 3);
  const auto d = fleet_round_inputs(base, 7, 4);
  std::size_t differ_seed = 0;
  std::size_t differ_round = 0;
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(a[i].orientation.rad(), b[i].orientation.rad());
    EXPECT_GE(a[i].orientation.deg(), 50.0 - 1e-9);
    EXPECT_LT(a[i].orientation.deg(), 130.0);
    differ_seed += a[i].orientation.rad() != c[i].orientation.rad();
    differ_round += a[i].orientation.rad() != d[i].orientation.rad();
  }
  EXPECT_EQ(differ_seed, base.size());
  EXPECT_EQ(differ_round, base.size());
}

TEST(Seeds, CityServeAndTrackInputsFollowTheSeed) {
  const auto city = core::city_scale_scenario(16, 64);
  const auto p1 = city_programming_inputs(city.biases, 1, 0);
  EXPECT_EQ(p1[3].vx.value(),
            city_programming_inputs(city.biases, 1, 0)[3].vx.value());
  EXPECT_NE(p1[3].vx.value(),
            city_programming_inputs(city.biases, 2, 0)[3].vx.value());
  EXPECT_LE(std::abs(p1[3].vx.value() - city.biases[3].vx.value()),
            kCityJitterV);

  const CityRetuneBatch w1 = city_retune_inputs(64, 1, 0, 8, 4);
  EXPECT_EQ(w1.devices, city_retune_inputs(64, 1, 0, 8, 4).devices);
  EXPECT_NE(w1.devices, city_retune_inputs(64, 2, 0, 8, 4).devices);
  EXPECT_EQ(w1.candidates.size(), 32u);

  const auto serving = core::serving_scenario(64, 2);
  const auto s1 = serve::generate_schedule(
      serve_load_inputs(serving.retune_heavy, 64, 1, 1, 20'000.0, 0.01));
  const auto s1b = serve::generate_schedule(
      serve_load_inputs(serving.retune_heavy, 64, 1, 1, 20'000.0, 0.01));
  const auto s2 = serve::generate_schedule(
      serve_load_inputs(serving.retune_heavy, 64, 2, 1, 20'000.0, 0.01));
  ASSERT_EQ(s1.size(), s1b.size());
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i].t_s, s1b[i].t_s);
    EXPECT_EQ(s1[i].request.device, s1b[i].request.device);
  }
  EXPECT_TRUE(s1.size() != s2.size() ||
              s1.front().request.device != s2.front().request.device ||
              s1.front().t_s != s2.front().t_s);

  const auto drill = core::fault_drill_scenario(8, 2, 10);
  EXPECT_EQ(track_plan_inputs(*drill.plan, 1)->seed,
            track_plan_inputs(*drill.plan, 1)->seed);
  EXPECT_NE(track_plan_inputs(*drill.plan, 1)->seed,
            track_plan_inputs(*drill.plan, 2)->seed);
  EXPECT_EQ(track_plan_inputs(*drill.plan, 1)->events, drill.plan->events);
}

Report run_fleet(std::uint64_t seed) {
  FleetRetuneParams p;
  p.devices = 24;
  p.surfaces = 3;
  p.quality_rounds = 2;
  p.replay_devices = 2;
  Report r;
  run_fleet_retune(RunOptions{seed, 0.01}, p, r);
  return r;
}

TEST(Seeds, SameSeedGivesIdenticalDeterministicFigures) {
  const Report a = run_fleet(11);
  const Report b = run_fleet(11);
  const Report c = run_fleet(12);
  EXPECT_TRUE(a.correct()) << (a.failures().empty() ? "" : a.failures()[0]);
  EXPECT_EQ(a.noted("link_gain_db"), b.noted("link_gain_db"));
  EXPECT_EQ(a.noted("capacity_gain_bps_hz"), b.noted("capacity_gain_bps_hz"));
  EXPECT_NE(a.noted("link_gain_db"), c.noted("link_gain_db"));

  TrackFaultsParams t;
  t.devices = 8;
  t.surfaces = 2;
  t.ticks = 120;
  Report ta;
  Report tb;
  run_track_faults(RunOptions{5, 0.01}, t, ta);
  run_track_faults(RunOptions{5, 0.01}, t, tb);
  EXPECT_TRUE(ta.correct()) << (ta.failures().empty() ? "" : ta.failures()[0]);
  EXPECT_EQ(ta.noted("outage_frac"), tb.noted("outage_frac"));
  EXPECT_EQ(ta.noted("delivered_mbps"), tb.noted("delivered_mbps"));

  CityEvalParams cp;
  cp.surfaces = 16;
  cp.devices = 128;
  cp.setups = 1;
  cp.batch = 4;
  cp.candidates = 2;
  cp.fixture_surfaces = 16;
  cp.fixture_devices = 64;
  Report ca;
  Report cb;
  run_city_eval(RunOptions{3, 0.01}, cp, ca);
  run_city_eval(RunOptions{3, 0.01}, cp, cb);
  EXPECT_TRUE(ca.correct()) << (ca.failures().empty() ? "" : ca.failures()[0]);
  EXPECT_EQ(ca.noted("city_err_bound_db"), cb.noted("city_err_bound_db"));
}

}  // namespace
}  // namespace perfbench
