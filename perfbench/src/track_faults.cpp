// track_faults: fault_drill_scenario(256, 4, 120) under ResilientPolicy,
// run as repeated FleetTracker::run episodes with one worker. The run seed
// keys the fault plan's draws (which measurements drop, which cells stick).
#include <cstdio>
#include <exception>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/codebook/compiler.h"
#include "src/core/scenarios.h"
#include "src/fault/resilient_policy.h"
#include "src/track/fleet_tracker.h"

namespace perfbench {

using namespace llama;

namespace {

struct Drill {
  core::FaultDrillScenario scenario;
  std::unique_ptr<codebook::Codebook> book;
  std::unique_ptr<track::FleetTracker> tracker;
};

Drill build_drill(const TrackFaultsParams& p, std::uint64_t seed,
                  Tracer* tr) {
  Drill d;
  {
    const Tracer::Span span(tr, Op::kCoreScenario);
    d.scenario = core::fault_drill_scenario(p.devices, p.surfaces, p.ticks);
  }
  {
    const Tracer::Span span(tr, Op::kFaultPlanRoundTrip);
    const std::vector<std::uint8_t> bytes =
        track_plan_inputs(*d.scenario.plan, seed)->serialize();
    d.scenario.plan = std::make_shared<const fault::FaultPlan>(
        fault::FaultPlan::deserialize(std::span<const std::uint8_t>{bytes}));
  }
  d.scenario.config.faults = d.scenario.plan;
  d.scenario.config.deployment.threads = 1;
  codebook::CompilerOptions compile;
  compile.threads = 1;
  {
    const Tracer::Span span(tr, Op::kCodebookCompile);
    d.book = std::make_unique<codebook::Codebook>(
        codebook::CodebookCompiler{
            core::device_system_config(d.scenario.config.deployment,
                                       common::Angle::degrees(0.0))}
            .compile(compile));
  }
  d.tracker = std::make_unique<track::FleetTracker>(d.scenario.config);
  return d;
}

track::PolicyFactory resilient_factory(const codebook::Codebook& book,
                                       Tracer* tr) {
  fault::ResilientPolicy::Options options;
  options.lookup.threads = 1;
  return [&book, options, tr] {
    const Tracer::Span span(tr, Op::kFaultPolicy);
    return std::make_unique<fault::ResilientPolicy>(book, options);
  };
}

track::FleetReport episode(const Drill& d, Tracer* tr) {
  const Tracer::Span span(tr, Op::kTrackRun);
  return d.tracker->run(d.scenario.devices, resilient_factory(*d.book, tr),
                        d.scenario.ticks);
}

/// Every deterministic field of a fleet report, printed exactly.
std::string fingerprint(const track::FleetReport& r) {
  std::string s;
  char buf[64];
  const auto add = [&](double v) {
    std::snprintf(buf, sizeof buf, "%a,", v);
    s += buf;
  };
  for (const track::DeviceTrackResult& d : r.devices) {
    s += d.name + ":" + std::to_string(d.surface) + ":" +
         std::to_string(d.home_surface) + ":";
    add(d.report.outage_fraction);
    add(d.report.mean_power_dbm);
    add(d.report.min_power_dbm);
    add(d.report.mean_delivered_mbps);
    add(d.report.retune_airtime_s);
    s += std::to_string(d.report.retune_count) + "," +
         std::to_string(d.report.dropped_measurements) + ";";
  }
  add(r.mean_outage_fraction);
  add(r.retune_airtime_s);
  add(r.sum_delivered_mbps);
  s += std::to_string(r.retune_count) + "," +
       std::to_string(r.dropped_measurements) + "," +
       std::to_string(r.reassignments) + "," +
       std::to_string(r.health_transitions) + ",";
  for (const fault::SurfaceHealth h : r.surface_health)
    s += fault::to_string(h) + std::string{","};
  return s;
}

}  // namespace

std::shared_ptr<const fault::FaultPlan> track_plan_inputs(
    const fault::FaultPlan& base, std::uint64_t seed) {
  auto plan = std::make_shared<fault::FaultPlan>(base);
  plan->seed = mix_seed(seed, 0x7F);
  return plan;
}

void run_track_faults(const RunOptions& options, const TrackFaultsParams& p,
                      Report& out) {
  std::vector<double> setup_s;
  const auto timed_set_up = [&] {
    const std::uint64_t t0 = now_ns();
    Drill built = build_drill(p, options.seed, nullptr);
    setup_s.push_back(seconds_since(t0));
    return built;
  };
  const Drill drill = timed_set_up();

  std::vector<double> episode_ms;
  std::string reference;
  track::FleetReport first;
  bool repeats = true;
  const std::uint64_t start = now_ns();
  std::uint64_t last_setup = start;
  while (episode_ms.size() < 3 || seconds_since(start) < options.seconds) {
    if (seconds_since(last_setup) >= kSetupIntervalS) {
      (void)timed_set_up();  // sampled across the run, then discarded
      last_setup = now_ns();
    }
    out.attempt();
    try {
      const std::uint64_t t0 = now_ns();
      track::FleetReport report = episode(drill, nullptr);
      episode_ms.push_back(seconds_since(t0) * 1e3);
      std::string fp = fingerprint(report);
      if (reference.empty()) {
        reference = std::move(fp);
        first = std::move(report);
      } else {
        repeats = repeats && fp == reference;
      }
    } catch (const std::exception& e) {
      out.fail(1, std::string{"track_faults episode: "} + e.what());
      if (episode_ms.empty()) break;
    }
  }
  out.set("setup_s", median(setup_s));
  out.check(!reference.empty(), "track_faults: episodes completed");
  if (reference.empty()) return;
  out.check(repeats, "track_faults: every episode repeats the first exactly");
  const double device_ticks =
      static_cast<double>(p.devices) * static_cast<double>(p.ticks);
  out.set("latency_ms", median(episode_ms));
  out.set("throughput_per_s", device_ticks / (median(episode_ms) * 1e-3));
  out.timing("track_episode_ms", episode_ms, "ms");
  out.note("outage_frac", first.mean_outage_fraction, "ratio");
  out.note("delivered_mbps", first.sum_delivered_mbps, "Mbit/s");
  out.note("reassignments", static_cast<double>(first.reassignments),
           "count");
  // The robustness gate's ceiling on resilient outage.
  out.check(first.mean_outage_fraction <= 0.10 &&
                first.sum_delivered_mbps > 0.0,
            "track_faults: resilient outage <= 0.10 with traffic delivered");

  // Thread-count byte identity of the faulted run.
  track::FleetConfig two = drill.scenario.config;
  two.deployment.threads = 2;
  track::FleetTracker tracker2{two};
  out.check(fingerprint(tracker2.run(drill.scenario.devices,
                                     resilient_factory(*drill.book, nullptr),
                                     drill.scenario.ticks)) == reference,
            "track_faults: 2-worker FleetReport equals the 1-worker one");
}

double trace_track_faults(const RunOptions& options,
                          const TrackFaultsParams& p, Tracer& tracer,
                          Report& out, double overhead_seconds) {
  Tracer* const tr = &tracer;
  const Drill drill = build_drill(p, options.seed, tr);
  const std::uint64_t t0 = now_ns();
  const track::FleetReport r = episode(drill, tr);
  const double episode_s = seconds_since(t0);
  out.set("track.tick_us", episode_s * 1e6 / static_cast<double>(p.ticks));
  out.set("track.retunes", static_cast<double>(r.retune_count));
  out.set("track.retune_airtime_s", r.retune_airtime_s);
  out.set("fault.dropped", static_cast<double>(r.dropped_measurements));
  out.set("fault.reassignments", static_cast<double>(r.reassignments));
  out.set("fault.health_transitions",
          static_cast<double>(r.health_transitions));
  out.set("quality.outage_frac", r.mean_outage_fraction);
  out.set("quality.delivered_mbps", r.sum_delivered_mbps);

  if (overhead_seconds <= 0.0) return 0.0;
  return measure_overhead(overhead_seconds, [&](bool traced) {
    const std::uint64_t start = now_ns();
    (void)episode(drill, traced ? tr : nullptr);
    return seconds_since(start);
  });
}

}  // namespace perfbench
