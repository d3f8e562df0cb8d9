// Dense-deployment polarization reuse (paper Section 7 outlook): surfaces
// time-share across IoT devices mounted at different orientations, with all
// per-device Algorithm-1 runs served by the DeploymentEngine's shared
// response engine. Reported: per-device mean power and 802.11g
// throughput under the schedule versus an unassisted network.
#include <iostream>

#include "src/channel/ber.h"
#include "src/common/table.h"
#include "src/core/scenarios.h"

using namespace llama;

int main() {
  constexpr std::size_t kDevices = 6;
  constexpr std::size_t kSurfaces = 1;
  const core::DenseDeploymentScenario scenario =
      core::dense_deployment_scenario(kDevices, kSurfaces);

  deploy::DeploymentEngine engine{scenario.config};
  const deploy::DeploymentReport report = engine.run(scenario.devices);

  const auto wifi = channel::LinkLayerModel::wifi_80211g();
  // Busy-building noise+interference level: keeps SNRs rate-sensitive.
  const common::PowerDbm noise{-62.0};

  common::Table table{"Dense IoT: per-device power & throughput"};
  table.set_columns({"orient_deg", "raw_dbm", "opt_dbm", "sched_dbm",
                     "tput_raw_mbps", "tput_sched_mbps"});
  double total_raw = 0.0;
  double total_sched = 0.0;
  std::size_t total_slots = 0;
  for (const deploy::SurfaceReport& sr : report.surfaces) {
    total_slots += sr.slots.size();
    for (std::size_t k = 0; k < sr.device_ids.size(); ++k) {
      const deploy::DeviceResult& d = report.devices[sr.device_ids[k]];
      const double t_raw =
          wifi.throughput_mbps(d.unoptimized_power - noise);
      const double t_sched =
          wifi.throughput_mbps(sr.scheduled_power[k] - noise);
      total_raw += t_raw;
      total_sched += t_sched;
      table.add_row({scenario.devices[sr.device_ids[k]].orientation.deg(),
                     d.unoptimized_power.value(), d.optimized_power.value(),
                     sr.scheduled_power[k].value(), t_raw, t_sched});
    }
  }
  table.add_note("slots = " + std::to_string(total_slots) +
                 " (devices with compatible bias optima share airtime)");
  table.add_note("network throughput: " + std::to_string(total_raw) +
                 " -> " + std::to_string(total_sched) +
                 " Mbps with polarization scheduling");
  table.add_note("shared engine: " + std::to_string(report.plan_count) +
                 " plans, " + std::to_string(report.cache_stats.hits) +
                 " cache hits / " + std::to_string(report.cache_stats.misses) +
                 " misses");
  table.print(std::cout);
  return 0;
}
