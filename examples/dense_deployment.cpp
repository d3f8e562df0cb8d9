// Dense-deployment demo (the paper's Section 7 outlook): a fleet of IoT
// devices mounted at arbitrary orientations, served by multiple LLAMA
// surfaces that time-share bias states across compatible groups —
// "polarization reuse" at deployment scale. All per-device Algorithm-1
// runs draw from one shared response engine.
#include <cstdio>
#include <iostream>

#include "src/channel/ber.h"
#include "src/core/scenarios.h"

int main() {
  using namespace llama;

  constexpr std::size_t kDevices = 12;
  constexpr std::size_t kSurfaces = 2;
  core::DenseDeploymentScenario scenario =
      core::dense_deployment_scenario(kDevices, kSurfaces);

  std::cout << "== Dense IoT deployment: " << kDevices << " devices, "
            << kSurfaces << " surfaces ==\n";
  std::cout << "optimizing every device's bias pair (Algorithm 1 per "
               "device, one shared response engine)...\n\n";

  deploy::DeploymentEngine engine{scenario.config};
  const deploy::DeploymentReport report = engine.run(scenario.devices);

  for (std::size_t i = 0; i < report.devices.size(); ++i) {
    const deploy::DeviceResult& d = report.devices[i];
    std::printf(
        "  %-6s mounted at %5.1f deg (surface %zu): best bias (%4.1f, %4.1f)"
        " V, %6.1f -> %6.1f dBm\n",
        d.name.c_str(), scenario.devices[i].orientation.deg(), d.surface,
        d.sweep.best_vx.value(), d.sweep.best_vy.value(),
        d.unoptimized_power.value(), d.optimized_power.value());
  }

  for (const deploy::SurfaceReport& sr : report.surfaces) {
    std::printf("\nsurface %zu schedule: %zu slots over %zu devices\n",
                sr.surface, sr.slots.size(), sr.device_ids.size());
    for (std::size_t s = 0; s < sr.slots.size(); ++s) {
      std::printf("  slot %zu: bias (%4.1f, %4.1f) V, %3.0f%% airtime,"
                  " devices:",
                  s, sr.slots[s].vx.value(), sr.slots[s].vy.value(),
                  sr.slots[s].slot_fraction * 100.0);
      for (std::size_t k : sr.slots[s].device_indices)
        std::printf(" %s", report.devices[sr.device_ids[k]].name.c_str());
      std::printf("\n");
    }
  }

  // Link-layer view: 802.11g MAC throughput at the busy-building noise
  // level, before and after polarization scheduling.
  const auto wifi = channel::LinkLayerModel::wifi_80211g();
  const common::PowerDbm noise{-62.0};
  double before = 0.0;
  double after = 0.0;
  for (const deploy::SurfaceReport& sr : report.surfaces)
    for (std::size_t k = 0; k < sr.device_ids.size(); ++k) {
      before += wifi.throughput_mbps(
          report.devices[sr.device_ids[k]].unoptimized_power - noise);
      after += wifi.throughput_mbps(sr.scheduled_power[k] - noise);
    }

  std::printf(
      "\nnetwork 802.11g throughput: %.1f Mbps unassisted -> %.1f Mbps with"
      " polarization scheduling\n",
      before, after);
  std::printf(
      "spectral efficiency: %.1f -> %.1f bit/s/Hz summed over %zu links;"
      " mean QPSK BER %.2e -> %.2e\n",
      report.unassisted_capacity_bits_per_hz, report.sum_capacity_bits_per_hz,
      report.devices.size(), report.unassisted_mean_ber, report.mean_ber);
  std::printf(
      "shared response engine: %zu plans, %llu cache hits / %llu misses\n",
      report.plan_count,
      static_cast<unsigned long long>(report.cache_stats.hits),
      static_cast<unsigned long long>(report.cache_stats.misses));
  return 0;
}
