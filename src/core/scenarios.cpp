#include "src/core/scenarios.h"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "src/common/constants.h"
#include "src/common/math_utils.h"
#include "src/common/rng.h"

namespace llama::core {

namespace {

/// Deterministic low-discrepancy device posture: the golden-angle sequence
/// folded into the mismatch-heavy [50, 130) deg band (>= 50 deg off the
/// AP's polarization) the Section 7 outlook targets, where correction pays
/// for the surface's insertion loss. Shared by the static dense scenario
/// and the mobile fleet so their populations stay comparable.
common::Angle golden_angle_orientation(std::size_t i) {
  return common::Angle::degrees(
      50.0 + std::fmod(static_cast<double>(i) * 137.507764, 80.0));
}

SystemConfig base_transmissive(double tx_rx_distance_m,
                               common::PowerDbm tx_power,
                               common::Angle rx_orientation) {
  SystemConfig cfg;
  cfg.tx_power = tx_power;
  cfg.tx_antenna =
      channel::Antenna::directional_10dbi(common::Angle::degrees(0.0));
  cfg.rx_antenna = channel::Antenna::directional_10dbi(rx_orientation);
  cfg.geometry.mode = metasurface::SurfaceMode::kTransmissive;
  cfg.geometry.tx_rx_distance_m = tx_rx_distance_m;
  cfg.geometry.tx_surface_distance_m = tx_rx_distance_m / 2.0;
  cfg.environment = channel::Environment::absorber_chamber();
  return cfg;
}

}  // namespace

SystemConfig transmissive_mismatch_config(double tx_rx_distance_m,
                                          common::PowerDbm tx_power) {
  // Orthogonal antennas: the paper's worst-case polarization mismatch.
  return base_transmissive(tx_rx_distance_m, tx_power,
                           common::Angle::degrees(90.0));
}

SystemConfig transmissive_match_config(double tx_rx_distance_m,
                                       common::PowerDbm tx_power) {
  return base_transmissive(tx_rx_distance_m, tx_power,
                           common::Angle::degrees(0.0));
}

SystemConfig reflective_mismatch_config(double tx_surface_distance_m,
                                        common::PowerDbm tx_power) {
  SystemConfig cfg;
  cfg.tx_power = tx_power;
  cfg.tx_antenna =
      channel::Antenna::directional_10dbi(common::Angle::degrees(0.0));
  cfg.rx_antenna =
      channel::Antenna::directional_10dbi(common::Angle::degrees(90.0));
  cfg.geometry.mode = metasurface::SurfaceMode::kReflective;
  cfg.geometry.tx_rx_distance_m = 0.70;  // paper Section 5.2.1
  cfg.geometry.tx_surface_distance_m = tx_surface_distance_m;
  cfg.environment = channel::Environment::absorber_chamber();
  return cfg;
}

SensingScenario respiration_scenario() {
  SensingScenario s;
  s.system = reflective_mismatch_config(/*tx_surface_distance_m=*/2.0,
                                        /*tx_power=*/common::PowerDbm{7.0});
  // 5 mW = ~7 dBm (paper Section 5.2.2). The case study ran in an occupied
  // building: ambient 2.4 GHz interference sets the floor that buries the
  // breathing ripple until the surface lifts the reflected signal above it.
  s.system.environment =
      channel::Environment::with_interference(common::PowerDbm{-50.0});
  s.breathing.rate_hz = 0.25;
  s.breathing.chest_excursion_m = 5e-3;
  s.body_path_m = 2.6;
  s.body_scatter_amplitude = 0.18;
  return s;
}

std::vector<double> simulate_respiration_trace(const SensingScenario& scenario,
                                               bool with_surface,
                                               double duration_s,
                                               double sample_rate_hz,
                                               std::uint64_t seed) {
  SystemConfig cfg = scenario.system;
  cfg.seed = seed;
  LlamaSystem system{cfg};
  if (with_surface) {
    // Let the controller find the best bias once before the recording.
    (void)system.optimize_link();
  }

  const common::Frequency f = cfg.frequency;
  const sensing::BreathingTarget target{scenario.breathing,
                                        scenario.body_path_m,
                                        scenario.body_scatter_amplitude};
  radio::Receiver rx{cfg.receiver, common::Rng{seed ^ 0xABCDULL}};

  std::vector<double> trace;
  const int n = static_cast<int>(duration_s * sample_rate_hz);
  trace.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / sample_rate_hz;
    // Static field at the receiver (direct + surface path when deployed).
    const em::JonesVector static_field = system.link().field_at_receiver(
        cfg.tx_power, f, with_surface ? &system.surface() : nullptr);
    // Body-scattered replica of the transmit state, breathing-modulated.
    const double p_mw = cfg.tx_power.to_mw().value();
    const double tx_gain = cfg.tx_antenna.boresight_gain().linear();
    const em::JonesVector tx_state =
        em::Complex{std::sqrt(p_mw * tx_gain), 0.0} *
        cfg.tx_antenna.polarization().jones();
    const em::Complex body =
        target.scatter_coefficient(f, t) *
        channel::friis_amplitude(f, target.path_length_m());
    const em::JonesVector total = static_field + body * tx_state;
    // Receiver projection + ambient interference + measurement noise.
    const double plf = cfg.rx_antenna.polarization().match(total);
    const double p_rx_mw =
        total.power() * plf * cfg.rx_antenna.boresight_gain().linear() +
        cfg.environment.interference_floor().to_mw().value();
    const common::PowerDbm true_power =
        common::PowerMw{std::max(p_rx_mw, 1e-15)}.to_dbm();
    trace.push_back(
        rx.measure(true_power, /*window_s=*/0.005, t).value());
  }
  return trace;
}

DenseDeploymentScenario dense_deployment_scenario(std::size_t n_devices,
                                                  std::size_t m_surfaces,
                                                  common::PowerDbm tx_power,
                                                  double tx_rx_distance_m) {
  DenseDeploymentScenario s;
  s.config.n_surfaces = m_surfaces;
  s.config.tx_power = tx_power;
  s.config.geometry.mode = metasurface::SurfaceMode::kTransmissive;
  s.config.geometry.tx_rx_distance_m = tx_rx_distance_m;
  s.config.geometry.tx_surface_distance_m = tx_rx_distance_m / 2.0;
  s.config.environment = channel::Environment::absorber_chamber();
  s.config.tx_antenna =
      channel::Antenna::iot_dipole(common::Angle::degrees(0.0));
  s.config.rx_antenna =
      channel::Antenna::iot_dipole(common::Angle::degrees(0.0));

  s.devices.reserve(n_devices);
  for (std::size_t i = 0; i < n_devices; ++i) {
    deploy::DeviceSpec d;
    d.name = "dev" + std::to_string(i);
    // Deterministic and low-discrepancy, so clusters of compatible
    // polarizations emerge naturally at any N.
    d.orientation = golden_angle_orientation(i);
    // A third of the fleet carries double traffic (cameras vs. sensors).
    d.traffic_weight = (i % 3 == 0) ? 2.0 : 1.0;
    d.surface = -1;  // round-robin
    s.devices.push_back(std::move(d));
  }
  return s;
}

CityScaleScenario city_scale_scenario(std::size_t m_surfaces,
                                      std::size_t n_devices,
                                      double cutoff_db) {
  if (m_surfaces == 0)
    throw std::invalid_argument{"city_scale_scenario: need >= 1 surface"};
  CityScaleScenario s;
  s.config.n_surfaces = m_surfaces;
  s.config.tx_power = common::PowerDbm{14.0};
  s.config.geometry.mode = metasurface::SurfaceMode::kTransmissive;
  // Each AP sits half a meter behind its transmissive surface; the
  // per-device total distance is overridden from the layout at assign
  // time, so the template value only seeds the config hash.
  s.config.geometry.tx_surface_distance_m = 0.5;
  s.config.geometry.tx_rx_distance_m = 6.5;
  s.config.environment = channel::Environment::absorber_chamber();
  s.config.tx_antenna =
      channel::Antenna::iot_dipole(common::Angle::degrees(0.0));
  s.config.rx_antenna =
      channel::Antenna::iot_dipole(common::Angle::degrees(0.0));

  // Street grid with mounting jitter: surfaces land near — never exactly
  // on — the lattice points, so no two mount distances are degenerate.
  const double spacing_m = 14.0;
  const std::size_t side = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(m_surfaces))));
  common::Rng rng{0xC117ULL ^ (static_cast<std::uint64_t>(m_surfaces) << 20) ^
                  static_cast<std::uint64_t>(n_devices)};
  s.config.layout.positions.reserve(m_surfaces);
  for (std::size_t i = 0; i < m_surfaces; ++i) {
    channel::Point2 p;
    p.x_m = static_cast<double>(i % side) * spacing_m +
            rng.uniform(-2.5, 2.5);
    p.y_m = static_cast<double>(i / side) * spacing_m +
            rng.uniform(-2.5, 2.5);
    s.config.layout.positions.push_back(p);
  }
  // Off-lobe leakage model: -20 dB coupling at the 8 m reference, then a
  // quadratic rolloff (side lobes + street clutter), so leakage amplitude
  // falls as 1/r^3 and the pruned-tail energy converges — that is what
  // lets a finite cutoff meet a fleet-wide 0.1 dB error budget.
  s.config.layout.coupling0 = 0.1;
  s.config.layout.sidelobe_ref_m = 8.0;
  s.config.layout.sidelobe_exponent = 2.0;
  s.config.layout.prune.cutoff_db = cutoff_db;
  s.config.layout.prune.cell_size_m = 2.0 * spacing_m;

  // Devices cluster by street: each surface serves a sector of similarly
  // mounted endpoints (golden-angle sector orientation +/- 15 deg), the
  // deployed-city premise that also keeps every serving link well out of
  // the cross-polarization null once the surface is programmed for its own
  // sector below. Serving assignment here mirrors CityFleetEngine::assign
  // (nearest surface through the same index parameters).
  const channel::SpatialSurfaceIndex index{s.config.layout.positions,
                                           s.config.layout.prune.cell_size_m};
  const double extent_m =
      std::max(static_cast<double>(side - 1) * spacing_m, spacing_m);
  s.devices.reserve(n_devices);
  for (std::size_t i = 0; i < n_devices; ++i) {
    deploy::DeviceSpec d;
    d.name = "city" + std::to_string(i);
    d.traffic_weight = (i % 3 == 0) ? 2.0 : 1.0;
    d.surface = -1;  // nearest-surface serving
    d.position = channel::Point2{rng.uniform(0.0, extent_m),
                                 rng.uniform(0.0, extent_m)};
    const std::size_t serving = index.nearest(*d.position);
    d.orientation = common::Angle::degrees(
        golden_angle_orientation(serving).deg() + rng.uniform(-15.0, 15.0));
    s.devices.push_back(std::move(d));
  }

  // Fleet-wide programming: each surface is tuned FOR ITS OWN SECTOR — the
  // best bias pair over a coarse supply grid for a representative device at
  // the sector orientation. A deployed fleet runs matched, not random,
  // rails; random rails would leave some sectors cross-polarized with
  // near-null serving power, where any dB-domain comparison diverges.
  metasurface::SharedResponseEngine rails{
      metasurface::prototype_fr4_design(), s.config.cache};
  std::vector<em::JonesMatrix> grid;
  std::vector<deploy::SurfaceBias> grid_biases;
  for (double vx = 0.0; vx <= 30.0; vx += 3.0)
    for (double vy = 0.0; vy <= 30.0; vy += 3.0) {
      grid_biases.push_back(deploy::SurfaceBias{common::Voltage{vx},
                                                common::Voltage{vy}});
      grid.push_back(rails.response(s.config.frequency,
                                    s.config.geometry.mode,
                                    common::Voltage{vx},
                                    common::Voltage{vy}));
    }
  s.biases.reserve(m_surfaces);
  for (std::size_t i = 0; i < m_surfaces; ++i) {
    const channel::PropagationScene sector_link =
        channel::PropagationScene::single_link(
            s.config.tx_antenna,
            s.config.rx_antenna.oriented(golden_angle_orientation(i)),
            s.config.geometry, s.config.environment);
    std::size_t best = 0;
    double best_mw = -1.0;
    for (std::size_t g = 0; g < grid.size(); ++g) {
      const double mw =
          sector_link
              .received_power_with_response(s.config.tx_power,
                                            s.config.frequency, grid[g])
              .to_mw()
              .value();
      // Strict > : ties resolve to the first grid point, deterministically.
      if (mw > best_mw) {
        best_mw = mw;
        best = g;
      }
    }
    s.biases.push_back(grid_biases[best]);
  }
  return s;
}

ServingScenario serving_scenario(std::size_t n_devices,
                                 std::size_t m_surfaces) {
  ServingScenario s;
  DenseDeploymentScenario base =
      dense_deployment_scenario(n_devices, m_surfaces);
  s.config = std::move(base.config);
  s.devices = std::move(base.devices);

  s.topology.n_shards = 4;
  s.topology.queue_depth = 1024;
  s.topology.admission = serve::AdmissionConfig{512, 896};

  // Overload layout: shallow rings and a tight admission ladder, so a flood
  // hits the degrade tier (16) and then the shed tier (48) long before the
  // physical capacity (64) — the bench's overload gate asserts both engage.
  s.overload_topology = s.topology;
  s.overload_topology.queue_depth = 64;
  s.overload_topology.admission = serve::AdmissionConfig{16, 48};

  s.read_heavy.seed = 0x5E11'0001ULL;
  s.read_heavy.rate_hz = 20'000.0;
  s.read_heavy.duration_s = 0.25;
  s.read_heavy.n_devices = n_devices;
  s.read_heavy.frequency = s.config.frequency;
  s.read_heavy.mix = serve::LoadMix::read_heavy();

  s.retune_heavy = s.read_heavy;
  s.retune_heavy.seed = 0x5E11'0002ULL;
  s.retune_heavy.rate_hz = 10'000.0;
  s.retune_heavy.mix = serve::LoadMix::retune_heavy();

  s.overload = s.retune_heavy;
  s.overload.seed = 0x5E11'0003ULL;
  s.overload.rate_hz = 50'000.0;
  s.overload.duration_s = 0.2;
  return s;
}

SystemConfig device_system_config(const deploy::DeploymentConfig& config,
                                  common::Angle rx_orientation) {
  SystemConfig cfg;
  cfg.frequency = config.frequency;
  cfg.tx_power = config.tx_power;
  cfg.tx_antenna = config.tx_antenna;
  cfg.rx_antenna = config.rx_antenna.oriented(rx_orientation);
  cfg.geometry = config.geometry;
  cfg.environment = config.environment;
  cfg.receiver = config.receiver;
  cfg.controller.sweep = config.sweep;
  // The deployment's scene topology rides along (empty when the
  // interference model is off), keeping system_config_hash equal to
  // deployment_config_hash in both modes.
  cfg.scene =
      deploy::device_scene_spec(config.n_surfaces, config.interference);
  return cfg;
}

RelayExtensionScenario relay_extension_scenario(double tx_rx_distance_m,
                                                common::PowerDbm tx_power) {
  RelayExtensionScenario s;
  s.single = transmissive_mismatch_config(tx_rx_distance_m, tx_power);
  s.relay = transmissive_mismatch_config(tx_rx_distance_m, tx_power);
  // Home surface at one third of the path, relay at two thirds: three
  // equal-length segments, so the relay path arrives phase-aligned with
  // the home path and the two rotations add coherently.
  s.relay.geometry.tx_surface_distance_m = tx_rx_distance_m / 3.0;
  channel::RelaySurfaceSpec relay;
  relay.surface_surface_m = tx_rx_distance_m / 3.0;
  relay.relay_rx_m = tx_rx_distance_m / 3.0;
  relay.coupling = 0.9;  // near-boresight aperture-to-aperture hop
  s.relay.scene.relays.push_back(relay);
  return s;
}

SceneSweepResult sweep_scene_biases(const SystemConfig& config,
                                    common::Voltage v_step) {
  const channel::PropagationScene scene =
      channel::PropagationScene::from_spec(config.tx_antenna,
                                           config.rx_antenna, config.geometry,
                                           config.environment, config.scene);
  if (scene.surface_count() > 2)
    throw std::invalid_argument{
        "sweep_scene_biases: exhaustive sweep supports at most two "
        "surfaces"};
  const metasurface::Metasurface surface =
      metasurface::Metasurface::llama_prototype();
  const std::vector<double> axis =
      common::stepped_range(0.0, 30.0, v_step.value());
  const metasurface::JonesGrid grid = surface.response_grid(
      config.frequency, config.geometry.mode, axis, axis);
  // Flat candidate list: every surface is the same fabricated stack, so
  // one response grid serves both rails.
  std::vector<const em::JonesMatrix*> candidates;
  for (const std::vector<em::JonesMatrix>& row : grid)
    for (const em::JonesMatrix& response : row)
      candidates.push_back(&response);

  SceneSweepResult out;
  out.baseline =
      scene.received_power_without_surface(config.tx_power, config.frequency);
  std::vector<const em::JonesMatrix*> responses(scene.surface_count(),
                                                nullptr);
  bool first = true;
  const auto consider = [&] {
    const common::PowerDbm power =
        scene.received_power(config.tx_power, config.frequency, responses);
    if (first || power > out.best_power) out.best_power = power;
    first = false;
  };
  if (scene.surface_count() == 1) {
    for (const em::JonesMatrix* home : candidates) {
      responses[0] = home;
      consider();
    }
  } else {
    for (const em::JonesMatrix* home : candidates) {
      responses[0] = home;
      for (const em::JonesMatrix* second : candidates) {
        responses[1] = second;
        consider();
      }
    }
  }
  out.gain = out.best_power - out.baseline;
  out.range_extension = channel::friis_range_extension(out.gain);
  return out;
}

MobileFleetScenario mobile_fleet_scenario(std::size_t n_devices,
                                          std::size_t m_surfaces,
                                          common::PowerDbm tx_power,
                                          double tx_rx_distance_m) {
  MobileFleetScenario s;
  // Same link parameters as the dense-IoT deployment; only the endpoints'
  // mobility is new.
  s.config.deployment =
      dense_deployment_scenario(n_devices, m_surfaces, tx_power,
                                tx_rx_distance_m)
          .config;
  s.config.loop.dt_s = 0.1;  // 5 supply periods per control decision
  s.config.loop.link_layer = channel::LinkLayerModel::ble_1m();
  s.config.loop.keep_trace = false;  // fleet-scale: aggregates only

  s.devices.reserve(n_devices);
  for (std::size_t i = 0; i < n_devices; ++i) {
    const double di = static_cast<double>(i);
    channel::ArmSwing::Params swing;
    swing.mean = golden_angle_orientation(i);
    // Strolling-to-walking swings with deterministic per-device diversity
    // so the fleet's fades decorrelate.
    swing.amplitude =
        common::Angle::degrees(25.0 + 10.0 * static_cast<double>(i % 3));
    swing.swing_rate_hz = 0.4 + 0.1 * static_cast<double>(i % 4);
    swing.phase_rad = std::fmod(di * 2.399963, 2.0 * common::kPi);
    track::FleetDeviceSpec spec;
    spec.name = "wearable" + std::to_string(i);
    spec.process = [swing] {
      return std::make_unique<channel::ArmSwing>(swing);
    };
    spec.surface = -1;  // round-robin
    s.devices.push_back(std::move(spec));
  }
  return s;
}

FaultDrillScenario fault_drill_scenario(std::size_t n_devices,
                                        std::size_t m_surfaces, long ticks) {
  if (ticks <= 0)
    throw std::invalid_argument{"fault_drill_scenario: need >= 1 tick"};
  FaultDrillScenario s;
  // Long-aisle link budget: the AP sits 6 m away at 4 dBm, so a heavily
  // mismatched direct path lands *below* the BLE operational floor and the
  // surface genuinely carries the link — a crashed surface then means
  // outage, not a few lost dB, which is what the drill must exercise.
  MobileFleetScenario base = mobile_fleet_scenario(
      n_devices, m_surfaces, common::PowerDbm{4.0}, /*tx_rx_distance_m=*/6.0);
  s.config = std::move(base.config);
  s.ticks = ticks;
  // Noise of -68 dBm puts the default BLE floor at -59 dBm: comfortably
  // below the roster's served power (-56..-54 dBm, ~3 dB of fade margin)
  // yet above its dark (surface-offline) power (-62..-59.4 dBm over the
  // orientation band) — so a crashed surface means outage, and a tracked
  // one does not.
  s.config.loop.noise = common::PowerDbm{-68.0};

  // The drill's own roster: deep-mismatch wearables confined to [80, 100]
  // deg (mean in [84, 96], swing amplitude 3-4 deg), where the surface's
  // polarization rotation is what keeps the link above the floor. The
  // golden-ratio mean spread and per-device rate/phase diversity mirror
  // mobile_fleet_scenario.
  s.devices.clear();
  s.devices.reserve(n_devices);
  for (std::size_t i = 0; i < n_devices; ++i) {
    const double di = static_cast<double>(i);
    channel::ArmSwing::Params swing;
    swing.mean =
        common::Angle::degrees(84.0 + 12.0 * std::fmod(di * 0.618033988749895,
                                                       1.0));
    swing.amplitude =
        common::Angle::degrees(3.0 + static_cast<double>(i % 2));
    swing.swing_rate_hz = 0.4 + 0.1 * static_cast<double>(i % 4);
    swing.phase_rad = std::fmod(di * 2.399963, 2.0 * common::kPi);
    track::FleetDeviceSpec spec;
    spec.name = "wearable" + std::to_string(i);
    spec.process = [swing] {
      return std::make_unique<channel::ArmSwing>(swing);
    };
    spec.surface = -1;  // round-robin
    s.devices.push_back(std::move(spec));
  }

  auto plan = std::make_shared<fault::FaultPlan>();
  plan->seed = 0xD811'11A0ULL;
  // Flaky telemetry from the start: 5% of every device's measurements drop.
  plan->events.push_back(fault::measurement_dropout_event(0.05));
  // One stuck unit cell (1% of the lattice) pinned to 0 V on surface 0 —
  // the compiled codebook's optima are slightly wrong there all episode.
  plan->events.push_back(fault::stuck_cells_event(
      /*surface=*/0, /*fraction=*/0.01, common::Voltage{0.0},
      common::Voltage{0.0}));
  // The last surface crashes offline at the episode midpoint and stays
  // down; its devices must be reassigned to survive.
  const double midpoint_s =
      0.5 * static_cast<double>(ticks) * s.config.loop.dt_s;
  plan->events.push_back(fault::surface_offline_event(
      static_cast<std::uint32_t>(m_surfaces - 1), midpoint_s));

  s.config.faults = plan;
  s.plan = std::move(plan);
  return s;
}

}  // namespace llama::core
