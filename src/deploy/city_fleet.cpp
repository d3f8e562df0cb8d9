#include "src/deploy/city_fleet.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "src/common/contracts.h"
#include "src/common/parallel.h"

namespace llama::deploy {

namespace {

const DeploymentConfig& validated_city_config(const DeploymentConfig& config) {
  if (config.layout.positions.empty())
    throw std::invalid_argument{
        "CityFleetEngine: config.layout has no positions"};
  if (config.layout.positions.size() != config.n_surfaces)
    throw std::invalid_argument{
        "CityFleetEngine: layout.positions.size() must equal n_surfaces"};
  if (config.geometry.mode != metasurface::SurfaceMode::kTransmissive)
    throw std::invalid_argument{
        "CityFleetEngine: city deployments model transmissive surfaces "
        "with the AP mounted behind each one"};
  config.layout.validate();
  return config;
}

}  // namespace

CityFleetEngine::CityFleetEngine(DeploymentConfig config,
                                 metasurface::RotatorStack stack)
    : config_(validated_city_config(config)),
      index_(config_.layout.positions, config_.layout.prune.cell_size_m),
      engine_(std::move(stack), config_.cache) {}

void CityFleetEngine::assign(const std::vector<DeviceSpec>& devices) {
  devices_.clear();
  cell_devices_.assign(index_.cell_count(), {});
  total_pruned_ = 0;
  total_kept_ = 0;
  devices_.reserve(devices.size());

  for (std::size_t i = 0; i < devices.size(); ++i) {
    const DeviceSpec& spec = devices[i];
    if (!spec.position)
      throw std::invalid_argument{
          "CityFleetEngine: every device needs a position"};
    if (!std::isfinite(spec.position->x_m) ||
        !std::isfinite(spec.position->y_m))
      throw std::invalid_argument{
          "CityFleetEngine: device position is not finite"};
    std::size_t serving;
    if (spec.surface >= 0) {
      serving = static_cast<std::size_t>(spec.surface);
      if (serving >= config_.n_surfaces)
        throw std::out_of_range{
            "CityFleetEngine: device surface index out of range"};
    } else {
      serving = index_.nearest(*spec.position);
    }

    channel::CitySceneBuild build = channel::build_city_scene_spec(
        index_, config_.layout, serving, *spec.position,
        config_.geometry.tx_surface_distance_m);
    // The AP sits tx_surface_distance behind its transmissive surface; the
    // device is serving_distance past it on the far side.
    channel::LinkGeometry g = config_.geometry;
    g.tx_rx_distance_m =
        g.tx_surface_distance_m + build.serving_distance_m;

    std::vector<std::size_t> to_deployment;
    to_deployment.reserve(1 + build.spec.placed.size());
    to_deployment.push_back(serving);  // scene home = the serving surface
    for (const channel::PlacedLeakageSpec& placed : build.spec.placed)
      to_deployment.push_back(placed.external_id);
    total_kept_ += build.spec.placed.size();
    total_pruned_ += build.spec.pruned_count;

    devices_.push_back(DeviceState{
        spec.name, serving, std::move(to_deployment),
        channel::PropagationScene::from_spec(
            config_.tx_antenna, config_.rx_antenna.oriented(spec.orientation),
            g, config_.environment, build.spec)});
    cell_devices_[static_cast<std::size_t>(index_.cell_of(serving))]
        .push_back(i);
  }
}

std::size_t CityFleetEngine::serving_surface(std::size_t device) const {
  if (device >= devices_.size())
    throw std::out_of_range{"CityFleetEngine: device index out of range"};
  return devices_[device].serving;
}

const channel::PropagationScene& CityFleetEngine::scene(
    std::size_t device) const {
  if (device >= devices_.size())
    throw std::out_of_range{"CityFleetEngine: device index out of range"};
  return devices_[device].scene;
}

double CityFleetEngine::mean_kept_leakage() const {
  if (devices_.empty()) return 0.0;
  return static_cast<double>(total_kept_) /
         static_cast<double>(devices_.size());
}

void CityFleetEngine::check_biases(
    const std::vector<SurfaceBias>& biases) const {
  if (biases.size() != config_.n_surfaces)
    throw std::invalid_argument{
        "CityFleetEngine: need one bias pair per deployment surface"};
}

em::JonesMatrix CityFleetEngine::response_at(const SurfaceBias& bias) {
  return engine_.response(config_.frequency, config_.geometry.mode, bias.vx,
                          bias.vy);
}

std::vector<em::JonesMatrix> CityFleetEngine::responses_at(
    const std::vector<SurfaceBias>& biases) {
  check_biases(biases);
  std::vector<em::JonesMatrix> responses;
  responses.reserve(biases.size());
  for (const SurfaceBias& bias : biases) responses.push_back(response_at(bias));
  return responses;
}

void CityFleetEngine::view_for(const DeviceState& state,
                               const std::vector<em::JonesMatrix>& responses,
                               std::vector<const em::JonesMatrix*>& view)
    const {
  view.assign(state.scene.surface_count(), nullptr);
  for (std::size_t j = 0; j < state.scene_to_deployment.size(); ++j)
    view[j] = &responses[state.scene_to_deployment[j]];
}

const CityFleetEngine::DeviceState& CityFleetEngine::resolve_scene(
    std::size_t device, const std::vector<SurfaceBias>& biases,
    std::vector<em::JonesMatrix>& responses,
    std::vector<const em::JonesMatrix*>& view) {
  if (device >= devices_.size())
    throw std::out_of_range{"CityFleetEngine: device index out of range"};
  check_biases(biases);
  const DeviceState& state = devices_[device];
  responses.clear();
  responses.reserve(state.scene_to_deployment.size());
  for (std::size_t s : state.scene_to_deployment)
    responses.push_back(response_at(biases[s]));
  view.assign(state.scene.surface_count(), nullptr);
  for (std::size_t j = 0; j < responses.size(); ++j) view[j] = &responses[j];
  return state;
}

CityEvalReport CityFleetEngine::evaluate(
    const std::vector<SurfaceBias>& biases) {
  return evaluate(biases, config_.threads);
}

CityEvalReport CityFleetEngine::evaluate(
    const std::vector<SurfaceBias>& biases, int threads) {
  // All M responses resolved once, serially, before the fan-out: the shard
  // loop below then touches no shared mutable state at all.
  const std::vector<em::JonesMatrix> responses = responses_at(biases);

  CityEvalReport report;
  report.power.assign(devices_.size(), common::PowerDbm{-120.0});
  report.error_bound_db.assign(devices_.size(), 0.0);
  report.shard_count = cell_devices_.size();

  const common::Frequency f = config_.frequency;
  const common::PowerDbm tx_power = config_.tx_power;
  const double floor_mw =
      config_.environment.interference_floor().to_mw().value();

  // Shard = spatial cell: each worker owns its cells' devices and writes
  // only its own result slots (cell -> device grouping is a pure function
  // of the layout, never of thread count), so the fleet evaluation is
  // byte-identical for any config.threads value.
  common::parallel_for(
      cell_devices_.size(), threads, [&](std::size_t cell) {
        std::vector<const em::JonesMatrix*> view;
        for (std::size_t i : cell_devices_[cell]) {
          const DeviceState& state = devices_[i];
          view_for(state, responses, view);
          const common::PowerDbm p = state.scene.received_power(
              tx_power, f,
              channel::PropagationScene::ResponseView{view.data(),
                                                      view.size()});
          report.power[i] = p;
          // Worst-case dB impact of the pruned paths on THIS device's
          // signal (interference floor subtracted before the sqrt — the
          // bound lives in field space).
          const double sig_mw =
              std::max(p.to_mw().value() - floor_mw, 1e-300);
          const double amp = std::sqrt(sig_mw);
          const double bound = state.scene.pruned_field_bound(tx_power, f);
          report.error_bound_db[i] =
              bound < amp
                  ? 20.0 * std::log10(amp / (amp - bound))
                  : std::numeric_limits<double>::infinity();
        }
      });

  for (double b : report.error_bound_db)
    report.max_error_bound_db = std::max(report.max_error_bound_db, b);
  return report;
}

channel::PropagationScene::FrozenEval CityFleetEngine::freeze_device(
    std::size_t device, const std::vector<SurfaceBias>& biases) {
  std::vector<em::JonesMatrix> responses;
  std::vector<const em::JonesMatrix*> view;
  const DeviceState& state = resolve_scene(device, biases, responses, view);
  return state.scene.freeze_except(
      channel::PropagationScene::kHomeSurface, config_.tx_power,
      config_.frequency,
      channel::PropagationScene::ResponseView{view.data(), view.size()});
}

void CityFleetEngine::refreeze_device(
    std::size_t device, channel::PropagationScene::FrozenEval& frozen,
    std::span<const std::size_t> retuned,
    const std::vector<SurfaceBias>& biases) {
  std::vector<em::JonesMatrix> responses;
  std::vector<const em::JonesMatrix*> view;
  const DeviceState& state = resolve_scene(device, biases, responses, view);

  // Deployment surfaces -> distinct spatial cells, ascending: the frozen
  // per-cell partials for exactly these cells are re-summed; everything
  // else is untouched.
  std::vector<std::int32_t> cells;
  cells.reserve(retuned.size());
  for (std::size_t s : retuned) {
    if (s >= config_.n_surfaces)
      throw std::out_of_range{
          "CityFleetEngine: retuned surface index out of range"};
    cells.push_back(index_.cell_of(s));
  }
  std::sort(cells.begin(), cells.end());
  cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
  state.scene.refreeze_cells(
      frozen, cells,
      channel::PropagationScene::ResponseView{view.data(), view.size()});
}

}  // namespace llama::deploy
