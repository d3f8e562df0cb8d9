#include "src/metasurface/metasurface.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/common/contracts.h"
#include "src/common/math_utils.h"
#include "src/common/parallel.h"
#include "src/kernel/jones_kernels.h"
#include "src/metasurface/response_engine.h"

namespace llama::metasurface {

Metasurface::Metasurface(RotatorStack stack, LatticeSpec spec)
    : stack_(std::move(stack)), spec_(spec) {}

Metasurface Metasurface::llama_prototype() {
  return Metasurface{prototype_fr4_design()};
}

namespace {

/// A requested bias clamped to the supply range [0, 30] V, so +-inf clamp
/// to the rails; NaN has no rail and is rejected.
double supply_bias(double v) {
  if (std::isnan(v)) throw std::invalid_argument{"Metasurface: NaN bias"};
  return common::clamp(v, 0.0, 30.0);
}

std::vector<double> supply_biases(const std::vector<double>& values) {
  std::vector<double> clamped(values.size());
  std::transform(values.begin(), values.end(), clamped.begin(), supply_bias);
  return clamped;
}

/// Coherent sub-aperture mixture of a stuck-cell fault: the stuck fraction
/// keeps radiating at its frozen bias.
em::JonesMatrix mix(const StuckCellFault& fault, const em::JonesMatrix& healthy,
                    const em::JonesMatrix& stuck) {
  return em::Complex{1.0 - fault.fraction, 0.0} * healthy +
         em::Complex{fault.fraction, 0.0} * stuck;
}

/// Pair-chunk size for response_batch: each parallel_for index covers
/// kPairChunk pairs, amortizing the per-index dispatch. Cells are pure
/// functions of their biases, so the chunking never changes the bytes.
constexpr std::size_t kPairChunk = 256;

}  // namespace

void Metasurface::set_bias(common::Voltage vx, common::Voltage vy) {
  const common::Voltage x{supply_bias(vx.value())};
  const common::Voltage y{supply_bias(vy.value())};
  vx_ = x;
  vy_ = y;
}

void Metasurface::set_stuck_cells(std::optional<StuckCellFault> fault) {
  if (fault) {
    if (!std::isfinite(fault->fraction) || !(fault->fraction > 0.0) ||
        fault->fraction > 1.0)
      throw std::invalid_argument{
          "Metasurface: stuck-cell fraction must lie in (0, 1]"};
    fault->vx = common::Voltage{supply_bias(fault->vx.value())};
    fault->vy = common::Voltage{supply_bias(fault->vy.value())};
  }
  stuck_ = fault;
}

void Metasurface::share_response_engine(
    std::shared_ptr<SharedResponseEngine> engine) {
  if (engine && !(engine->stack() == stack_))
    throw std::invalid_argument{
        "Metasurface: response engine built for a different stack design"};
  engine_ = std::move(engine);
}

const kernel::CellCascade& Metasurface::cascade(common::Frequency f,
                                                SurfaceMode mode) const {
  auto& slot = cascades_[mode == SurfaceMode::kTransmissive ? 0 : 1];
  if (!slot || slot->first != f.in_hz())
    slot.emplace(f.in_hz(),
                 mode == SurfaceMode::kTransmissive
                     ? kernel::transmission_cells(stack_,
                                                  stack_.plan_transmission(f))
                     : kernel::reflection_cells(stack_,
                                                stack_.plan_reflection(f)));
  return slot->second;
}

em::JonesMatrix Metasurface::response_at(common::Frequency f,
                                         SurfaceMode mode, common::Voltage vx,
                                         common::Voltage vy) const {
  if (engine_) return engine_->response(f, mode, vx, vy);
  return mode == SurfaceMode::kTransmissive ? stack_.transmission(f, vx, vy)
                                            : stack_.reflection(f, vx, vy);
}

std::optional<em::JonesMatrix> Metasurface::stuck_response(
    common::Frequency f, SurfaceMode mode) const {
  if (!stuck_) return std::nullopt;
  LLAMA_INVARIANT(stuck_->fraction > 0.0 && stuck_->fraction <= 1.0,
                  "set_stuck_cells admits only fractions in (0, 1]");
  return response_at(f, mode, stuck_->vx, stuck_->vy);
}

em::JonesMatrix Metasurface::response(common::Frequency f,
                                      SurfaceMode mode) const {
  const em::JonesMatrix healthy = response_at(f, mode, vx_, vy_);
  const std::optional<em::JonesMatrix> stuck = stuck_response(f, mode);
  return stuck ? mix(*stuck_, healthy, *stuck) : healthy;
}

JonesGrid Metasurface::response_grid(common::Frequency f, SurfaceMode mode,
                                     const std::vector<double>& vx_values,
                                     const std::vector<double>& vy_values,
                                     int threads) const {
  const std::vector<double> vxs = supply_biases(vx_values);
  const std::vector<double> vys = supply_biases(vy_values);
  JonesGrid grid(vys.size(), std::vector<em::JonesMatrix>(vxs.size()));
  if (vxs.empty() || vys.empty()) return grid;
  const kernel::PlaneKernel k{cascade(f, mode), vxs, vys};
  const std::optional<em::JonesMatrix> stuck = stuck_response(f, mode);
  // Shard ownership: parallel_for hands each shard a disjoint set of row
  // indices; shard iy writes only grid[iy] and the kernel is shared
  // read-only, so the plane is byte-identical for any thread count.
  common::parallel_for(vys.size(), threads, [&](std::size_t iy) {
    for (std::size_t ix = 0; ix < vxs.size(); ++ix) {
      const em::JonesMatrix cell = k.cell(ix, iy);
      grid[iy][ix] = stuck ? mix(*stuck_, cell, *stuck) : cell;
    }
  });
  LLAMA_ENSURES(grid.size() == vy_values.size() &&
                    grid.front().size() == vx_values.size(),
                "bias-plane grid shape matches the requested axes");
  return grid;
}

std::vector<em::JonesMatrix> Metasurface::response_batch(
    common::Frequency f, SurfaceMode mode, const BiasList& points,
    int threads) const {
  std::vector<double> vxs(points.size());
  std::vector<double> vys(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    vxs[i] = supply_bias(points[i].first.value());
    vys[i] = supply_bias(points[i].second.value());
  }
  std::vector<em::JonesMatrix> out(points.size());
  if (points.empty()) return out;
  const kernel::PlaneKernel k{cascade(f, mode), vxs, vys};
  const std::optional<em::JonesMatrix> stuck = stuck_response(f, mode);
  // Shard ownership: chunk c writes only out[c*kPairChunk .. end).
  common::parallel_for(
      (points.size() + kPairChunk - 1) / kPairChunk, threads,
      [&](std::size_t c) {
        const std::size_t end = std::min((c + 1) * kPairChunk, points.size());
        for (std::size_t i = c * kPairChunk; i < end; ++i) {
          const em::JonesMatrix cell = k.cell(i, i);
          out[i] = stuck ? mix(*stuck_, cell, *stuck) : cell;
        }
      });
  LLAMA_ENSURES(out.size() == points.size(),
                "batched responses line up with the requested bias list");
  return out;
}

common::Angle Metasurface::rotation_angle(common::Frequency f) const {
  return stack_.rotation_angle(f, vx_, vy_);
}

double Metasurface::transmission_efficiency_db(common::Frequency f,
                                               bool y_excitation) const {
  return stack_.transmission_efficiency_db(f, vx_, vy_, y_excitation);
}

double Metasurface::dc_power_w() const {
  return (vx_.value() + vy_.value()) * spec_.leakage_current_a;
}

CostBreakdown Metasurface::cost() const {
  CostBreakdown c;
  c.varactors_usd = static_cast<double>(spec_.varactor_count) *
                    spec_.varactor_unit_cost_usd;
  c.pcb_usd = spec_.pcb_cost_usd;
  c.total_usd = c.varactors_usd + c.pcb_usd;
  c.per_unit_usd =
      spec_.unit_count > 0
          ? c.total_usd / static_cast<double>(spec_.unit_count)
          : 0.0;
  return c;
}

}  // namespace llama::metasurface
