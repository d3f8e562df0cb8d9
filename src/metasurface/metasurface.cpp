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

void Metasurface::set_bias(common::Voltage vx, common::Voltage vy) {
  vx_ = common::Voltage{common::clamp(vx.value(), 0.0, 30.0)};
  vy_ = common::Voltage{common::clamp(vy.value(), 0.0, 30.0)};
}

void Metasurface::set_stuck_cells(std::optional<StuckCellFault> fault) {
  if (fault) {
    if (!std::isfinite(fault->fraction) || !(fault->fraction > 0.0) ||
        fault->fraction > 1.0)
      throw std::invalid_argument{
          "Metasurface: stuck-cell fraction must lie in (0, 1]"};
    fault->vx = common::Voltage{common::clamp(fault->vx.value(), 0.0, 30.0)};
    fault->vy = common::Voltage{common::clamp(fault->vy.value(), 0.0, 30.0)};
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

const RotatorStack::TransmissionPlan& Metasurface::acquire_transmission_plan(
    common::Frequency f) const {
  if (!transmission_plan_ || transmission_plan_->first != f.in_hz())
    transmission_plan_.emplace(f.in_hz(), stack_.plan_transmission(f));
  return transmission_plan_->second;
}

const RotatorStack::ReflectionPlan& Metasurface::acquire_reflection_plan(
    common::Frequency f) const {
  if (!reflection_plan_ || reflection_plan_->first != f.in_hz())
    reflection_plan_.emplace(f.in_hz(), stack_.plan_reflection(f));
  return reflection_plan_->second;
}

em::JonesMatrix Metasurface::response_at(common::Frequency f,
                                         SurfaceMode mode, common::Voltage vx,
                                         common::Voltage vy) const {
  if (engine_) return engine_->response(f, mode, vx, vy);
  return mode == SurfaceMode::kTransmissive ? stack_.transmission(f, vx, vy)
                                            : stack_.reflection(f, vx, vy);
}

em::JonesMatrix Metasurface::response(common::Frequency f,
                                      SurfaceMode mode) const {
  const em::JonesMatrix healthy = response_at(f, mode, vx_, vy_);
  if (!stuck_) return healthy;
  // Coherent sub-aperture mixture: the stuck fraction keeps radiating at
  // its frozen bias.
  LLAMA_INVARIANT(stuck_->fraction > 0.0 && stuck_->fraction <= 1.0,
                  "set_stuck_cells admits only fractions in (0, 1]");
  const em::JonesMatrix stuck = response_at(f, mode, stuck_->vx, stuck_->vy);
  return em::Complex{1.0 - stuck_->fraction, 0.0} * healthy +
         em::Complex{stuck_->fraction, 0.0} * stuck;
}

namespace {

/// Clamp a raw bias axis to the supply range, matching set_bias.
std::vector<double> clamp_bias_lane(const std::vector<double>& values) {
  std::vector<double> clamped(values.size());
  for (std::size_t i = 0; i < values.size(); ++i)
    clamped[i] = common::clamp(values[i], 0.0, 30.0);
  return clamped;
}

/// Fixed pair-chunk size for response_batch: the work decomposition is part
/// of the byte-determinism contract (it must not depend on the worker
/// count), and chunks amortize the kernel's per-call scratch allocation.
constexpr std::size_t kPairChunk = 256;

/// Lane-space degraded blend from a stuck-cell fault. `stuck` is the stuck
/// sub-aperture's response (Metasurface::response_at); only the per-cell
/// mixing happens inside the kernels.
kernel::StuckBlend make_stuck_blend(const StuckCellFault& fault,
                                    const em::JonesMatrix& stuck) {
  kernel::StuckBlend blend;
  blend.keep = em::Complex{1.0 - fault.fraction, 0.0};
  blend.frac = em::Complex{fault.fraction, 0.0};
  blend.stuck = stuck;
  return blend;
}

}  // namespace

JonesGrid Metasurface::response_grid(common::Frequency f, SurfaceMode mode,
                                     const std::vector<double>& vx_values,
                                     const std::vector<double>& vy_values,
                                     int threads) const {
  JonesGrid grid(vy_values.size(),
                 std::vector<em::JonesMatrix>(vx_values.size()));
  if (vx_values.empty() || vy_values.empty()) return grid;
  const std::vector<double> vxs = clamp_bias_lane(vx_values);
  const std::vector<double> vys = clamp_bias_lane(vy_values);
  std::optional<kernel::StuckBlend> blend;
  if (stuck_)
    blend = make_stuck_blend(*stuck_,
                             response_at(f, mode, stuck_->vx, stuck_->vy));
  if (mode == SurfaceMode::kTransmissive) {
    // Plan acquired ONCE per (f, mode); the kernel factors it into SoA
    // lanes at construction and the sharded loop below only reads both by
    // const-ref.
    const RotatorStack::TransmissionPlan& plan = acquire_transmission_plan(f);
    kernel::TransmissionKernel k{stack_, plan, vxs, vys};
    if (blend) k.set_blend(*blend);
    // Shard ownership: parallel_for hands each shard a disjoint set of row
    // indices; shard iy writes only grid[iy], the kernel is shared
    // read-only, and eval scratch is call-local — so the plane is
    // byte-identical for any thread count.
    common::parallel_for(vys.size(), threads, [&](std::size_t iy) {
      k.eval_grid_row(iy, grid[iy].data());
    });
  } else {
    const RotatorStack::ReflectionPlan& plan = acquire_reflection_plan(f);
    kernel::ReflectionKernel k{stack_, plan, vxs, vys};
    if (blend) k.set_blend(*blend);
    // Shard ownership as above: shard iy writes only grid[iy].
    common::parallel_for(vys.size(), threads, [&](std::size_t iy) {
      k.eval_grid_row(iy, grid[iy].data());
    });
  }
  LLAMA_ENSURES(grid.size() == vy_values.size() &&
                    (grid.empty() || grid.front().size() == vx_values.size()),
                "bias-plane grid shape matches the requested axes");
  return grid;
}

std::vector<em::JonesMatrix> Metasurface::response_batch(
    common::Frequency f, SurfaceMode mode, const BiasList& points,
    int threads) const {
  std::vector<em::JonesMatrix> out(points.size());
  if (points.empty()) return out;
  std::vector<double> vxs(points.size());
  std::vector<double> vys(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    vxs[i] = common::clamp(points[i].first.value(), 0.0, 30.0);
    vys[i] = common::clamp(points[i].second.value(), 0.0, 30.0);
  }
  std::optional<kernel::StuckBlend> blend;
  if (stuck_)
    blend = make_stuck_blend(*stuck_,
                             response_at(f, mode, stuck_->vx, stuck_->vy));
  const std::size_t chunks = (points.size() + kPairChunk - 1) / kPairChunk;
  if (mode == SurfaceMode::kTransmissive) {
    const RotatorStack::TransmissionPlan& plan = acquire_transmission_plan(f);
    kernel::TransmissionKernel k{stack_, plan, vxs, vys};
    if (blend) k.set_blend(*blend);
    // Shard ownership: chunk c writes only out[c*kPairChunk .. end); the
    // chunk grid is fixed, so results are byte-identical for any thread
    // count.
    common::parallel_for(chunks, threads, [&](std::size_t c) {
      const std::size_t begin = c * kPairChunk;
      const std::size_t end = std::min(begin + kPairChunk, points.size());
      k.eval_pairs(begin, end, out.data() + begin);
    });
  } else {
    const RotatorStack::ReflectionPlan& plan = acquire_reflection_plan(f);
    kernel::ReflectionKernel k{stack_, plan, vxs, vys};
    if (blend) k.set_blend(*blend);
    // Shard ownership as above: chunk c writes only its own out range.
    common::parallel_for(chunks, threads, [&](std::size_t c) {
      const std::size_t begin = c * kPairChunk;
      const std::size_t end = std::min(begin + kPairChunk, points.size());
      k.eval_pairs(begin, end, out.data() + begin);
    });
  }
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
