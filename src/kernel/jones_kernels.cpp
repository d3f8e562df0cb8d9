#include "src/kernel/jones_kernels.h"

#include <algorithm>
#include <cmath>

#include "src/kernel/board_kernels.h"

namespace llama::kernel {

using em::Complex;
using em::JonesMatrix;

namespace {

/// Splits a rotation angle into the rotated-diagonal coefficients:
/// R(theta) diag(tx, ty) R(theta)^T = [[c2 tx + s2 ty, cs (tx - ty)],
///                                     [cs (tx - ty), s2 tx + c2 ty]].
struct RotationCoeffs {
  double c2, s2, cs;
};

RotationCoeffs rotation_coeffs(common::Angle theta) {
  const double c = std::cos(theta.rad());
  const double s = std::sin(theta.rad());
  return {c * c, s * s, c * s};
}

/// A 2x2 complex matrix as eight doubles: re[4] then im[4], row-major.
void split(const JonesMatrix& m, double* out) {
  for (int e = 0; e < 4; ++e) {
    out[e] = m.at(e / 2, e % 2).real();
    out[4 + e] = m.at(e / 2, e % 2).imag();
  }
}

JonesMatrix unsplit(const double* m) {
  return JonesMatrix{Complex{m[0], m[4]}, Complex{m[1], m[5]},
                     Complex{m[2], m[6]}, Complex{m[3], m[7]}};
}

/// out = (vr + j vi) * m, or out += it when Accumulate, for a split matrix
/// m.
template <bool Accumulate>
void scale_into(double vr, double vi, const double* m, double* out) {
  for (int e = 0; e < 4; ++e) {
    const double re = vr * m[e] - vi * m[4 + e];
    const double im = vr * m[4 + e] + vi * m[e];
    out[e] = Accumulate ? out[e] + re : re;
    out[4 + e] = Accumulate ? out[4 + e] + im : im;
  }
}

/// Index of `channel` in `channels`, appending it unless an equal one is
/// already there: identical boards share one solve and one lattice entry.
std::size_t add_channel(std::vector<AxisChannel>& channels,
                        const AxisChannel& channel) {
  const auto it = std::find(channels.begin(), channels.end(), channel);
  if (it != channels.end())
    return static_cast<std::size_t>(it - channels.begin());
  channels.push_back(channel);
  return channels.size() - 1;
}

}  // namespace

// -------------------------------------------------------------------- channels

void solve_axis_entries(std::span<const AxisChannel> channels, BiasAxis axis,
                        std::span<const double> biases, double* out) {
  const std::size_t width = channels.size();
  ComplexLanes lanes;
  for (std::size_t k = 0; k < width; ++k) {
    const AxisChannel& channel = channels[k];
    const bool s21 = channel.output == AxisOutput::kS21;
    axis_s_lanes(channel.plan(axis), channel.omega, channel.varactor, biases,
                 channel.output, s21 ? &lanes : nullptr,
                 s21 ? nullptr : &lanes);
    for (std::size_t i = 0; i < biases.size(); ++i) {
      out[2 * (i * width + k)] = lanes.re[i];
      out[2 * (i * width + k) + 1] = lanes.im[i];
    }
  }
}

// ---------------------------------------------------------------- cell cascade

void CellCascade::factor_half(const Factor& f, BiasAxis axis,
                              const double* entry, double* half) const {
  if (f.terms.empty()) {
    std::fill_n(half, 8, 0.0);
    return;
  }
  const auto coefficients = [axis](const Term& t) {
    return axis == BiasAxis::kX ? t.x : t.y;
  };
  const Term& first = f.terms.front();
  scale_into<false>(entry[2 * first.channel], entry[2 * first.channel + 1],
                    coefficients(first), half);
  for (std::size_t i = 1; i < f.terms.size(); ++i) {
    const Term& t = f.terms[i];
    scale_into<true>(entry[2 * t.channel], entry[2 * t.channel + 1],
                     coefficients(t), half);
  }
}

void CellCascade::apply_factor(const Factor& f, const double* x_half,
                               const double* y_half, bool first, double* u) {
  double k[8];
  for (int e = 0; e < 8; ++e)
    k[e] = f.has_constant ? f.constant[e] + x_half[e] + y_half[e]
                          : x_half[e] + y_half[e];
  if (first) {
    std::copy_n(k, 8, u);
    return;
  }
  // u = k * u over split re/im halves.
  double t[8];
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 2; ++c) {
      const double ar = k[2 * r], ai = k[4 + 2 * r];
      const double br = k[2 * r + 1], bi = k[4 + 2 * r + 1];
      t[2 * r + c] =
          ar * u[c] - ai * u[4 + c] + br * u[2 + c] - bi * u[6 + c];
      t[4 + 2 * r + c] =
          ar * u[4 + c] + ai * u[c] + br * u[6 + c] + bi * u[2 + c];
    }
  std::copy_n(t, 8, u);
}

void CellCascade::axis_terms(BiasAxis axis, const double* entry,
                             double* terms) const {
  for (std::size_t f = 0; f < factors_.size(); ++f)
    factor_half(factors_[f], axis, entry, terms + 8 * f);
}

JonesMatrix CellCascade::combine(const double* x_terms,
                                 const double* y_terms) const {
  double u[8];
  for (std::size_t f = 0; f < factors_.size(); ++f)
    apply_factor(factors_[f], x_terms + 8 * f, y_terms + 8 * f, f == 0, u);
  return unsplit(u);
}

JonesMatrix CellCascade::eval(const double* x, const double* y) const {
  double u[8];
  for (std::size_t f = 0; f < factors_.size(); ++f) {
    double x_half[8];
    double y_half[8];
    factor_half(factors_[f], BiasAxis::kX, x, x_half);
    factor_half(factors_[f], BiasAxis::kY, y, y_half);
    apply_factor(factors_[f], x_half, y_half, f == 0, u);
  }
  return unsplit(u);
}

// ---------------------------------------------------------------- transmission

CellCascade transmission_cells(
    const metasurface::RotatorStack& stack,
    const metasurface::RotatorStack::TransmissionPlan& plan) {
  // Every run of consecutive static boards and air-gap phases folds into
  // one constant C, multiplied into the factor before it (or, ahead of the
  // first tunable board, into `opening`, which that board's factor
  // absorbs). The multiplication ORDER matches the scalar planned loop
  // (first element multiplies from the right), but the folding
  // reassociates — hence the <= 1e-12 (not bit-equal) contract with the
  // scalar path.
  CellCascade out;
  struct Pending {
    std::size_t channel;
    JonesMatrix x, y;
  };
  std::vector<Pending> factors;
  JonesMatrix opening = JonesMatrix::identity();
  JonesMatrix run = JonesMatrix::identity();
  bool in_run = false;
  const auto close_run = [&] {
    if (!in_run) return;
    if (factors.empty()) {
      opening = run * opening;
    } else {
      factors.back().x = run * factors.back().x;
      factors.back().y = run * factors.back().y;
    }
    run = JonesMatrix::identity();
    in_run = false;
  };
  for (const metasurface::RotatorStack::TransmissionStep& step : plan.steps) {
    if (!step.tunable) {
      run = step.fixed_jones * run;
      if (step.has_gap) run = step.gap_factor * run;
      in_run = true;
      continue;
    }
    close_run();
    const metasurface::Board& board = stack.elements()[step.index].board;
    const std::size_t channel = add_channel(
        out.channels_,
        AxisChannel{step.board_plan.x, step.board_plan.y,
                    step.board_plan.omega, board.varactor(),
                    AxisOutput::kS21});
    const RotationCoeffs rc = rotation_coeffs(step.rotation);
    const Complex c2{rc.c2, 0.0}, s2{rc.s2, 0.0}, cs{rc.cs, 0.0};
    factors.push_back({channel, JonesMatrix{c2, cs, cs, s2} * opening,
                       JonesMatrix{s2, -cs, -cs, c2} * opening});
    opening = JonesMatrix::identity();
    if (step.has_gap) {
      run = step.gap_factor * JonesMatrix::identity();
      in_run = true;
    }
  }
  close_run();
  for (const Pending& f : factors) {
    CellCascade::Term term;
    term.channel = f.channel;
    split(f.x, term.x);
    split(f.y, term.y);
    out.factors_.emplace_back().terms.push_back(term);
  }
  if (factors.empty()) {  // nothing tunable: the whole stack is constant
    CellCascade::Factor constant;
    constant.has_constant = true;
    split(opening, constant.constant);
    out.factors_.push_back(constant);
  }
  return out;
}

// ------------------------------------------------------------------ reflection

CellCascade reflection_cells(
    const metasurface::RotatorStack& stack,
    const metasurface::RotatorStack::ReflectionPlan& plan) {
  const metasurface::StackElement& target = stack.elements()[plan.target_index];
  const AxisChannel target_channel{plan.target_plan.x, plan.target_plan.y,
                                   plan.target_plan.omega,
                                   target.board.varactor(), AxisOutput::kS11};
  // Deep bounce: F^T rotated(diag(rx, ry)) F
  //   = a F^T E00 F + b F^T (E01 + E10) F + d F^T E11 F
  // with a = c2 rx + s2 ry, b = cs (rx - ry), d = s2 rx + c2 ry, i.e.
  // rx (c2 G_a + cs G_b + s2 G_d) + ry (s2 G_a - cs G_b + c2 G_d), each G
  // folded with kDeepPathWeight.
  const JonesMatrix f = plan.forward;
  const JonesMatrix ft = f.transpose();
  const Complex zero{0.0, 0.0};
  const Complex one{1.0, 0.0};
  const JonesMatrix ga = metasurface::kDeepPathWeight *
                         (ft * JonesMatrix{one, zero, zero, zero} * f);
  const JonesMatrix gb = metasurface::kDeepPathWeight *
                         (ft * JonesMatrix{zero, one, one, zero} * f);
  const JonesMatrix gd = metasurface::kDeepPathWeight *
                         (ft * JonesMatrix{zero, zero, zero, one} * f);
  const RotationCoeffs rc = rotation_coeffs(target.rotation);
  const JonesMatrix deep_x = rc.c2 * ga + rc.cs * gb + rc.s2 * gd;
  const JonesMatrix deep_y = rc.s2 * ga + (-rc.cs) * gb + rc.c2 * gd;

  CellCascade out;
  CellCascade::Factor factor;
  factor.has_constant = true;
  JonesMatrix constant =
      plan.front_uses_bias ? JonesMatrix{zero, zero, zero, zero}
                           : plan.gamma_front;
  if (plan.target_uses_bias) {
    out.channels_.push_back(target_channel);
    CellCascade::Term term;
    split(deep_x, term.x);
    split(deep_y, term.y);
    factor.terms.push_back(term);
  } else {
    // Bias-independent target: solve once at 0 V.
    const double v0 = 0.0;
    double r[2];
    solve_axis_entries({&target_channel, 1}, BiasAxis::kX, {&v0, 1}, r);
    const Complex rx{r[0], r[1]};
    solve_axis_entries({&target_channel, 1}, BiasAxis::kY, {&v0, 1}, r);
    const Complex ry{r[0], r[1]};
    constant = constant + rx * deep_x + ry * deep_y;
  }
  if (plan.front_uses_bias) {
    // front_gamma (rotator_stack.h) collected by channel value:
    // (r0x + r0y)/2 I + kfb (r0x - r0y)/2 D with
    // D = [[c2 - s2, 2 cs], [2 cs, s2 - c2]], the front board (the target)
    // rotation's coefficients.
    LLAMA_INVARIANT(plan.target_uses_bias && plan.target_index == 0,
                    "a tunable first board is the reflection target");
    const Complex half{0.5, 0.0};
    const Complex diag{rc.c2 - rc.s2, 0.0}, off{2.0 * rc.cs, 0.0};
    const JonesMatrix d =
        metasurface::kFrontBirefringence * JonesMatrix{diag, off, off, -diag};
    CellCascade::Term term;
    split(half * (JonesMatrix::identity() + d), term.x);
    split(half * (JonesMatrix::identity() + (-1.0) * d), term.y);
    factor.terms.push_back(term);
  }
  split(constant, factor.constant);
  out.factors_.push_back(factor);
  return out;
}

// ------------------------------------------------------------------- planes

PlaneKernel::PlaneKernel(const CellCascade& cells,
                         std::span<const double* const> x_entries,
                         std::span<const double* const> y_entries)
    : cells_(&cells),
      nx_(x_entries.size()),
      stride_(cells.terms_size()),
      halves_((x_entries.size() + y_entries.size()) * stride_) {
  for (std::size_t i = 0; i < nx_; ++i)
    cells.axis_terms(BiasAxis::kX, x_entries[i], halves_.data() + i * stride_);
  for (std::size_t i = 0; i < y_entries.size(); ++i)
    cells.axis_terms(BiasAxis::kY, y_entries[i],
                     halves_.data() + (nx_ + i) * stride_);
}

PlaneKernel::PlaneKernel(const CellCascade& cells, std::span<const double> vx,
                         std::span<const double> vy)
    : cells_(&cells),
      nx_(vx.size()),
      stride_(cells.terms_size()),
      halves_((vx.size() + vy.size()) * stride_) {
  const std::size_t width = 2 * cells.channels().size();
  std::vector<double> entries(width * (vx.size() + vy.size()));
  solve_axis_entries(cells.channels(), BiasAxis::kX, vx, entries.data());
  solve_axis_entries(cells.channels(), BiasAxis::kY, vy,
                     entries.data() + width * nx_);
  for (std::size_t i = 0; i < vx.size() + vy.size(); ++i)
    cells.axis_terms(i < nx_ ? BiasAxis::kX : BiasAxis::kY,
                     entries.data() + i * width, halves_.data() + i * stride_);
}

}  // namespace llama::kernel
