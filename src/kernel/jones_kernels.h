// Bias-plane evaluation of a RotatorStack plan.
//
// The scalar planned path (RotatorStack::transmission/reflection over a
// plan) evaluates one (Vx, Vy) cell at a time; this layer evaluates whole
// planes. A plan factors into per-axis channels — for each bias-dependent
// board, the X response depends only on Vx and the Y response only on Vy,
// so an nx-by-ny grid needs nx + ny board solves (src/kernel/board_kernels,
// SoA lanes the compiler auto-vectorizes) instead of nx * ny — and
// bias-independent constants: every run of consecutive static boards and
// air gaps folded into a single Jones matrix.
//
// transmission_cells() and reflection_cells() turn a plan into a
// CellCascade, which evaluates one cell from per-axis S-parameters as an X
// half, a Y half and one combine. Both modes have this one model:
// metasurface::SharedResponseEngine keeps the channels solved on a bias
// lattice, and PlaneKernel computes each column's X half and each row's Y
// half once for a whole plane, so a plane cell at a lattice bias equals the
// engine's cell bit for bit.
//
// Contract with the scalar golden reference: the cascades reassociate
// (constant folding, naive complex division), so results agree with the
// planned scalar path to <= 1e-12 per component — NOT bit-for-bit. Every
// plane cell is a pure function of (cascade, its biases), so planes are
// byte-identical for any thread count / shard shape; both properties are
// asserted by tests/kernel/test_golden_equivalence.cpp.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "src/common/contracts.h"
#include "src/em/jones.h"
#include "src/kernel/board_kernels.h"
#include "src/metasurface/rotator_stack.h"

namespace llama::kernel {

/// Which bias rail a per-axis solve runs on.
enum class BiasAxis { kX, kY };

/// One bias-dependent per-axis S-parameter that a cascade reads at every
/// cell: a board's X-axis value depends only on Vx, its Y-axis value only
/// on Vy.
struct AxisChannel {
  metasurface::BoardAxisPlan x;
  metasurface::BoardAxisPlan y;
  double omega = 0.0;
  microwave::Varactor varactor;
  AxisOutput output = AxisOutput::kS21;  ///< kS21 or kS11

  [[nodiscard]] const metasurface::BoardAxisPlan& plan(BiasAxis axis) const {
    return axis == BiasAxis::kX ? x : y;
  }

  friend bool operator==(const AxisChannel&, const AxisChannel&) = default;
};

/// Solves every channel on `axis` at every bias, interleaved into per-bias
/// entries: entry i starts at out + 2 * channels.size() * i and holds
/// channel k's value as (re, im) at offset 2k. Each entry is a pure function
/// of its own bias.
void solve_axis_entries(std::span<const AxisChannel> channels, BiasAxis axis,
                        std::span<const double> biases, double* out);

/// A plan's response at one cell from per-axis S-parameters solved
/// elsewhere (metasurface::SharedResponseEngine keeps them on a bias
/// lattice; PlaneKernel solves them per plane).
/// The plan's folded constants are multiplied into a cascade of factors,
/// each affine in the channel values:
///   J = F_m ... F_1,   F_f = K_f + sum_k (x_k X_fk + y_k Y_fk).
/// A cell therefore splits into an X half (sum_k x_k X_fk, per factor), a Y
/// half and a combine step that adds the halves and multiplies the factors.
/// eval() and axis_terms() + combine() run the same arithmetic, so a grid
/// that computes each column's and row's half once equals pointwise eval()
/// bit for bit. No scratch: a single cell allocates nothing.
class CellCascade {
 public:
  [[nodiscard]] const std::vector<AxisChannel>& channels() const {
    return channels_;
  }
  /// Doubles per axis half: a 2x2 complex matrix (re[4] then im[4]) per
  /// factor.
  [[nodiscard]] std::size_t terms_size() const { return 8 * factors_.size(); }

  /// One axis half from one entry (channel k's value on `axis` as (re, im)
  /// at entry[2k], the solve_axis_entries layout); writes terms_size()
  /// doubles.
  void axis_terms(BiasAxis axis, const double* entry, double* terms) const;
  /// The cell from one X half and one Y half.
  [[nodiscard]] em::JonesMatrix combine(const double* x_terms,
                                        const double* y_terms) const;
  /// combine(axis_terms(kX, x), axis_terms(kY, y)) without the buffers.
  [[nodiscard]] em::JonesMatrix eval(const double* x, const double* y) const;

 private:
  friend CellCascade transmission_cells(
      const metasurface::RotatorStack& stack,
      const metasurface::RotatorStack::TransmissionPlan& plan);
  friend CellCascade reflection_cells(
      const metasurface::RotatorStack& stack,
      const metasurface::RotatorStack::ReflectionPlan& plan);

  /// Channel `channel`'s coefficient matrices X_fk and Y_fk (re then im).
  struct Term {
    std::size_t channel = 0;
    double x[8] = {};
    double y[8] = {};
  };
  struct Factor {
    bool has_constant = false;
    double constant[8] = {};
    std::vector<Term> terms;
  };

  void factor_half(const Factor& f, BiasAxis axis, const double* entry,
                   double* half) const;
  /// u = F * u (or u = F for the first factor), F = (K +) x_half + y_half.
  static void apply_factor(const Factor& f, const double* x_half,
                           const double* y_half, bool first, double* u);

  std::vector<AxisChannel> channels_;
  std::vector<Factor> factors_;
};

/// The transmission model of a plan as a CellCascade: tunable board k is
/// the factor C T_k with T_k = x_k R diag(1, 0) R^T + y_k R diag(0, 1) R^T
/// (R its rotation) and C the static run after it; the first factor also
/// absorbs the opening static run. Channels: the tunable boards' S21 in
/// cascade order, identical boards (a stack's twin BFS boards) sharing one.
/// A stack with nothing tunable is one constant factor.
[[nodiscard]] CellCascade transmission_cells(
    const metasurface::RotatorStack& stack,
    const metasurface::RotatorStack::TransmissionPlan& plan);

/// The reflection model of a plan as a CellCascade of one factor
/// K + x·X + y·Y: the deep bounce F^T rotated(diag(rx, ry)) F and the
/// front-face specular term are both linear in the boards' S11. Channels:
/// the target board's S11 when it depends on bias, none otherwise. A
/// tunable first board is always the target (the first tunable element), so
/// the front term then reads the same channel.
[[nodiscard]] CellCascade reflection_cells(
    const metasurface::RotatorStack& stack,
    const metasurface::RotatorStack::ReflectionPlan& plan);

/// A CellCascade over a bias plane: the X half at every vx and the Y half
/// at every vy computed once, so a cell is one CellCascade::combine — the
/// arithmetic of CellCascade::eval. The same instance serves both plane
/// shapes: grid cell (ix, iy) is cell(ix, iy), pair i is cell(i, i).
/// Read-only after construction, so parallel shards may share it. The
/// cascade must outlive the kernel.
class PlaneKernel {
 public:
  /// Solves the cascade's channels at every bias here (solve_axis_entries).
  /// Biases are used as given — callers clamp to the supply range first.
  PlaneKernel(const CellCascade& cells, std::span<const double> vx,
              std::span<const double> vy);
  /// From entries solved elsewhere: x_entries[ix] and y_entries[iy] in the
  /// solve_axis_entries layout.
  PlaneKernel(const CellCascade& cells,
              std::span<const double* const> x_entries,
              std::span<const double* const> y_entries);

  /// The cascade at (vx[ix], vy[iy]).
  [[nodiscard]] em::JonesMatrix cell(std::size_t ix, std::size_t iy) const {
    LLAMA_EXPECTS(ix < nx_ && (nx_ + iy + 1) * stride_ <= halves_.size(),
                  "plane cell inside the bias axes");
    return cells_->combine(halves_.data() + ix * stride_,
                           halves_.data() + (nx_ + iy) * stride_);
  }

 private:
  const CellCascade* cells_;
  std::size_t nx_;
  std::size_t stride_;
  /// stride_ doubles per bias: the X half at each vx, then the Y half at
  /// each vy.
  std::vector<double> halves_;
};

}  // namespace llama::kernel
