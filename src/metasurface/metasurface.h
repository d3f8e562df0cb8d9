// The deployed metasurface: a lattice of rotator unit cells plus the
// physical bookkeeping the paper reports (Section 4): aperture size, unit
// count, varactor count, leakage current and bill-of-materials cost.
//
// A surface answers response queries on the direct golden path (the scalar
// cascade of RotatorStack) unless it is bound to a SharedResponseEngine
// (src/metasurface/response_engine.h): then its point responses are engine
// lookups on the 1 mV bias lattice, shared with every other surface bound
// to the same engine (every device plant of a tracked fleet).
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/units.h"
#include "src/em/jones.h"
#include "src/kernel/jones_kernels.h"
#include "src/metasurface/designs.h"
#include "src/metasurface/rotator_stack.h"

namespace llama::metasurface {

class SharedResponseEngine;

/// Operating mode: wave passes through the surface, or bounces off it.
enum class SurfaceMode { kTransmissive, kReflective };

/// Physical description of the fabricated lattice.
struct LatticeSpec {
  double width_m = 0.48;          ///< paper: 480 mm
  double height_m = 0.48;         ///< paper: 480 mm
  double thickness_m = 5e-3;      ///< paper: 5 mm of PCB
  std::size_t unit_count = 180;   ///< paper: 180 functional units
  std::size_t varactor_count = 720;  ///< paper: 720 diodes
  double leakage_current_a = 15e-9;  ///< paper: 15 nA
  double varactor_unit_cost_usd = 0.50;
  double pcb_cost_usd = 540.0;
};

/// Cost summary per paper Section 4.
struct CostBreakdown {
  double varactors_usd = 0.0;
  double pcb_usd = 0.0;
  double total_usd = 0.0;
  double per_unit_usd = 0.0;
};

/// Stuck bias cells (src/fault): a fraction of the lattice's unit cells no
/// longer follows the shared bias rails and holds a fixed bias pair — a
/// dead varactor driver, a cracked via, a diode stuck at its last charge.
/// The aperture's aggregate response becomes the coherent mixture of the
/// healthy sub-aperture at the commanded bias and the stuck sub-aperture at
/// the stuck bias, which is exactly the measured-vs-predicted deviation the
/// resilient retune path detects.
struct StuckCellFault {
  double fraction = 0.0;  ///< fraction of unit cells stuck, in (0, 1]
  common::Voltage vx{0.0};
  common::Voltage vy{0.0};
};

/// Row-major grid of Jones responses: grid[iy][ix] is the response at
/// (vy_values[iy], vx_values[ix]) — same layout as FullGridSweep::grid_dbm.
using JonesGrid = std::vector<std::vector<em::JonesMatrix>>;

/// A list of (Vx, Vy) bias pairs for batch evaluation.
using BiasList = std::vector<std::pair<common::Voltage, common::Voltage>>;

/// A programmable polarization-rotating surface.
///
/// The two bias voltages (Vx, Vy) are the only control inputs — matching the
/// paper's prototype, where all unit cells share the two DC bias rails.
/// Copies share the bound response engine, if any.
class Metasurface {
 public:
  explicit Metasurface(RotatorStack stack, LatticeSpec spec = {});

  /// Convenience: LLAMA's fabricated design.
  [[nodiscard]] static Metasurface llama_prototype();

  [[nodiscard]] const LatticeSpec& spec() const { return spec_; }
  [[nodiscard]] const RotatorStack& stack() const { return stack_; }

  /// Sets the bias pair; values are clamped to the supply range [0, 30] V
  /// (so +-inf clamp to the rails). Throws std::invalid_argument on a NaN
  /// bias, leaving the bias unchanged.
  void set_bias(common::Voltage vx, common::Voltage vy);
  [[nodiscard]] common::Voltage bias_x() const { return vx_; }
  [[nodiscard]] common::Voltage bias_y() const { return vy_; }

  /// Jones matrix applied to a wave traversing (or reflecting off) the
  /// surface at frequency f under the current bias.
  ///
  /// Bound to a response engine (see share_response_engine) this is an
  /// engine lookup at the lattice bias; unbound, the direct golden path
  /// runs. The stuck sub-aperture of a stuck-cell fault follows the same
  /// rule.
  [[nodiscard]] em::JonesMatrix response(common::Frequency f,
                                         SurfaceMode mode) const;

  /// Binds a shared response engine, or unbinds with nullptr (restoring
  /// the direct path). Throws std::invalid_argument when the engine was
  /// built for a different stack design than this surface's.
  void share_response_engine(std::shared_ptr<SharedResponseEngine> engine);
  /// The bound engine; null when unbound.
  [[nodiscard]] const std::shared_ptr<SharedResponseEngine>& response_engine()
      const {
    return engine_;
  }

  /// Injects / clears a stuck-cell fault. The aggregate response of every
  /// query (response, response_grid, response_batch) becomes
  /// (1 - fraction) * response(commanded) + fraction * response(stuck) —
  /// a bound engine holds only the pure responses, so a fault never
  /// poisons it. Throws std::invalid_argument when the fraction is
  /// non-finite or outside (0, 1]; the stuck bias pair is clamped to the
  /// supply range and NaN rejected like set_bias.
  void set_stuck_cells(std::optional<StuckCellFault> fault);
  [[nodiscard]] const std::optional<StuckCellFault>& stuck_cells() const {
    return stuck_;
  }

  /// Batched evaluation of a whole bias plane at one frequency: returns
  /// grid[iy][ix] = response at (vx_values[ix], vy_values[iy]). Biases are
  /// clamped to the supply range and NaN rejected like set_bias. The plan's
  /// cell cascade (src/kernel) is memoized per mode, each column's X half
  /// and each row's Y half are computed once, and rows are distributed
  /// over `threads` workers (<= 0 picks a default). Every cell is a pure
  /// function of its biases, so the grid is byte-identical for any thread
  /// count (asserted by ResponseGrid.ThreadCountDoesNotChangeBytes). It is
  /// the engine's arithmetic: at lattice biases a cell equals
  /// SharedResponseEngine::response_grid's bit for bit, and elsewhere it
  /// agrees with the direct golden path to <= 1e-12 per component (the
  /// cascade reassociates; tests/kernel asserts the bound). Does not touch
  /// the current bias; the healthy cells never read a bound engine. A
  /// stuck-cell fault mixes into every cell exactly as response() mixes it,
  /// so batched sweeps see the same degraded plane pointwise probes do. Not
  /// thread-safe: it updates the mutable cascade memo.
  [[nodiscard]] JonesGrid response_grid(common::Frequency f, SurfaceMode mode,
                                        const std::vector<double>& vx_values,
                                        const std::vector<double>& vy_values,
                                        int threads = 0) const;

  /// Batched evaluation of an arbitrary list of bias pairs (same contract
  /// as response_grid, one result per input point).
  [[nodiscard]] std::vector<em::JonesMatrix> response_batch(
      common::Frequency f, SurfaceMode mode, const BiasList& points,
      int threads = 0) const;

  /// Polarization rotation imparted in transmissive mode at frequency f.
  [[nodiscard]] common::Angle rotation_angle(common::Frequency f) const;

  /// Transmission efficiency (paper Eq. 11) at the current bias.
  [[nodiscard]] double transmission_efficiency_db(common::Frequency f,
                                                  bool y_excitation) const;

  /// DC power drawn from the bias supply: V * I_leak summed over both rails
  /// — nanowatts, the paper's "can work even with one buffer capacitor".
  [[nodiscard]] double dc_power_w() const;

  /// Bill-of-materials summary (paper: $900 prototype, $5 per unit).
  [[nodiscard]] CostBreakdown cost() const;

 private:
  /// Response at an explicit bias pair: an engine lookup when bound, the
  /// direct golden path otherwise.
  [[nodiscard]] em::JonesMatrix response_at(common::Frequency f,
                                            SurfaceMode mode,
                                            common::Voltage vx,
                                            common::Voltage vy) const;

  /// The stuck sub-aperture's response (see response_at) under a
  /// stuck-cell fault; nullopt when healthy.
  [[nodiscard]] std::optional<em::JonesMatrix> stuck_response(
      common::Frequency f, SurfaceMode mode) const;

  /// The plan's cell cascade for (f, mode), rebuilt only when the mode's
  /// memoized frequency differs. response_grid / response_batch take it
  /// once per call, before their sharded loops, which only read it.
  [[nodiscard]] const kernel::CellCascade& cascade(common::Frequency f,
                                                   SurfaceMode mode) const;

  RotatorStack stack_;
  LatticeSpec spec_;
  common::Voltage vx_{0.0};
  common::Voltage vy_{0.0};
  std::optional<StuckCellFault> stuck_;
  /// Shared response store for point responses; null = direct path.
  std::shared_ptr<SharedResponseEngine> engine_;
  /// Most recent cell cascade per mode (transmissive, reflective), keyed
  /// by frequency in Hz.
  mutable std::array<std::optional<std::pair<double, kernel::CellCascade>>, 2>
      cascades_;
};

}  // namespace llama::metasurface
