// Dielectric substrate models.
//
// The paper's central cost/performance trade-off is Rogers 5880 (low loss,
// expensive) versus FR4 (lossy, cheap): FR4's loss tangent is ~22x higher,
// which destroys transmission efficiency unless the layer stack is thinned
// and simplified (paper Figs. 8-10). This module captures exactly the
// parameters that drive that trade-off.
#pragma once

#include <complex>
#include <string>

#include "src/common/units.h"

namespace llama::microwave {

/// A dielectric laminate characterized by its relative permittivity,
/// loss tangent, and per-area cost.
class Substrate {
 public:
  Substrate(std::string name, double epsilon_r, double loss_tangent,
            double cost_usd_per_m2);

  /// Rogers RT/duroid 5880: er = 2.2, tan d = 0.0009 (paper ref. [30]).
  [[nodiscard]] static Substrate rogers5880();

  /// Standard FR4 TG135: er = 4.4, tan d = 0.02 (paper ref. [13]).
  [[nodiscard]] static Substrate fr4();

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] double epsilon_r() const { return epsilon_r_; }
  [[nodiscard]] double loss_tangent() const { return loss_tangent_; }
  [[nodiscard]] double cost_usd_per_m2() const { return cost_usd_per_m2_; }

  /// Complex relative permittivity er (1 - j tan d).
  [[nodiscard]] std::complex<double> complex_epsilon_r() const;

  /// Wave impedance inside the dielectric [ohm].
  [[nodiscard]] std::complex<double> wave_impedance() const;

  /// Propagation constant gamma = alpha + j*beta at `f` for a plane wave in
  /// this dielectric [1/m]. The real part (attenuation) scales with the loss
  /// tangent — this is the mechanism that penalizes thick FR4 layers.
  [[nodiscard]] std::complex<double> propagation_constant(
      common::Frequency f) const;

  /// Dielectric attenuation in dB per millimeter at `f` — a direct,
  /// scalar view of why layer thickness must shrink on FR4.
  [[nodiscard]] double attenuation_db_per_mm(common::Frequency f) const;

  friend bool operator==(const Substrate&, const Substrate&) = default;

 private:
  std::string name_;
  double epsilon_r_;
  double loss_tangent_;
  double cost_usd_per_m2_;
};

}  // namespace llama::microwave
