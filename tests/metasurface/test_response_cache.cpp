// Golden correctness of the response paths: the planned, engine-bound and
// batched paths must reproduce the direct solver, and planned S-parameters
// must keep the physical invariants.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "src/metasurface/designs.h"
#include "src/metasurface/metasurface.h"
#include "src/metasurface/response_engine.h"

namespace llama::metasurface {
namespace {

using common::Frequency;
using common::Voltage;
using em::JonesMatrix;

constexpr double kTol = 1e-12;

const double kBiasSamples[] = {0.0, 2.0, 7.25, 13.5, 21.0, 30.0};
const double kFreqSamplesGhz[] = {2.0, 2.40, 2.44, 2.48, 2.8};

void expect_jones_near(const JonesMatrix& a, const JonesMatrix& b,
                       double tol, const std::string& what) {
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 2; ++c) {
      EXPECT_NEAR(a.at(r, c).real(), b.at(r, c).real(), tol)
          << what << " [" << r << "," << c << "] re";
      EXPECT_NEAR(a.at(r, c).imag(), b.at(r, c).imag(), tol)
          << what << " [" << r << "," << c << "] im";
    }
}

TEST(BoardFrequencyPlan, PlannedSParamsMatchDirectSolver) {
  const RotatorStack stack = prototype_fr4_design();
  for (const StackElement& e : stack.elements()) {
    for (double ghz : kFreqSamplesGhz) {
      const Frequency f = Frequency::ghz(ghz);
      const BoardFrequencyPlan plan = e.board.make_frequency_plan(f);
      for (double v : kBiasSamples) {
        for (bool y_axis : {false, true}) {
          const auto direct = e.board.axis_sparams(f, Voltage{v}, y_axis);
          const auto planned =
              e.board.axis_sparams(plan, Voltage{v}, y_axis);
          EXPECT_NEAR(std::abs(direct.s11 - planned.s11), 0.0, kTol);
          EXPECT_NEAR(std::abs(direct.s21 - planned.s21), 0.0, kTol);
          EXPECT_NEAR(std::abs(direct.s12 - planned.s12), 0.0, kTol);
          EXPECT_NEAR(std::abs(direct.s22 - planned.s22), 0.0, kTol);
        }
      }
    }
  }
}

TEST(BoardFrequencyPlan, CachedSParamsKeepPhysicalInvariants) {
  const RotatorStack stack = prototype_fr4_design();
  for (const StackElement& e : stack.elements()) {
    const Frequency f = Frequency::ghz(2.44);
    const BoardFrequencyPlan plan = e.board.make_frequency_plan(f);
    for (double v : kBiasSamples) {
      for (bool y_axis : {false, true}) {
        const auto s = e.board.axis_sparams(plan, Voltage{v}, y_axis);
        EXPECT_TRUE(s.is_passive())
            << e.board.name() << " @ " << v << " V";
        EXPECT_TRUE(s.is_reciprocal())
            << e.board.name() << " @ " << v << " V";
      }
    }
  }
}

TEST(StackPlans, PlannedTransmissionAndReflectionMatchDirect) {
  const RotatorStack designs[] = {
      prototype_fr4_design(), optimized_fr4_design(), reference_rogers_design(),
      naive_fr4_design()};
  for (const RotatorStack& stack : designs) {
    for (double ghz : kFreqSamplesGhz) {
      const Frequency f = Frequency::ghz(ghz);
      const auto t_plan = stack.plan_transmission(f);
      const auto r_plan = stack.plan_reflection(f);
      for (double vx : kBiasSamples) {
        for (double vy : {0.0, 13.5, 30.0}) {
          expect_jones_near(stack.transmission(f, Voltage{vx}, Voltage{vy}),
                            stack.transmission(t_plan, Voltage{vx},
                                               Voltage{vy}),
                            kTol, "transmission");
          expect_jones_near(stack.reflection(f, Voltage{vx}, Voltage{vy}),
                            stack.reflection(r_plan, Voltage{vx},
                                             Voltage{vy}),
                            kTol, "reflection");
        }
      }
    }
  }
}

/// A prototype surface bound to a fresh engine for its own stack.
Metasurface bound_prototype(ResponseCacheConfig config = {}) {
  Metasurface surface = Metasurface::llama_prototype();
  surface.share_response_engine(
      std::make_shared<SharedResponseEngine>(surface.stack(), config));
  return surface;
}

TEST(ResponseCacheTest, CachedResponseMatchesUncachedBothModes) {
  Metasurface uncached = Metasurface::llama_prototype();
  Metasurface cached = bound_prototype();
  ASSERT_NE(cached.response_engine(), nullptr);

  for (double ghz : kFreqSamplesGhz) {
    const Frequency f = Frequency::ghz(ghz);
    for (auto mode : {SurfaceMode::kTransmissive, SurfaceMode::kReflective}) {
      for (double vx : kBiasSamples) {
        for (double vy : kBiasSamples) {
          uncached.set_bias(Voltage{vx}, Voltage{vy});
          cached.set_bias(Voltage{vx}, Voltage{vy});
          // Query twice: first fills the lattice blocks, second must hit.
          const JonesMatrix reference = uncached.response(f, mode);
          expect_jones_near(reference, cached.response(f, mode), kTol,
                            "first (miss) query");
          expect_jones_near(reference, cached.response(f, mode), kTol,
                            "second (hit) query");
        }
      }
    }
  }
  const ResponseCacheStats stats = cached.response_engine()->cache_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
}

TEST(ResponseCacheTest, QuantizationBucketsShareOneEntry) {
  ResponseCacheConfig config;
  config.voltage_quantum_v = 0.5;
  Metasurface surface = bound_prototype(config);
  const Frequency f = Frequency::ghz(2.44);

  surface.set_bias(Voltage{10.1}, Voltage{10.1});
  const JonesMatrix a = surface.response(f, SurfaceMode::kTransmissive);
  surface.set_bias(Voltage{10.2}, Voltage{10.2});
  const JonesMatrix b = surface.response(f, SurfaceMode::kTransmissive);
  // Both biases snap to the 10.0 V lattice point, so the second query is a
  // pure hit and returns the identical matrix.
  expect_jones_near(a, b, 0.0, "same-bucket responses");
  const ResponseCacheStats stats = surface.response_engine()->cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);

  // And the shared value is the response at the quantized representative.
  Metasurface reference = Metasurface::llama_prototype();
  reference.set_bias(Voltage{10.0}, Voltage{10.0});
  expect_jones_near(reference.response(f, SurfaceMode::kTransmissive), a,
                    kTol, "quantized representative");
}

TEST(ResponseCacheTest, DisableRestoresDirectPath) {
  Metasurface surface = bound_prototype();
  const Frequency f = Frequency::ghz(2.44);
  surface.set_bias(Voltage{5.0004}, Voltage{5.0});
  const JonesMatrix snapped = surface.response(f, SurfaceMode::kTransmissive);
  surface.share_response_engine(nullptr);
  EXPECT_EQ(surface.response_engine(), nullptr);
  // Unbound, the bias is no longer snapped to the lattice: the direct
  // cascade at the exact bias, bit for bit.
  const JonesMatrix direct = surface.response(f, SurfaceMode::kTransmissive);
  const JonesMatrix golden = surface.stack().transmission(
      f, Voltage{5.0004}, Voltage{5.0});
  EXPECT_EQ(std::memcmp(&direct, &golden, sizeof direct), 0);
  EXPECT_NE(std::memcmp(&direct, &snapped, sizeof direct), 0);
}

TEST(ResponseCacheTest, ClearResetsStatistics) {
  // Regression: clearing dropped the entries but left the previous run's
  // hit/miss counters in place, so a fresh measurement epoch started with
  // stale statistics.
  Metasurface surface = bound_prototype();
  const Frequency f = Frequency::ghz(2.44);
  for (double v : {1.0, 2.0, 1.0}) {
    surface.set_bias(Voltage{v}, Voltage{v});
    (void)surface.response(f, SurfaceMode::kTransmissive);
  }
  SharedResponseEngine& engine = *surface.response_engine();
  EXPECT_GT(engine.cache_stats().hits, 0u);
  EXPECT_GT(engine.cache_stats().misses, 0u);
  EXPECT_GT(engine.cache_size(), 0u);

  engine.clear();
  EXPECT_EQ(engine.cache_size(), 0u);
  EXPECT_EQ(engine.cache_stats().hits, 0u);
  EXPECT_EQ(engine.cache_stats().misses, 0u);
}

TEST(ResponseCacheTest, SignedZeroFrequencyMapsToOneKey) {
  // Regression: the key was built from the frequency's raw bits, so -0.0 Hz
  // and 0.0 Hz (equal values, different bit patterns) produced distinct
  // entries and a value stored under one was invisible under the other.
  Metasurface surface = bound_prototype();
  surface.set_bias(Voltage{1.0}, Voltage{2.0});
  const JonesMatrix pos =
      surface.response(Frequency::hz(0.0), SurfaceMode::kTransmissive);
  const JonesMatrix neg =
      surface.response(Frequency::hz(-0.0), SurfaceMode::kTransmissive);
  EXPECT_EQ(std::memcmp(&pos, &neg, sizeof pos), 0);
  EXPECT_EQ(surface.response_engine()->plan_count(), 1u);
  EXPECT_EQ(surface.response_engine()->cache_stats().hits, 1u);
}

TEST(ResponseCacheTest, NanFrequencyIsRejected) {
  // A NaN frequency would build a plane no equal-comparing lookup can ever
  // find again (NaN != NaN), leaking an unreachable plane per query.
  Metasurface surface = bound_prototype();
  surface.set_bias(Voltage{1.0}, Voltage{1.0});
  EXPECT_THROW((void)surface.response(Frequency::hz(std::nan("")),
                                      SurfaceMode::kTransmissive),
               std::invalid_argument);
  EXPECT_EQ(surface.response_engine()->plan_count(), 0u);
}

TEST(ResponseGrid, MatchesPointwiseResponses) {
  Metasurface surface = Metasurface::llama_prototype();
  const Frequency f = Frequency::ghz(2.44);
  const std::vector<double> vxs{0.0, 7.5, 15.0, 30.0};
  const std::vector<double> vys{0.0, 10.0, 30.0};
  for (auto mode : {SurfaceMode::kTransmissive, SurfaceMode::kReflective}) {
    const JonesGrid grid = surface.response_grid(f, mode, vxs, vys);
    ASSERT_EQ(grid.size(), vys.size());
    for (std::size_t iy = 0; iy < vys.size(); ++iy) {
      ASSERT_EQ(grid[iy].size(), vxs.size());
      for (std::size_t ix = 0; ix < vxs.size(); ++ix) {
        surface.set_bias(Voltage{vxs[ix]}, Voltage{vys[iy]});
        expect_jones_near(surface.response(f, mode), grid[iy][ix], kTol,
                          "grid cell");
      }
    }
  }
}

TEST(ResponseGrid, BatchMatchesPointwiseResponses) {
  Metasurface surface = Metasurface::llama_prototype();
  const Frequency f = Frequency::ghz(2.44);
  const BiasList points{{Voltage{0.0}, Voltage{30.0}},
                        {Voltage{12.3}, Voltage{4.5}},
                        {Voltage{30.0}, Voltage{0.0}}};
  const auto batch =
      surface.response_batch(f, SurfaceMode::kTransmissive, points);
  ASSERT_EQ(batch.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    surface.set_bias(points[i].first, points[i].second);
    expect_jones_near(surface.response(f, SurfaceMode::kTransmissive),
                      batch[i], kTol, "batch point");
  }
}

TEST(ResponseGrid, ThreadCountDoesNotChangeBytes) {
  const Metasurface surface = Metasurface::llama_prototype();
  const Frequency f = Frequency::ghz(2.44);
  std::vector<double> axis;
  for (double v = 0.0; v <= 30.0; v += 2.0) axis.push_back(v);
  for (auto mode : {SurfaceMode::kTransmissive, SurfaceMode::kReflective}) {
    const JonesGrid serial = surface.response_grid(f, mode, axis, axis, 1);
    const JonesGrid parallel = surface.response_grid(f, mode, axis, axis, 5);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t iy = 0; iy < serial.size(); ++iy)
      for (std::size_t ix = 0; ix < serial[iy].size(); ++ix)
        for (int r = 0; r < 2; ++r)
          for (int c = 0; c < 2; ++c) {
            const auto a = serial[iy][ix].at(r, c);
            const auto b = parallel[iy][ix].at(r, c);
            // Byte-identical, not merely close.
            EXPECT_EQ(std::memcmp(&a, &b, sizeof(a)), 0);
          }
  }
}

}  // namespace
}  // namespace llama::metasurface
