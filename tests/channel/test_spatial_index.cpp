// SpatialSurfaceIndex + build-time pruning contracts: the index is a pure
// deterministic function of the positions (nearest matches brute force,
// cells partition the id space), the pyramid descent keeps exactly the
// per-surface reference build's paths (reference_city_scene_spec below, the
// O(M) loop the descent replaced), and the pruning error bound is PROVABLE —
// for random cities, random passive responses and every fleet size, the
// dense and pruned received fields never differ by more than
// PropagationScene::pruned_field_bound, while a -infinity cutoff rebuilds
// the dense scene exactly.
#include "src/channel/spatial_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/channel/propagation_scene.h"
#include "src/common/rng.h"
#include "src/metasurface/metasurface.h"

namespace llama::channel {
namespace {

using common::Frequency;
using common::PowerDbm;

const Frequency kF0 = Frequency::ghz(2.44);
const PowerDbm kTx{14.0};

std::vector<Point2> random_positions(common::Rng& rng, std::size_t m,
                                     double extent_m) {
  std::vector<Point2> positions;
  positions.reserve(m);
  for (std::size_t i = 0; i < m; ++i)
    positions.push_back(
        Point2{rng.uniform(0.0, extent_m), rng.uniform(0.0, extent_m)});
  return positions;
}

/// The per-surface O(M) build: every other surface tested one by one. The
/// descent must keep exactly these paths, count exactly these pruned ones
/// and never report less pruned mass.
CitySceneBuild reference_city_scene_spec(const SpatialSurfaceIndex& index,
                                         const SurfaceLayout& layout,
                                         std::size_t serving,
                                         const Point2& device_pos,
                                         double tx_back_m) {
  constexpr double kMinLegM = 1e-3;
  CitySceneBuild out;
  out.serving = serving;
  out.serving_distance_m =
      std::max(distance_m(device_pos, layout.positions[serving]), kMinLegM);
  const double serving_len = tx_back_m + out.serving_distance_m;
  const double floor_ratio = std::pow(10.0, layout.prune.cutoff_db / 20.0);
  for (std::size_t s = 0; s < layout.positions.size(); ++s) {
    if (s == serving) continue;
    const double hop =
        std::max(distance_m(layout.positions[serving], layout.positions[s]),
                 kMinLegM);
    const double tail =
        std::max(distance_m(layout.positions[s], device_pos), kMinLegM);
    const double len = hop + tail;
    const double coupling = layout.coupling_at(hop);
    if (coupling * serving_len / len >= floor_ratio) {
      PlacedLeakageSpec placed;
      placed.path_length_m = len;
      placed.coupling = coupling;
      placed.cell = index.cell_of(s);
      placed.external_id = s;
      out.spec.placed.push_back(placed);
    } else {
      out.spec.pruned_coupling_over_length += coupling / len;
      ++out.spec.pruned_count;
    }
  }
  return out;
}

/// Descent vs reference for one device: placed entries memcmp-identical
/// field by field (the struct has padding), pruned count equal, pruned mass
/// between the reference sum (up to summation order) and 1.5x it.
void expect_descent_matches_reference(const SurfaceLayout& layout,
                                      const Point2& device,
                                      const std::string& label) {
  const SpatialSurfaceIndex index{layout.positions, layout.prune.cell_size_m};
  const std::size_t serving = index.nearest(device);
  const CitySceneBuild got =
      build_city_scene_spec(index, layout, serving, device, 0.5);
  const CitySceneBuild want =
      reference_city_scene_spec(index, layout, serving, device, 0.5);
  ASSERT_EQ(got.spec.placed.size(), want.spec.placed.size()) << label;
  for (std::size_t k = 0; k < got.spec.placed.size(); ++k) {
    const PlacedLeakageSpec& a = got.spec.placed[k];
    const PlacedLeakageSpec& b = want.spec.placed[k];
    EXPECT_EQ(std::memcmp(&a.path_length_m, &b.path_length_m,
                          sizeof(double)),
              0)
        << label << " entry " << k;
    EXPECT_EQ(std::memcmp(&a.coupling, &b.coupling, sizeof(double)), 0)
        << label << " entry " << k;
    EXPECT_EQ(a.cell, b.cell) << label << " entry " << k;
    EXPECT_EQ(a.external_id, b.external_id) << label << " entry " << k;
  }
  EXPECT_EQ(got.spec.pruned_count, want.spec.pruned_count) << label;
  EXPECT_EQ(got.serving_distance_m, want.serving_distance_m) << label;
  const double ref = want.spec.pruned_coupling_over_length;
  EXPECT_GE(got.spec.pruned_coupling_over_length, ref * (1.0 - 1e-12))
      << label;
  EXPECT_LE(got.spec.pruned_coupling_over_length, 1.5 * ref) << label;
}

TEST(SpatialSurfaceIndex, RejectsDegenerateInputs) {
  EXPECT_THROW(SpatialSurfaceIndex({}, 10.0), std::invalid_argument);
  const std::vector<Point2> one{{1.0, 2.0}};
  EXPECT_THROW(SpatialSurfaceIndex(one, 0.0), std::invalid_argument);
  EXPECT_THROW(SpatialSurfaceIndex(one, -3.0), std::invalid_argument);
}

TEST(SpatialSurfaceIndex, RejectsNonFiniteCellSize) {
  const std::vector<Point2> one{{1.0, 2.0}};
  EXPECT_THROW(
      SpatialSurfaceIndex(one, std::numeric_limits<double>::infinity()),
      std::invalid_argument);
  EXPECT_THROW(
      SpatialSurfaceIndex(one, std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
}

TEST(SpatialSurfaceIndex, RejectsNonFiniteAndOutOfRangePositions) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const Point2 bad : {Point2{nan, 0.0}, Point2{0.0, nan},
                           Point2{inf, 0.0}, Point2{0.0, -inf},
                           Point2{1e300, 0.0}}) {
    const std::vector<Point2> positions{{0.0, 0.0}, bad, {5.0, 5.0}};
    EXPECT_THROW(SpatialSurfaceIndex(positions, 10.0), std::invalid_argument)
        << bad.x_m << "," << bad.y_m;
  }
}

TEST(SpatialSurfaceIndex, NearestRejectsNonFiniteQueries) {
  const SpatialSurfaceIndex index{{{0.0, 0.0}, {30.0, 0.0}}, 10.0};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)index.nearest(Point2{nan, 0.0}), std::invalid_argument);
  EXPECT_THROW((void)index.nearest(Point2{0.0, -inf}), std::invalid_argument);
  // Finite queries however far away still resolve (clamped ring start).
  EXPECT_EQ(index.nearest(Point2{1e9, 0.0}), 1u);
  EXPECT_EQ(index.nearest(Point2{-1e9, -1e9}), 0u);
}

TEST(SpatialSurfaceIndex, CellsPartitionTheSurfaceIds) {
  common::Rng rng{0xCE11};
  const std::vector<Point2> positions = random_positions(rng, 97, 200.0);
  const SpatialSurfaceIndex index{positions, 24.0};

  ASSERT_EQ(index.surface_count(), positions.size());
  std::vector<int> seen(positions.size(), 0);
  for (std::int32_t c = 0; c < static_cast<std::int32_t>(index.cell_count());
       ++c) {
    const std::vector<std::size_t>& cell = index.surfaces_in_cell(c);
    ASSERT_FALSE(cell.empty()) << "occupied cells only";
    for (std::size_t k = 0; k < cell.size(); ++k) {
      if (k > 0) EXPECT_LT(cell[k - 1], cell[k]) << "ascending ids per cell";
      EXPECT_EQ(index.cell_of(cell[k]), c);
      ++seen[cell[k]];
    }
  }
  for (std::size_t s = 0; s < positions.size(); ++s)
    EXPECT_EQ(seen[s], 1) << "surface " << s << " in exactly one cell";
  EXPECT_THROW((void)index.cell_of(positions.size()), std::out_of_range);
  EXPECT_THROW((void)index.surfaces_in_cell(-1), std::out_of_range);
  EXPECT_THROW(
      (void)index.surfaces_in_cell(static_cast<std::int32_t>(
          index.cell_count())),
      std::out_of_range);
}

TEST(SpatialSurfaceIndex, NearestMatchesBruteForceIncludingFarQueries) {
  common::Rng rng{0x4EA6};
  const std::vector<Point2> positions = random_positions(rng, 64, 150.0);
  const SpatialSurfaceIndex index{positions, 17.0};

  for (int q = 0; q < 200; ++q) {
    // Every third query lands far outside the deployment's bounding box to
    // exercise the ring-search cap.
    const double extent = (q % 3 == 0) ? 600.0 : 150.0;
    const Point2 p{rng.uniform(-extent / 2.0, extent),
                   rng.uniform(-extent / 2.0, extent)};
    std::size_t best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < positions.size(); ++s) {
      const double d = distance_m(p, positions[s]);
      if (d < best_d) {
        best_d = d;
        best = s;
      }
    }
    EXPECT_EQ(index.nearest(p), best) << "query " << q;
  }
}

TEST(SpatialSurfaceIndex, NearestBreaksTiesTowardTheLowestId) {
  std::vector<Point2> positions;  // a lattice, then duplicates of it
  for (int i = 0; i < 12; ++i)
    for (int j = 0; j < 12; ++j)
      positions.push_back(Point2{12.0 * i, 12.0 * j});
  for (std::size_t k = 0; k < 40; ++k) positions.push_back(positions[k * 3]);
  for (const double cell : {24.0, 7.0}) {
    const SpatialSurfaceIndex index{positions, cell};
    for (int i = -1; i < 13; ++i) {
      for (int j = -1; j < 13; ++j) {
        // Lattice points, edge midpoints and cell centres: exact ties.
        for (const Point2 q : {Point2{12.0 * i, 12.0 * j},
                               Point2{12.0 * i + 6.0, 12.0 * j},
                               Point2{12.0 * i + 6.0, 12.0 * j + 6.0}}) {
          std::size_t best = 0;
          double best_d = std::numeric_limits<double>::infinity();
          for (std::size_t s = 0; s < positions.size(); ++s) {
            const double d = distance_m(q, positions[s]);
            if (d < best_d) {
              best_d = d;
              best = s;
            }
          }
          EXPECT_EQ(index.nearest(q), best)
              << "cell " << cell << " query " << q.x_m << "," << q.y_m;
        }
      }
    }
  }
}

TEST(SpatialSurfaceIndex, PureFunctionOfPositions) {
  common::Rng rng{0xDE7E};
  const std::vector<Point2> positions = random_positions(rng, 48, 120.0);
  const SpatialSurfaceIndex a{positions, 24.0};
  const SpatialSurfaceIndex b{positions, 24.0};
  ASSERT_EQ(a.cell_count(), b.cell_count());
  for (std::size_t s = 0; s < positions.size(); ++s)
    EXPECT_EQ(a.cell_of(s), b.cell_of(s));
}

TEST(BuildCitySceneSpec, AccountsForEverySurfaceOnce) {
  common::Rng rng{0xACC7};
  SurfaceLayout layout;
  layout.positions = random_positions(rng, 40, 100.0);
  layout.prune.cutoff_db = -30.0;
  const SpatialSurfaceIndex index{layout.positions,
                                  layout.prune.cell_size_m};
  const Point2 device{50.0, 50.0};
  const std::size_t serving = index.nearest(device);
  EXPECT_THROW(
      build_city_scene_spec(index, layout, layout.positions.size(), device,
                            0.5),
      std::out_of_range);

  const CitySceneBuild build =
      build_city_scene_spec(index, layout, serving, device, 0.5);
  EXPECT_EQ(build.serving, serving);
  EXPECT_EQ(build.spec.placed.size() + build.spec.pruned_count,
            layout.positions.size() - 1);
  for (const PlacedLeakageSpec& p : build.spec.placed) {
    EXPECT_NE(p.external_id, serving);
    EXPECT_EQ(p.cell, index.cell_of(p.external_id));
    EXPECT_GT(p.path_length_m, 0.0);
  }
  if (build.spec.pruned_count > 0)
    EXPECT_GT(build.spec.pruned_coupling_over_length, 0.0);

  // A deeper cutoff keeps a superset of the shallow cutoff's paths.
  SurfaceLayout deeper = layout;
  deeper.prune.cutoff_db = -60.0;
  const CitySceneBuild more =
      build_city_scene_spec(index, deeper, serving, device, 0.5);
  EXPECT_GE(more.spec.placed.size(), build.spec.placed.size());
  for (std::size_t k = 0, j = 0; k < build.spec.placed.size(); ++k) {
    while (j < more.spec.placed.size() &&
           more.spec.placed[j].external_id !=
               build.spec.placed[k].external_id)
      ++j;
    ASSERT_LT(j, more.spec.placed.size())
        << "kept path lost when deepening the cutoff";
  }
}

TEST(BuildCitySceneSpec, DescentMatchesPerSurfaceReferenceOnRandomLayouts) {
  common::Rng rng{0xDE5C};
  for (const std::size_t m : {1u, 2u, 7u, 64u, 300u, 1500u}) {
    for (int trial = 0; trial < 24; ++trial) {
      SurfaceLayout layout;
      const double extent = 30.0 * std::sqrt(static_cast<double>(m));
      layout.positions = random_positions(rng, m, extent);
      layout.coupling0 = rng.uniform(0.05, 0.3);
      layout.sidelobe_ref_m = rng.uniform(5.0, 15.0);
      layout.sidelobe_exponent = rng.uniform(1.0, 2.5);
      layout.prune.cutoff_db = rng.uniform(-60.0, -25.0);
      layout.prune.cell_size_m = rng.uniform(5.0, 40.0);
      // Devices mostly inside the deployment, some well outside it.
      const Point2 device{rng.uniform(-0.2 * extent, 1.2 * extent),
                          rng.uniform(-0.2 * extent, 1.2 * extent)};
      expect_descent_matches_reference(
          layout, device,
          "m=" + std::to_string(m) + " trial=" + std::to_string(trial));
    }
  }
}

TEST(BuildCitySceneSpec, DescentMatchesReferenceOnAdversarialLayouts) {
  SurfaceLayout grid;  // mounts exactly on cell corners and edges
  for (int i = 0; i < 20; ++i)
    for (int j = 0; j < 20; ++j)
      grid.positions.push_back(Point2{12.0 * i, 12.0 * j});
  grid.prune.cell_size_m = 24.0;
  grid.prune.cutoff_db = -45.0;
  expect_descent_matches_reference(grid, Point2{120.0, 120.0}, "on-corner");
  expect_descent_matches_reference(grid, Point2{24.0, 36.0},
                                   "device on its serving mount");
  expect_descent_matches_reference(grid, Point2{-2e4, 5e4},
                                   "device far outside the grid");

  SurfaceLayout dup = grid;  // duplicates, including of the serving mount
  for (int k = 0; k < 40; ++k)
    dup.positions.push_back(dup.positions[static_cast<std::size_t>(k * 9)]);
  expect_descent_matches_reference(dup, Point2{0.0, 0.0}, "duplicates");
  expect_descent_matches_reference(dup, Point2{108.0, 0.0},
                                   "duplicated serving mount");

  SurfaceLayout flung;  // mounts ~2^30 cells apart: a 32-level pyramid
  flung.positions = {Point2{-2e10, -2e10}, Point2{2e10, 2e10},
                     Point2{0.0, 0.0},     Point2{30.0, 0.0},
                     Point2{-2e10, 2e10},  Point2{31.0, 1.0}};
  flung.prune.cutoff_db = -30.0;
  expect_descent_matches_reference(flung, Point2{10.0, 0.0}, "far-flung");
  expect_descent_matches_reference(flung, Point2{2e10, 2e10},
                                   "far-flung, at a remote mount");

  SurfaceLayout stacked;  // every mount at one point
  stacked.positions.assign(16, Point2{3.0, 4.0});
  expect_descent_matches_reference(stacked, Point2{50.0, 4.0}, "stacked");

  SurfaceLayout single;
  single.positions = {Point2{7.0, -3.0}};
  const SpatialSurfaceIndex index{single.positions, 24.0};
  const CitySceneBuild one =
      build_city_scene_spec(index, single, 0, Point2{9.0, 1.0}, 0.5);
  EXPECT_TRUE(one.spec.placed.empty());
  EXPECT_EQ(one.spec.pruned_count, 0u);
  EXPECT_EQ(one.spec.pruned_coupling_over_length, 0.0);
}

TEST(BuildCitySceneSpec, InfiniteCutoffKeepsEverySurfaceWithZeroMass) {
  common::Rng rng{0x1F1F};
  for (const std::size_t m : {2u, 50u, 800u}) {
    SurfaceLayout layout;
    layout.positions = random_positions(rng, m, 400.0);
    layout.prune.cutoff_db = -std::numeric_limits<double>::infinity();
    const SpatialSurfaceIndex index{layout.positions,
                                    layout.prune.cell_size_m};
    for (int q = 0; q < 8; ++q) {
      const Point2 device{rng.uniform(-100.0, 500.0),
                          rng.uniform(-100.0, 500.0)};
      const CitySceneBuild build = build_city_scene_spec(
          index, layout, index.nearest(device), device, 0.5);
      EXPECT_EQ(build.spec.placed.size(), m - 1);
      EXPECT_EQ(build.spec.pruned_count, 0u);
      EXPECT_EQ(build.spec.pruned_coupling_over_length, 0.0);
    }
  }
}

// ---------------------------------------------------------------------------
// Randomized pruning error-bound property suite (the provable tentpole
// claim): random placements, random layout couplings, random passive
// responses; |sqrt(P_dense) - sqrt(P_pruned)| <= pruned_field_bound.
// ---------------------------------------------------------------------------

struct CityFixture {
  SurfaceLayout layout;
  std::size_t serving = 0;
  LinkGeometry geometry;
  Environment environment = Environment::absorber_chamber();
  Antenna tx = Antenna::iot_dipole(common::Angle::degrees(0.0));
  Antenna rx = Antenna::iot_dipole(common::Angle::degrees(0.0));
  PropagationScene scene;        ///< pruned
  PropagationScene dense_scene;  ///< cutoff = -infinity
  std::vector<const em::JonesMatrix*> view;
  std::vector<const em::JonesMatrix*> dense_view;

  CityFixture(std::size_t m, common::Rng& rng,
              const std::vector<em::JonesMatrix>& samples)
      : scene(PropagationScene::single_link(tx, rx, LinkGeometry{},
                                            environment)),
        dense_scene(scene) {
    layout.positions = random_positions(rng, m, 30.0 * std::sqrt(
                                                        static_cast<double>(
                                                            m)));
    layout.coupling0 = rng.uniform(0.05, 0.3);
    layout.sidelobe_ref_m = rng.uniform(5.0, 15.0);
    layout.sidelobe_exponent = rng.uniform(1.0, 2.5);
    // Shallow enough that most trials prune a real fraction of the city.
    layout.prune.cutoff_db = rng.uniform(-45.0, -25.0);

    const SpatialSurfaceIndex index{layout.positions,
                                    layout.prune.cell_size_m};
    const Point2 device{rng.uniform(0.0, 30.0), rng.uniform(0.0, 30.0)};
    serving = index.nearest(device);
    const CitySceneBuild pruned =
        build_city_scene_spec(index, layout, serving, device, 0.5);
    SurfaceLayout dense_layout = layout;
    dense_layout.prune.cutoff_db =
        -std::numeric_limits<double>::infinity();
    const CitySceneBuild dense =
        build_city_scene_spec(index, dense_layout, serving, device, 0.5);
    EXPECT_EQ(dense.spec.pruned_count, 0u);
    EXPECT_EQ(dense.spec.placed.size(), m - 1);

    geometry.mode = metasurface::SurfaceMode::kTransmissive;
    geometry.tx_surface_distance_m = 0.5;
    geometry.tx_rx_distance_m = 0.5 + pruned.serving_distance_m;
    rx = rx.oriented(common::Angle::degrees(rng.uniform(0.0, 180.0)));
    scene = PropagationScene::from_spec(tx, rx, geometry, environment,
                                        pruned.spec);
    dense_scene = PropagationScene::from_spec(tx, rx, geometry, environment,
                                              dense.spec);

    // One passive response per deployment surface, shared by both scenes
    // (scene ids differ; deployment ids agree).
    std::vector<const em::JonesMatrix*> by_deployment(m, nullptr);
    for (std::size_t s = 0; s < m; ++s)
      by_deployment[s] =
          &samples[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<int>(samples.size()) - 1))];
    view.push_back(by_deployment[serving]);
    for (const PlacedLeakageSpec& p : pruned.spec.placed)
      view.push_back(by_deployment[p.external_id]);
    dense_view.push_back(by_deployment[serving]);
    for (const PlacedLeakageSpec& p : dense.spec.placed)
      dense_view.push_back(by_deployment[p.external_id]);
  }
};

std::vector<em::JonesMatrix> passive_samples() {
  const metasurface::Metasurface surface =
      metasurface::Metasurface::llama_prototype();
  const std::vector<double> axis{0.0, 7.5, 15.0, 22.5, 30.0};
  std::vector<em::JonesMatrix> samples;
  const metasurface::JonesGrid grid = surface.response_grid(
      kF0, metasurface::SurfaceMode::kTransmissive, axis, axis);
  for (const std::vector<em::JonesMatrix>& row : grid)
    for (const em::JonesMatrix& r : row) samples.push_back(r);
  return samples;
}

TEST(PruningErrorBound, HoldsForRandomCitiesAtEveryFleetSize) {
  const std::vector<em::JonesMatrix> samples = passive_samples();
  common::Rng rng{0xB0B0};
  std::size_t pruned_trials = 0;
  for (const std::size_t m : {4u, 32u, 256u}) {
    for (int trial = 0; trial < 4; ++trial) {
      CityFixture fx{m, rng, samples};
      const double floor_mw =
          fx.environment.interference_floor().to_mw().value();
      const double dense_mw =
          fx.dense_scene
              .received_power(kTx, kF0,
                              PropagationScene::ResponseView{
                                  fx.dense_view.data(),
                                  fx.dense_view.size()})
              .to_mw()
              .value();
      const double pruned_mw =
          fx.scene
              .received_power(
                  kTx, kF0,
                  PropagationScene::ResponseView{fx.view.data(),
                                                 fx.view.size()})
              .to_mw()
              .value();
      const double delta =
          std::abs(std::sqrt(std::max(dense_mw - floor_mw, 0.0)) -
                   std::sqrt(std::max(pruned_mw - floor_mw, 0.0)));
      const double bound = fx.scene.pruned_field_bound(kTx, kF0);
      EXPECT_LE(delta, bound + 1e-15)
          << "m=" << m << " trial=" << trial
          << " pruned=" << fx.scene.spec().pruned_count;
      if (fx.scene.spec().pruned_count > 0) {
        EXPECT_GT(bound, 0.0);
        ++pruned_trials;
      }
    }
  }
  // The suite is vacuous if nothing was ever pruned.
  EXPECT_GE(pruned_trials, 6u);
}

TEST(PruningErrorBound, InfiniteCutoffReproducesTheDenseSum) {
  const std::vector<em::JonesMatrix> samples = passive_samples();
  common::Rng rng{0xDE46};
  SurfaceLayout layout;
  layout.positions = random_positions(rng, 32, 120.0);
  layout.coupling0 = 0.2;
  layout.prune.cutoff_db = -std::numeric_limits<double>::infinity();
  const SpatialSurfaceIndex index{layout.positions,
                                  layout.prune.cell_size_m};
  const Point2 device{60.0, 60.0};
  const std::size_t serving = index.nearest(device);
  const double tx_back_m = 0.5;
  const CitySceneBuild build =
      build_city_scene_spec(index, layout, serving, device, tx_back_m);
  ASSERT_EQ(build.spec.pruned_count, 0u);
  EXPECT_EQ(build.spec.pruned_coupling_over_length, 0.0);

  // Manually assembled dense spec with the documented amplitude model:
  // length = serving->s hop + s->device tail, coupling = layout rolloff
  // at the hop, placed ascending by deployment id.
  SceneSpec manual;
  for (std::size_t s = 0; s < layout.positions.size(); ++s) {
    if (s == serving) continue;
    PlacedLeakageSpec placed;
    const double hop =
        distance_m(layout.positions[serving], layout.positions[s]);
    placed.path_length_m = hop + distance_m(layout.positions[s], device);
    placed.coupling = layout.coupling_at(hop);
    placed.cell = index.cell_of(s);
    placed.external_id = s;
    manual.placed.push_back(placed);
  }
  ASSERT_EQ(manual.placed.size(), build.spec.placed.size());

  LinkGeometry g;
  g.mode = metasurface::SurfaceMode::kTransmissive;
  g.tx_surface_distance_m = tx_back_m;
  g.tx_rx_distance_m = tx_back_m + build.serving_distance_m;
  const Antenna tx = Antenna::iot_dipole(common::Angle::degrees(0.0));
  const Antenna rx = Antenna::iot_dipole(common::Angle::degrees(70.0));
  const Environment env = Environment::absorber_chamber();
  const PropagationScene from_build =
      PropagationScene::from_spec(tx, rx, g, env, build.spec);
  const PropagationScene from_manual =
      PropagationScene::from_spec(tx, rx, g, env, manual);

  std::vector<const em::JonesMatrix*> view;
  view.push_back(&samples[3]);
  for (const PlacedLeakageSpec& p : build.spec.placed)
    view.push_back(&samples[p.external_id % samples.size()]);
  const PropagationScene::ResponseView rv{view.data(), view.size()};
  EXPECT_NEAR(from_build.received_power(kTx, kF0, rv).value(),
              from_manual.received_power(kTx, kF0, rv).value(), 1e-12);
  EXPECT_EQ(from_build.pruned_field_bound(kTx, kF0), 0.0);
}

}  // namespace
}  // namespace llama::channel
