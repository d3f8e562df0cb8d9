// Spatial index + build-time leakage pruning for city-scale scenes.
//
// A city deployment mounts M surfaces at known 2-D positions; a device at
// position p is served by its nearest surface and sees every other surface
// only through an off-lobe leakage path. Dense scenes sum all M paths per
// device. This module adds the sub-linear alternative:
//
//  - SpatialSurfaceIndex: a deterministic uniform grid over mount
//    positions. Cell ordinals, per-cell surface order and nearest() results
//    are pure functions of the positions (never of thread count or
//    insertion order), which is what lets cell -> shard assignment preserve
//    the byte-identical-for-any-thread-count invariant. Over the occupied
//    cells sits a block pyramid (a quadtree in Morton order): every block
//    stores its surface count and the bounding box of its mounts.
//
//  - build_city_scene_spec(): emits a per-device SceneSpec whose placed
//    leakage entries keep only the paths whose worst-case amplitude,
//    relative to the serving path, clears a configurable cutoff (default
//    -40 dB). The relative amplitude bound coupling * d_serve / len is
//    frequency independent (both amplitudes carry the same lambda/4pi), so
//    one build-time decision is valid at every carrier. The build is one
//    descent of the pyramid, so it costs O(kept + log M) blocks per device
//    rather than a test of every surface.
//
// Error bound (the provable part): each pruned path's received-field
// amplitude is at most coupling/len * friis_amplitude(f, 1 m) * |tx state|
// * sqrt(rx boresight gain), because a passive surface response has
// ||R|| <= 1 (em::JonesMatrix::norm_bound) and the endpoint pattern factor
// is <= 1. By the triangle inequality the dense and pruned fields differ
// by at most the SUM of those bounds. The descent accumulates that sum
// (SceneSpec::pruned_coupling_over_length) from two kinds of term:
//
//  - an exact term coupling_at(hop) / (hop + tail) for each surface the
//    descent tests one by one (the cells near the cutoff), and
//  - one upper-bound term count * c(hmin) / (hmin + tmin) per block pruned
//    whole, where hmin / tmin are the serving mount's / the device's
//    distances to the block's mount box and c >= coupling_at is a
//    pow-free ceiling of it (within 2^((1.5 * exponent + 1) / 128)). Every
//    surface in the block has hop >= hmin and tail >= tmin, and coupling_at
//    is non-increasing in the hop (sidelobe_exponent >= 0), so the term
//    dominates the block's exact terms.
//
// A block is pruned whole only when that bound sits 20 dB below the cutoff
// (so no keep/prune decision differs from the per-surface test) and its
// box is small next to hmin (so the term stays close to the exact sum:
// within 1.5x of the per-surface sum on the randomized layouts of the test
// suite, ~1.1x fleet-wide on the benchmark city). The sum is therefore
// still an upper bound of the pruned mass (looser than the per-surface
// sum, never smaller), so with P in mW (interference floor subtracted)
// |sqrt(P_dense) - sqrt(P_pruned)| <= PropagationScene::pruned_field_bound().
// The randomized property suite in tests/channel/test_spatial_index.cpp
// checks exactly this inequality, and checks the descent's kept set, pruned
// count and pruned mass against the per-surface reference build.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/channel/propagation_scene.h"

namespace llama::channel {

/// A mount/device position on the deployment plane [m].
struct Point2 {
  double x_m = 0.0;
  double y_m = 0.0;
};

[[nodiscard]] double distance_m(const Point2& a, const Point2& b);

/// Build-time pruning policy.
struct PruneConfig {
  /// Keep a leakage path when its amplitude bound relative to the serving
  /// path is at least this many dB (20*log10 of the amplitude ratio).
  /// -infinity keeps everything (the dense scene).
  double cutoff_db = -40.0;
  /// Spatial-index cell edge [m]. Also the frozen-aggregation and
  /// shard-ownership granule.
  double cell_size_m = 24.0;
};

/// A city deployment's surface placement + leakage model.
struct SurfaceLayout {
  /// Mount position per deployment surface (index = deployment surface id).
  std::vector<Point2> positions;
  /// Leakage coupling of an unserved surface at the sidelobe reference
  /// distance (its main lobe is steered at its own devices; another
  /// device's AP illuminates it off-lobe).
  double coupling0 = 0.15;
  /// Distance [m] beyond which the off-lobe coupling rolls off:
  /// coupling(r) = coupling0 * min(1, (sidelobe_ref_m / r)^exponent).
  double sidelobe_ref_m = 10.0;
  /// Rolloff exponent of the off-lobe coupling beyond the reference
  /// distance. 2.0 (the default) models a street deployment: side-lobe
  /// angular rolloff compounds with urban clutter/blockage (measured
  /// non-LoS path-loss exponents of 3-4 vs free space), giving leakage
  /// amplitudes ~1/r^3 overall — which makes the total pruned energy over
  /// a 2-D city converge instead of diverging logarithmically.
  double sidelobe_exponent = 2.0;
  PruneConfig prune;

  [[nodiscard]] bool empty() const { return positions.empty(); }
  /// coupling(r) above; the amplitude model build_city_scene_spec applies.
  [[nodiscard]] double coupling_at(double hop_m) const;
  /// Throws std::invalid_argument for a leakage model the pruning bound
  /// cannot rely on: a NaN cutoff_db (+-infinity stay legal), a non-finite
  /// or negative coupling0, a non-finite or non-positive sidelobe_ref_m, or
  /// a non-finite or negative sidelobe_exponent (which would make
  /// coupling_at grow with distance). Positions and the cell size are
  /// checked by SpatialSurfaceIndex.
  void validate() const;
};

struct CitySceneBuild;
class SpatialSurfaceIndex;

/// Scene spec for a device at `device_pos` served by surface `serving`:
/// one placed leakage entry per other surface whose relative amplitude
/// bound coupling * d_serve / len clears layout.prune.cutoff_db, ascending
/// by deployment id; the rest are pruned into
/// spec.pruned_coupling_over_length (the error-bound accumulator, see the
/// file comment) and counted exactly in spec.pruned_count. `tx_back_m` is
/// the AP-to-mount distance added to the serving distance (the AP sits just
/// behind its transmissive surface). One descent of the index's block
/// pyramid: blocks far below the cutoff are pruned whole, the surfaces of
/// the cells near it are tested one by one. `index` must be built from
/// layout.positions (the descent reads the mounts it stores). Pruning
/// depends only on the layout — never on thread count.
[[nodiscard]] CitySceneBuild build_city_scene_spec(
    const SpatialSurfaceIndex& index, const SurfaceLayout& layout,
    std::size_t serving, const Point2& device_pos, double tx_back_m);

/// Deterministic uniform grid over surface mount positions. Cells are
/// dense ordinals [0, cell_count) ordered by (cell row, cell column);
/// surfaces within a cell are sorted ascending by id.
class SpatialSurfaceIndex {
 public:
  SpatialSurfaceIndex() = default;
  /// Throws std::invalid_argument on empty positions, a non-finite or
  /// non-positive cell size, a non-finite position, or a mount more than
  /// 2^30 cells from the origin.
  SpatialSurfaceIndex(const std::vector<Point2>& positions,
                      double cell_size_m);

  [[nodiscard]] std::size_t surface_count() const { return cell_of_.size(); }
  [[nodiscard]] std::size_t cell_count() const { return cells_.size(); }
  [[nodiscard]] double cell_size_m() const { return cell_size_m_; }

  /// Cell ordinal of a deployment surface.
  [[nodiscard]] std::int32_t cell_of(std::size_t surface) const;
  /// Surfaces in one cell, ascending by id.
  [[nodiscard]] const std::vector<std::size_t>& surfaces_in_cell(
      std::int32_t cell) const;

  /// Nearest surface to `p` (ties broken toward the lowest id). A branch
  /// and bound search of the block pyramid, nearer blocks first, so it
  /// scans only the cells around the answer: O(local density + log M), not
  /// O(M), for queries inside or far outside the deployment. Throws
  /// std::invalid_argument for a non-finite `p`.
  [[nodiscard]] std::size_t nearest(const Point2& p) const;

 private:
  friend CitySceneBuild build_city_scene_spec(const SpatialSurfaceIndex&,
                                              const SurfaceLayout&,
                                              std::size_t, const Point2&,
                                              double);

  struct Cell {
    std::int64_t cx = 0;
    std::int64_t cy = 0;
    std::vector<std::size_t> surfaces;
  };

  /// One pyramid block: the surfaces under it and their mounts' bounding
  /// box. A level-0 block (a leaf) is one occupied cell and [first, last)
  /// indexes leaf_entries_; above it [first, last) indexes its child blocks
  /// in blocks_.
  struct Block {
    double x0 = 0.0;
    double y0 = 0.0;
    double x1 = 0.0;
    double y1 = 0.0;
    double diag2 = 0.0;  ///< squared diagonal of the box
    std::uint32_t count = 0;
    std::uint32_t first = 0;
    std::uint32_t last = 0;
  };

  /// Grid coordinate of a position component, floor(v / cell_size).
  [[nodiscard]] double grid_coord(double v_m) const;
  void build_pyramid(const std::vector<Point2>& positions);

  /// One mount under a leaf block.
  struct LeafEntry {
    Point2 p;
    std::uint32_t id = 0;
  };

  double cell_size_m_ = 0.0;
  std::vector<Cell> cells_;           ///< sorted by (cy, cx)
  std::vector<std::int32_t> cell_of_; ///< per surface
  /// Pyramid levels, leaves (one per occupied cell, Morton order) first and
  /// the root last; each level's blocks are in Morton order, so a parent's
  /// children are contiguous.
  std::vector<Block> blocks_;
  std::size_t leaf_blocks_ = 0;
  /// Mounts per leaf block, ascending by id within each cell: the cells'
  /// positions stored contiguously, for the descent and nearest().
  std::vector<LeafEntry> leaf_entries_;
};

/// Result of building one device's pruned scene description.
struct CitySceneBuild {
  SceneSpec spec;              ///< placed entries only (+ pruning tally)
  std::size_t serving = 0;     ///< deployment id of the serving surface
  double serving_distance_m = 0.0;
};

}  // namespace llama::channel
