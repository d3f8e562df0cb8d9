#include "src/channel/spatial_index.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/common/contracts.h"

namespace llama::channel {

namespace {

/// Degenerate-geometry guard: a device on top of a mount still gets a
/// finite path length.
constexpr double kMinLegM = 1e-3;

/// Mounts must lie within this many cells of the origin: it keeps the
/// integer cell coordinates exact and a cell's offset from the grid corner
/// in 32 bits, so Morton codes fit 64 bits and the pyramid 33 levels.
constexpr double kMaxGridCoord = 1073741824.0;  // 2^30

/// A block is pruned whole only when its amplitude bound sits this far
/// (20 dB) below the cutoff. Blocks inside the margin open down to their
/// cells, whose surfaces run the per-surface test: that keeps every
/// keep/prune decision the per-surface one, and keeps the loose block terms
/// away from the paths just under the cutoff that dominate the pruned mass.
constexpr double kBlockMargin = 0.1;

/// ...and only when its mount box's diagonal is shorter than this multiple
/// of the serving mount's distance to the box, so a block term overstates
/// the surfaces under it by a bounded factor. Above 0.7, randomized layouts
/// with steep roll-offs loosen the pruned mass past 1.5x of the
/// per-surface sum; below it the descent visits more blocks per level.
constexpr double kOpeningRatio = 0.7;

/// log2(1 + i/128) rounded down and 2^(-i/128) rounded up, i in [0, 128).
struct OctaveTables {
  std::array<double, 128> log2_floor{};
  std::array<double, 128> exp2_neg_ceil{};

  OctaveTables() {
    const double inf = std::numeric_limits<double>::infinity();
    log2_floor[0] = 0.0;
    exp2_neg_ceil[0] = 1.0;
    for (std::size_t i = 1; i < 128; ++i) {
      const double step = static_cast<double>(i) / 128.0;
      log2_floor[i] = std::nextafter(std::log2(1.0 + step), -inf);
      exp2_neg_ceil[i] = std::nextafter(std::exp2(-step), inf);
    }
  }
};

/// An upper bound of SurfaceLayout::coupling_at for the descent's block
/// terms, without std::pow: at most a factor 2^((1.5 * exponent + 1) / 128)
/// (2.2% at exponent 2) above it. Past the reference distance coupling_at is
/// coupling0 * 2^-y with y = exponent * log2(hop / ref); the log2 is rounded
/// down to 1/128 of an octave (exponent bits plus a mantissa table) and
/// 2^-frac(y) rounded up to 1/128 of an octave (a table plus the exponent
/// bits of 2^-floor(y)).
class CouplingCeiling {
 public:
  explicit CouplingCeiling(const SurfaceLayout& layout)
      : coupling0_(layout.coupling0),
        ref_m_(layout.sidelobe_ref_m),
        inv_ref_(1.0 / layout.sidelobe_ref_m),
        exponent_(layout.sidelobe_exponent) {}

  double operator()(double hop_m) const {
    if (hop_m <= ref_m_) return coupling0_;
    // hop / ref = 1.m * 2^e > 1: e and the top 7 bits of m from the bits.
    const auto bits = std::bit_cast<std::uint64_t>(hop_m * inv_ref_);
    const double log2_floor =
        static_cast<double>(static_cast<std::int64_t>(bits >> 52) - 1023) +
        tables_.log2_floor[(bits >> 45) & 127];
    // Shaved by 2^-40 (relative, plus exponent * 2^-40) so the rounding of
    // the ratio (two roundings), the sum and the product can never raise y.
    const double y = exponent_ * log2_floor * (1.0 - 0x1p-40) -
                     exponent_ * 0x1p-40;
    if (!(y > 0.0)) return coupling0_;
    if (y >= 1022.0) return coupling0_ * 0x1p-1022;  // 2^-y's ceiling
    const auto whole = static_cast<std::int64_t>(y);  // floor: y > 0
    const double scale =
        std::bit_cast<double>(static_cast<std::uint64_t>(1023 - whole) << 52);
    return coupling0_ * scale *
           tables_.exp2_neg_ceil[static_cast<std::size_t>(
               (y - static_cast<double>(whole)) * 128.0)];
  }

 private:
  static const OctaveTables& tables() {
    static const OctaveTables t;
    return t;
  }

  const OctaveTables& tables_ = tables();
  double coupling0_;
  double ref_m_;
  double inv_ref_;
  double exponent_;
};

/// Interleaves the low 32 bits of u (even bits) and v (odd bits).
std::uint64_t morton(std::uint64_t u, std::uint64_t v) {
  const auto spread = [](std::uint64_t x) {
    x &= 0xFFFFFFFFULL;
    x = (x | (x << 16)) & 0x0000FFFF0000FFFFULL;
    x = (x | (x << 8)) & 0x00FF00FF00FF00FFULL;
    x = (x | (x << 4)) & 0x0F0F0F0F0F0F0F0FULL;
    x = (x | (x << 2)) & 0x3333333333333333ULL;
    x = (x | (x << 1)) & 0x5555555555555555ULL;
    return x;
  };
  return spread(u) | (spread(v) << 1);
}

/// Squared distance from `p` to a pyramid block's mount box (0 inside).
template <typename Box>
double box_distance2(const Point2& p, const Box& b) {
  const double dx = std::max({b.x0 - p.x_m, p.x_m - b.x1, 0.0});
  const double dy = std::max({b.y0 - p.y_m, p.y_m - b.y1, 0.0});
  return dx * dx + dy * dy;
}

}  // namespace

double distance_m(const Point2& a, const Point2& b) {
  return std::hypot(a.x_m - b.x_m, a.y_m - b.y_m);
}

double SurfaceLayout::coupling_at(double hop_m) const {
  const double hop = std::max(hop_m, kMinLegM);
  if (hop <= sidelobe_ref_m) return coupling0;
  return coupling0 * std::pow(sidelobe_ref_m / hop, sidelobe_exponent);
}

void SurfaceLayout::validate() const {
  if (std::isnan(prune.cutoff_db))
    throw std::invalid_argument{"SurfaceLayout: prune.cutoff_db is NaN"};
  if (!std::isfinite(coupling0) || coupling0 < 0.0)
    throw std::invalid_argument{
        "SurfaceLayout: coupling0 must be finite and >= 0"};
  if (!std::isfinite(sidelobe_ref_m) || !(sidelobe_ref_m > 0.0))
    throw std::invalid_argument{
        "SurfaceLayout: sidelobe_ref_m must be finite and > 0"};
  if (!std::isfinite(sidelobe_exponent) || sidelobe_exponent < 0.0)
    throw std::invalid_argument{
        "SurfaceLayout: sidelobe_exponent must be finite and >= 0"};
}

SpatialSurfaceIndex::SpatialSurfaceIndex(const std::vector<Point2>& positions,
                                         double cell_size_m)
    : cell_size_m_(cell_size_m) {
  if (positions.empty())
    throw std::invalid_argument{"SpatialSurfaceIndex: no surface positions"};
  if (!std::isfinite(cell_size_m) || !(cell_size_m > 0.0))
    throw std::invalid_argument{
        "SpatialSurfaceIndex: cell size must be finite and > 0"};
  if (positions.size() >= std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument{"SpatialSurfaceIndex: too many surfaces"};

  // Occupied grid cells sorted by (cy, cx): the cell ordinal — the frozen-
  // aggregation and shard-ownership granule — is a pure function of the
  // positions, independent of construction or thread interleaving.
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const Point2& p = positions[i];
    if (!std::isfinite(p.x_m) || !std::isfinite(p.y_m))
      throw std::invalid_argument{
          "SpatialSurfaceIndex: surface position is not finite"};
    const double gx = grid_coord(p.x_m);
    const double gy = grid_coord(p.y_m);
    if (std::abs(gx) > kMaxGridCoord || std::abs(gy) > kMaxGridCoord)
      throw std::invalid_argument{
          "SpatialSurfaceIndex: surface lies outside the grid's range"};
    const auto cx = static_cast<std::int64_t>(gx);
    const auto cy = static_cast<std::int64_t>(gy);
    const auto it = std::lower_bound(
        cells_.begin(), cells_.end(), std::pair{cy, cx},
        [](const Cell& c, const std::pair<std::int64_t, std::int64_t>& key) {
          return std::pair{c.cy, c.cx} < key;
        });
    if (it != cells_.end() && it->cy == cy && it->cx == cx) {
      it->surfaces.push_back(i);  // ids arrive ascending: stays sorted
    } else {
      Cell cell;
      cell.cx = cx;
      cell.cy = cy;
      cell.surfaces = {i};
      cells_.insert(it, std::move(cell));
    }
  }
  cell_of_.assign(positions.size(), -1);
  for (std::size_t c = 0; c < cells_.size(); ++c)
    for (std::size_t s : cells_[c].surfaces)
      cell_of_[s] = static_cast<std::int32_t>(c);
  LLAMA_ENSURES(std::none_of(cell_of_.begin(), cell_of_.end(),
                             [](std::int32_t c) { return c < 0; }),
                "every surface lands in exactly one occupied cell");

  build_pyramid(positions);
}

void SpatialSurfaceIndex::build_pyramid(const std::vector<Point2>& positions) {
  // Leaves: one block per occupied cell, in Morton order of the cell's
  // offset from the occupied grid's lower-left corner.
  const std::int64_t gy0 = cells_.front().cy;  // rows ascend
  std::int64_t gx0 = cells_.front().cx;
  for (const Cell& c : cells_) gx0 = std::min(gx0, c.cx);
  std::vector<std::pair<std::uint64_t, std::size_t>> order;
  order.reserve(cells_.size());
  for (std::size_t c = 0; c < cells_.size(); ++c)
    order.emplace_back(
        morton(static_cast<std::uint64_t>(cells_[c].cx - gx0),
               static_cast<std::uint64_t>(cells_[c].cy - gy0)),
        c);
  std::sort(order.begin(), order.end());

  std::vector<std::uint64_t> keys;
  keys.reserve(order.size());
  blocks_.reserve(2 * cells_.size());
  leaf_entries_.reserve(positions.size());
  for (const auto& [key, c] : order) {
    const std::vector<std::size_t>& surfaces = cells_[c].surfaces;
    Block b;
    b.x0 = b.x1 = positions[surfaces.front()].x_m;
    b.y0 = b.y1 = positions[surfaces.front()].y_m;
    b.first = static_cast<std::uint32_t>(leaf_entries_.size());
    for (std::size_t s : surfaces) {
      const Point2& p = positions[s];
      b.x0 = std::min(b.x0, p.x_m);
      b.x1 = std::max(b.x1, p.x_m);
      b.y0 = std::min(b.y0, p.y_m);
      b.y1 = std::max(b.y1, p.y_m);
      leaf_entries_.push_back(LeafEntry{p, static_cast<std::uint32_t>(s)});
    }
    b.last = static_cast<std::uint32_t>(leaf_entries_.size());
    b.count = b.last - b.first;
    blocks_.push_back(b);
    keys.push_back(key);
  }
  leaf_blocks_ = blocks_.size();

  // Each level groups the previous one's blocks by Morton code >> 2 (the
  // 2x2 parent block); codes are sorted, so every group is contiguous. The
  // codes reach 0 after at most 32 levels, leaving the single root.
  std::size_t level_begin = 0;
  while (blocks_.size() - level_begin > 1) {
    const std::size_t level_end = blocks_.size();
    std::vector<std::uint64_t> parent_keys;
    for (std::size_t i = level_begin; i < level_end;) {
      const std::uint64_t key = keys[i - level_begin] >> 2;
      Block parent = blocks_[i];
      parent.first = static_cast<std::uint32_t>(i);
      parent.count = 0;
      std::size_t j = i;
      for (; j < level_end && (keys[j - level_begin] >> 2) == key; ++j) {
        const Block& child = blocks_[j];
        parent.x0 = std::min(parent.x0, child.x0);
        parent.x1 = std::max(parent.x1, child.x1);
        parent.y0 = std::min(parent.y0, child.y0);
        parent.y1 = std::max(parent.y1, child.y1);
        parent.count += child.count;
      }
      parent.last = static_cast<std::uint32_t>(j);
      blocks_.push_back(parent);
      parent_keys.push_back(key);
      i = j;
    }
    keys = std::move(parent_keys);
    level_begin = level_end;
  }
  for (Block& b : blocks_)
    b.diag2 = (b.x1 - b.x0) * (b.x1 - b.x0) + (b.y1 - b.y0) * (b.y1 - b.y0);
  LLAMA_ENSURES(blocks_.back().count == positions.size(),
                "the pyramid root holds every surface");
}

double SpatialSurfaceIndex::grid_coord(double v_m) const {
  return std::floor(v_m / cell_size_m_);
}

std::int32_t SpatialSurfaceIndex::cell_of(std::size_t surface) const {
  if (surface >= cell_of_.size())
    throw std::out_of_range{"SpatialSurfaceIndex: surface id out of range"};
  return cell_of_[surface];
}

const std::vector<std::size_t>& SpatialSurfaceIndex::surfaces_in_cell(
    std::int32_t cell) const {
  if (cell < 0 || static_cast<std::size_t>(cell) >= cells_.size())
    throw std::out_of_range{"SpatialSurfaceIndex: cell ordinal out of range"};
  return cells_[static_cast<std::size_t>(cell)].surfaces;
}

std::size_t SpatialSurfaceIndex::nearest(const Point2& p) const {
  if (!std::isfinite(p.x_m) || !std::isfinite(p.y_m))
    throw std::invalid_argument{
        "SpatialSurfaceIndex: query position is not finite"};
  // Branch and bound down the pyramid, nearer children first. No mount is
  // nearer than its block's box, so a block whose box lies beyond the best
  // distance so far (with a rounding margin, so an equally near mount is
  // still scanned and ties resolve to the lowest id) cannot hold the answer.
  double best_d = std::numeric_limits<double>::infinity();
  std::size_t best = 0;
  std::array<std::uint32_t, 128> stack;
  std::size_t depth = 0;
  stack[depth++] = static_cast<std::uint32_t>(blocks_.size() - 1);
  while (depth > 0) {
    const std::uint32_t id = stack[--depth];
    const Block& b = blocks_[id];
    if (box_distance2(p, b) > best_d * best_d * (1.0 + 0x1p-40)) continue;
    if (id < leaf_blocks_) {
      for (std::uint32_t k = b.first; k < b.last; ++k) {
        const std::size_t s = leaf_entries_[k].id;
        const double d = distance_m(p, leaf_entries_[k].p);
        if (d < best_d || (d == best_d && s < best)) {
          best_d = d;
          best = s;
        }
      }
      continue;
    }
    // Push the children farthest first (an insertion sort of at most 4),
    // so the nearest is opened first.
    LLAMA_INVARIANT(b.last - b.first <= 4 && depth + 4 <= stack.size(),
                    "a block has at most 4 children; the stack fits them");
    const std::size_t base = depth;
    for (std::uint32_t c = b.first; c < b.last; ++c) {
      const double d2 = box_distance2(p, blocks_[c]);
      std::size_t k = depth++;
      for (; k > base && box_distance2(p, blocks_[stack[k - 1]]) < d2; --k)
        stack[k] = stack[k - 1];
      stack[k] = c;
    }
  }
  LLAMA_ENSURES(best_d < std::numeric_limits<double>::infinity(),
                "a non-empty index always yields a nearest surface");
  return best;
}

CitySceneBuild build_city_scene_spec(const SpatialSurfaceIndex& index,
                                     const SurfaceLayout& layout,
                                     std::size_t serving,
                                     const Point2& device_pos,
                                     double tx_back_m) {
  if (serving >= layout.positions.size())
    throw std::out_of_range{"build_city_scene_spec: serving id out of range"};
  LLAMA_EXPECTS(index.surface_count() == layout.positions.size(),
                "index and layout describe the same deployment");

  CitySceneBuild out;
  out.serving = serving;
  const Point2 home = layout.positions[serving];
  const Point2 device = device_pos;
  out.serving_distance_m = std::max(distance_m(device, home), kMinLegM);
  const double serving_len = tx_back_m + out.serving_distance_m;
  // Amplitude ratio floor implied by the dB cutoff; -infinity maps to 0,
  // which keeps every path (the dense scene).
  const double floor_ratio = std::pow(10.0, layout.prune.cutoff_db / 20.0);
  const double block_floor = floor_ratio * kBlockMargin;
  const CouplingCeiling ceiling{layout};
  // Locals, not spec fields, so the stores cannot alias the geometry the
  // loop reads.
  double pruned_mass = 0.0;
  std::size_t pruned_count = 0;
  std::vector<PlacedLeakageSpec>& placed = out.spec.placed;

  // Prunes block `id` whole when it is small next to its distance from the
  // serving mount and its bound sits below the margin; false when it must
  // be opened. The opening test runs first: it needs no square root and no
  // coupling, and its strict < keeps the serving surface's own blocks
  // (hmin = 0) open.
  const auto prune_whole = [&](std::uint32_t id) {
    const SpatialSurfaceIndex::Block& b = index.blocks_[id];
    const double h2 = box_distance2(home, b);
    if (!(b.diag2 < kOpeningRatio * kOpeningRatio * h2)) return false;
    const double hop = std::max(std::sqrt(h2), kMinLegM);
    const double len =
        hop + std::max(std::sqrt(box_distance2(device, b)), kMinLegM);
    const double unit = ceiling(hop) / len;
    // unit * serving_len bounds every path in the block.
    if (!(unit * serving_len < block_floor)) return false;
    pruned_mass += static_cast<double>(b.count) * unit;
    pruned_count += b.count;
    return true;
  };

  // Depth-first descent: the stack holds blocks to open. Opening a block
  // tests all its children and pushes the ones that must open in turn: it
  // holds at most 3 per level plus 1 (33 levels at most).
  std::array<std::uint32_t, 128> stack;
  std::size_t depth = 0;
  const auto root = static_cast<std::uint32_t>(index.blocks_.size() - 1);
  if (!prune_whole(root)) stack[depth++] = root;
  while (depth > 0) {
    const std::uint32_t id = stack[--depth];
    const SpatialSurfaceIndex::Block& b = index.blocks_[id];
    if (id >= index.leaf_blocks_) {
      LLAMA_INVARIANT(depth + (b.last - b.first) <= stack.size(),
                      "the descent stack fits the pyramid's depth");
      for (std::uint32_t c = b.last; c-- > b.first;)
        if (!prune_whole(c)) stack[depth++] = c;
      continue;
    }
    for (std::uint32_t k = b.first; k < b.last; ++k) {
      const SpatialSurfaceIndex::LeafEntry& e = index.leaf_entries_[k];
      const std::size_t s = e.id;
      if (s == serving) continue;
      const double s_hop = std::max(distance_m(home, e.p), kMinLegM);
      const double s_len = s_hop + std::max(distance_m(e.p, device), kMinLegM);
      const double s_coupling = layout.coupling_at(s_hop);
      // Frequency-independent relative amplitude bound: both this path and
      // the serving path carry the same lambda/(4 pi) Friis prefactor, the
      // surface response norm is <= 1 (passive) and the endpoint pattern
      // factor is <= 1, so coupling * serving_len / len bounds the ratio at
      // every carrier.
      if (s_coupling * serving_len / s_len >= floor_ratio) {
        PlacedLeakageSpec entry;
        entry.path_length_m = s_len;
        entry.coupling = s_coupling;
        entry.cell = index.cell_of_[s];
        entry.external_id = s;
        placed.push_back(entry);
      } else {
        pruned_mass += s_coupling / s_len;
        ++pruned_count;
      }
    }
  }
  std::sort(placed.begin(), placed.end(),
            [](const PlacedLeakageSpec& a, const PlacedLeakageSpec& b) {
              return a.external_id < b.external_id;
            });
  out.spec.pruned_coupling_over_length = pruned_mass;
  out.spec.pruned_count = pruned_count;
  return out;
}

}  // namespace llama::channel
