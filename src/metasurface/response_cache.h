// Memoization of Metasurface::response(): an LRU map from
// (frequency, quantized Vx, quantized Vy, mode) to the Jones matrix.
//
// Quantization contract: bias voltages are snapped to the nearest multiple
// of `voltage_quantum_v` BEFORE the response is evaluated, so a cache entry
// is a pure function of its key — the cached value never depends on which
// un-quantized bias happened to populate it first. Pick the quantum at or
// below the bias supply's programming resolution (1 mV for the paper's
// Tektronix 2230G) and the quantization is semantically lossless: no two
// distinguishable hardware states share a cache cell.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>

#include "src/common/units.h"
#include "src/em/jones.h"

namespace llama::metasurface {

struct ResponseCacheConfig {
  /// Bias quantization step [V]; responses are evaluated at multiples of it.
  double voltage_quantum_v = 1e-3;
  /// Maximum number of cached responses; least-recently-used entries are
  /// evicted beyond this. 2^16 entries ~= 5 MB, enough for a 255x255 grid.
  /// Unused by deploy::SharedResponseEngine, which reads only the quantum
  /// (its lattice planes never evict).
  std::size_t capacity = 1 << 16;
};

/// Snapshot of a response memo's counters, reported by ResponseCache and by
/// deploy::SharedResponseEngine (see its cache_stats() for what a hit and a
/// miss mean there). The live counters are relaxed atomics, so a snapshot
/// is safe to take from any thread at any time without tearing and without
/// serializing on a lock. Counters are monotone between clear() calls; a
/// snapshot racing concurrent lookups sees some valid intermediate state.
struct ResponseCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  /// Contended acquisitions of the shared engine's fill lock
  /// (deploy::CountedMutex tally; 0 for a privately owned cache). A rising
  /// rate under fan-out says concurrent lookups keep finding unfilled
  /// blocks.
  std::uint64_t lock_contention = 0;
};

class ResponseCache {
 public:
  /// Cache key; `mode` is the SurfaceMode cast to int (this header stays
  /// below metasurface.h in the include order).
  struct Key {
    std::uint64_t frequency_bits = 0;
    std::int64_t vx_quanta = 0;
    std::int64_t vy_quanta = 0;
    int mode = 0;

    friend bool operator==(const Key&, const Key&) = default;
  };

  explicit ResponseCache(ResponseCacheConfig config);

  [[nodiscard]] const ResponseCacheConfig& config() const { return config_; }

  /// Snaps a bias to the quantization lattice.
  [[nodiscard]] common::Voltage quantize(common::Voltage v) const;

  /// Builds the key for an already-quantized bias pair. -0.0 and 0.0
  /// frequencies map to one key (the raw bits differ but the values compare
  /// equal); a NaN frequency throws std::invalid_argument, as NaN bits would
  /// poison the map with an unmatchable key.
  [[nodiscard]] Key make_key(common::Frequency f, common::Voltage vx_q,
                             common::Voltage vy_q, int mode) const;

  /// Returns the cached response and refreshes its recency, or nullopt.
  [[nodiscard]] std::optional<em::JonesMatrix> find(const Key& key);

  /// Inserts (or refreshes) an entry, evicting the LRU tail when full.
  void insert(const Key& key, const em::JonesMatrix& value);

  /// Drops every entry and zeroes the hit/miss/eviction statistics — a
  /// cleared cache reports a fresh epoch, not the previous run's counters.
  void clear();
  [[nodiscard]] std::size_t size() const { return map_.size(); }
  /// Counter snapshot, safe without external locking (see
  /// ResponseCacheStats). The map/LRU accessors (find/insert/size) still
  /// require the owner's usual synchronization.
  [[nodiscard]] ResponseCacheStats stats() const {
    ResponseCacheStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  struct Entry {
    Key key;
    em::JonesMatrix value;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };

  ResponseCacheConfig config_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> map_;
};

}  // namespace llama::metasurface
