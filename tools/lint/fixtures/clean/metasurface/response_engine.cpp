// Clean fixture: the response engine's stats counters are pure monotonic
// counters whose readers only ever snapshot, so each memory_order_relaxed
// site carries an inline waiver. No path is exempt; zero findings.
#include <atomic>
#include <cstdint>

namespace llama::metasurface {

struct FixtureStats {
  std::atomic<std::uint64_t> hits{0};

  void record_hit() {
    // llama-lint: allow(relaxed-atomic) monotone stats tally, not ordering
    hits.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t snapshot() const {
    // llama-lint: allow(relaxed-atomic) racy snapshot of a stats counter
    return hits.load(std::memory_order_relaxed);
  }
};

}  // namespace llama::metasurface
