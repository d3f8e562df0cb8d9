// Measurement helpers shared by every workload: a monotonic clock, order
// statistics over timing samples, the process-memory probes, seed
// derivation and the machine descriptor.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (arbitrary epoch; differences only).
[[nodiscard]] std::uint64_t now_ns();

/// Seconds elapsed since `start_ns`.
[[nodiscard]] double seconds_since(std::uint64_t start_ns);

// --- order statistics ----------------------------------------------------

/// Median of `samples` (mean of the two middle values for an even count).
/// Throws std::invalid_argument on an empty sample.
[[nodiscard]] double median(std::vector<double> samples);

/// The p-th percentile, p in [0, 100], linearly interpolated between the
/// closest ranks (the "linear" method of numpy.percentile). Throws
/// std::invalid_argument on an empty sample or p outside [0, 100].
[[nodiscard]] double percentile(std::vector<double> samples, double p);

/// The highest reported percentile of a timing: the largest of
/// 50/90/99/99.9/99.99 that still has at least `min_beyond` samples above
/// it, with the sample count. pct is 0 (and value the maximum) when even
/// the median has fewer than `min_beyond` samples beyond it.
struct Tail {
  double pct = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail(const std::vector<double>& samples,
                        std::size_t min_beyond = 10);

/// Maps the p-th percentile (p in [0, 100]) over `served + refused`
/// requests, where refused requests count as infinitely late, to the
/// fraction of the served distribution that answers it: the result is in
/// [0, 1], or > 1 when the percentile falls among the refused requests
/// (the latency target is missed outright).
[[nodiscard]] double served_fraction(double p, std::uint64_t served,
                                     std::uint64_t refused);

// --- memory --------------------------------------------------------------

/// Resident set size and its high-water mark (VmRSS / VmHWM from
/// /proc/self/status) in bytes; 0 when the file cannot be read.
[[nodiscard]] std::uint64_t rss_bytes();
[[nodiscard]] std::uint64_t peak_rss_bytes();

/// RSS growth across a scope: construct before the allocation under test,
/// read delta_bytes() after. Negative when memory was returned.
class RssDelta {
 public:
  RssDelta() : start_(rss_bytes()) {}
  [[nodiscard]] double delta_bytes() const {
    return static_cast<double>(rss_bytes()) - static_cast<double>(start_);
  }

 private:
  std::uint64_t start_;
};

// --- seeds ---------------------------------------------------------------

/// splitmix64 finalizer: derives independent sub-seeds from the run seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag);

/// Stateless uniform draw in [lo, hi) keyed by (seed, a, b).
[[nodiscard]] double draw(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                          double lo, double hi);

// --- machine -------------------------------------------------------------

struct Machine {
  int nproc = 0;                 ///< CPUs in this process's affinity mask
  double effective_cores = 0.0;  ///< calibrated parallel speedup of a spin
  std::string build_type;
  std::string compiler;
};

/// CPUs the process may run on (sched_getaffinity), never
/// hardware_concurrency(): a container's quota and mask are what count.
[[nodiscard]] int cpu_count();

/// Runs one fixed spin on 1..max_threads threads at once and returns the
/// best k * t(1) / t(k): about 1 on a box whose vCPUs share one core.
[[nodiscard]] double effective_cores(int max_threads);

[[nodiscard]] Machine describe_machine();

}  // namespace perfbench
