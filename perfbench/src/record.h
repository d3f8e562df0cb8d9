// The benchmark's metric registry and run record.
//
// Every metric the benchmark can report is declared once in
// metric_registry() with its unit and direction; BENCHMARK.json at the
// repository root lists the same names (run.py checks the two agree on
// every run). A workload fills a Report; main() prints two lines:
//
//   {"detail": {...}}   machine descriptor, the workload's own named
//                       metrics (retune_round_ms, serve_p50_us, ...), each
//                       timing's tail percentile with its sample count, and
//                       the failure messages
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//                       the result: every end-to-end metric (untraced run)
//                       or every per-layer metric (traced run)
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/harness.h"

namespace perfbench {

enum class Better { kLower, kHigher };

struct MetricSpec {
  std::string name;
  std::string unit;
  Better better = Better::kLower;
  bool end_to_end = false;  ///< false: per-layer (traced run)
};

/// Every metric, end-to-end first; names are unique.
[[nodiscard]] const std::vector<MetricSpec>& metric_registry();

class Report {
 public:
  /// A registry metric's value. Throws std::invalid_argument for a name
  /// the registry does not declare.
  void set(const std::string& name, double value);
  /// A named figure of the detail line only.
  void note(const std::string& name, double value, const std::string& unit);
  /// Median and tail percentile of a timing, for the detail line.
  void timing(const std::string& name, const std::vector<double>& samples,
              const std::string& unit);

  /// Counts one attempted operation (or `n`).
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Counts `n` failed operations of those attempted, with the reason.
  void fail(std::uint64_t n, const std::string& why);
  /// An output check: one attempted operation, failed when !ok.
  bool check(bool ok, const std::string& what);

  [[nodiscard]] double value(const std::string& name) const;
  /// A detail-line figure recorded with note().
  [[nodiscard]] double noted(const std::string& name) const;
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return failed_checks_ == 0; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

  /// The result line. Throws std::logic_error when a metric of the mode
  /// is missing.
  [[nodiscard]] std::string result_line(bool traced) const;
  [[nodiscard]] std::string detail_line(const Machine& machine,
                                        const std::string& workload,
                                        std::uint64_t seed, double seconds,
                                        bool traced) const;

 private:
  struct Note {
    double value;
    std::string unit;
  };
  struct TimingNote {
    double median;
    Tail tail;
    std::string unit;
  };
  std::map<std::string, double> values_;
  std::map<std::string, Note> notes_;
  std::map<std::string, TimingNote> timings_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t failed_checks_ = 0;
  std::vector<std::string> failures_;
};

/// JSON number with every digit; non-finite values become null.
[[nodiscard]] std::string json_number(double v);
[[nodiscard]] std::string json_string(const std::string& s);

}  // namespace perfbench
