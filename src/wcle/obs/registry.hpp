// wcle::obs statistics registry: named counters, high-water gauges, and
// power-of-two histograms with a register-then-update discipline. All storage
// is sized at registration time, so the update path (add / set_max / observe)
// never allocates and is safe to call on the zero-allocation hot paths that
// the operator new counters in test_network and test_walk_engine hold.
// There are no wall clocks anywhere in obs: every statistic counts messages
// or transport rounds, which keeps it a deterministic function of the run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace wcle {

/// Snapshot of one histogram: log2 buckets. observe(v) lands in bucket 0 for
/// v == 0 and bucket bit_width(v) otherwise, so bucket i >= 1 covers
/// [2^(i-1), 2^i - 1] and the layout is fixed at 65 buckets regardless of
/// the value range.
struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  ///< 0 when count == 0
  std::uint64_t max = 0;
  std::vector<std::uint64_t> buckets;  ///< 65 log2 buckets
};

/// Named scalar statistic (counter or gauge) in a registry snapshot.
struct ScalarSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

class StatRegistry {
 public:
  /// Registers a monotone counter; returns its handle. Registration may
  /// allocate — do it before the hot path runs.
  std::size_t counter(std::string name);
  /// Registers a high-water gauge (set_max keeps the running maximum).
  std::size_t gauge(std::string name);
  /// Registers a log2 histogram (65 buckets, pre-sized at registration).
  std::size_t histogram(std::string name);

  // Update path: index-addressed, allocation-free, no bounds surprises —
  // handles come from the registration calls above.
  void add(std::size_t counter_handle, std::uint64_t delta) {
    counters_[counter_handle] += delta;
  }
  void set_max(std::size_t gauge_handle, std::uint64_t value) {
    if (value > gauges_[gauge_handle]) gauges_[gauge_handle] = value;
  }
  void observe(std::size_t histogram_handle, std::uint64_t value);

  std::uint64_t counter_value(std::size_t handle) const {
    return counters_[handle];
  }
  std::uint64_t gauge_value(std::size_t handle) const {
    return gauges_[handle];
  }

  /// Snapshots in registration order (deterministic for any content).
  std::vector<ScalarSnapshot> counters() const;
  std::vector<ScalarSnapshot> gauges() const;
  std::vector<HistogramSnapshot> histograms() const;

  /// Zeroes every value; registered names and handles survive.
  void reset();

 private:
  struct Histogram {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    std::vector<std::uint64_t> buckets;  ///< always 65 entries
  };
  std::vector<std::string> counter_names_;
  std::vector<std::uint64_t> counters_;
  std::vector<std::string> gauge_names_;
  std::vector<std::uint64_t> gauges_;
  std::vector<std::string> histogram_names_;
  std::vector<Histogram> histograms_;
};

/// JSON object over a registry snapshot: {"counters":{name:value,...},
/// "gauges":{...},"histograms":{name:{count,sum,min,max},...}} with entries
/// in registration order. Histogram buckets are folded to the four scalar
/// aggregates — the /metricz surface, not the Perfetto exporter.
std::string to_json(const StatRegistry& registry);

}  // namespace wcle
