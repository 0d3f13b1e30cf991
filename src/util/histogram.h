// Bucketed histograms and CDFs.
//
// `DurationHistogram` reproduces the bucketing the paper uses for its idle
// period CDFs (Fig. 12): samples are durations in msec, buckets are the
// paper's {5, 10, 50, 100, 500, 1000, 5000, 10000, 20000, 30000, 40000,
// 50000+} msec edges by default, and `cdf()` returns, per bucket edge, the
// fraction of samples at or below the edge.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/units.h"

namespace dasched {

class DurationHistogram {
 public:
  /// Bucket edges used by Fig. 12 of the paper, in msec.
  static std::vector<double> paper_edges_msec();

  /// Builds a histogram with the given ascending bucket edges (msec).
  /// Samples above the last edge land in a final overflow bucket.
  explicit DurationHistogram(std::vector<double> edges_msec = paper_edges_msec());

  void add(SimTime duration);
  void add_msec(double duration_msec);

  /// Number of recorded samples.
  [[nodiscard]] std::int64_t count() const { return total_count_; }

  /// Sum of all recorded durations, in msec.
  [[nodiscard]] double total_msec() const { return total_msec_; }

  [[nodiscard]] const std::vector<double>& edges_msec() const { return edges_msec_; }

  /// Per-edge cumulative fraction of samples <= edge, in [0,1].  The final
  /// returned entry corresponds to the overflow bucket and is always 1 when
  /// any sample exists.
  [[nodiscard]] std::vector<double> cdf() const;

  /// Raw per-bucket counts (edges.size() + 1 entries; last is overflow).
  [[nodiscard]] const std::vector<std::int64_t>& counts() const { return counts_; }

  void merge(const DurationHistogram& other);

  void clear();

  /// Reconstructs a histogram from its accessor parts — the inverse of
  /// (edges_msec, counts, count, total_msec), used by the serve result
  /// codec to rebuild client-side histograms bit-identical to the server's.
  /// Throws std::invalid_argument when counts.size() != edges.size() + 1,
  /// or when the edges are not finite and strictly ascending.
  [[nodiscard]] static DurationHistogram from_parts(
      std::vector<double> edges_msec, std::vector<std::int64_t> counts,
      std::int64_t total_count, double total_msec);

 private:
  std::vector<double> edges_msec_;
  std::vector<std::int64_t> counts_;
  std::int64_t total_count_ = 0;
  double total_msec_ = 0.0;
};

/// Streaming summary statistics (count/mean/min/max).
class SummaryStats {
 public:
  void add(double v);

  [[nodiscard]] std::int64_t count() const { return count_; }
  [[nodiscard]] double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace dasched
