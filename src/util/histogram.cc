#include "util/histogram.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

namespace dasched {

std::vector<double> DurationHistogram::paper_edges_msec() {
  return {5,    10,    50,     100,    500,    1000,
          5000, 10000, 20000, 30000, 40000, 50000};
}

DurationHistogram::DurationHistogram(std::vector<double> edges_msec)
    : edges_msec_(std::move(edges_msec)),
      counts_(edges_msec_.size() + 1, 0) {}

DurationHistogram DurationHistogram::from_parts(std::vector<double> edges_msec,
                                                std::vector<std::int64_t> counts,
                                                std::int64_t total_count,
                                                double total_msec) {
  const auto finite = [](double e) { return std::isfinite(e); };
  if (counts.size() != edges_msec.size() + 1 ||
      !std::ranges::all_of(edges_msec, finite) ||
      std::ranges::adjacent_find(edges_msec, std::greater_equal<>()) !=
          edges_msec.end()) {
    throw std::invalid_argument(
        "DurationHistogram::from_parts: edges must be finite and strictly "
        "ascending, with edges.size() + 1 counts");
  }
  DurationHistogram out(std::move(edges_msec));
  out.counts_ = std::move(counts);
  out.total_count_ = total_count;
  out.total_msec_ = total_msec;
  return out;
}

void DurationHistogram::add(SimTime duration) { add_msec(to_msec(duration)); }

void DurationHistogram::add_msec(double duration_msec) {
  const auto it =
      std::lower_bound(edges_msec_.begin(), edges_msec_.end(), duration_msec);
  counts_[static_cast<std::size_t>(it - edges_msec_.begin())] += 1;
  total_count_ += 1;
  total_msec_ += duration_msec;
}

std::vector<double> DurationHistogram::cdf() const {
  std::vector<double> out(counts_.size(), 0.0);
  if (total_count_ == 0) return out;
  std::int64_t running = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    running += counts_[i];
    out[i] = static_cast<double>(running) / static_cast<double>(total_count_);
  }
  return out;
}

void DurationHistogram::merge(const DurationHistogram& other) {
  // Only histograms with identical bucketing can be merged.
  if (other.edges_msec_ != edges_msec_) {
    // Re-bucket sample-free merge is impossible; fall back to re-adding the
    // other histogram's mass at bucket edges (approximation never needed in
    // practice because all our histograms share the paper edges).
    for (std::size_t i = 0; i < other.counts_.size(); ++i) {
      const double edge = i < other.edges_msec_.size()
                              ? other.edges_msec_[i]
                              : other.edges_msec_.back() * 2;
      for (std::int64_t k = 0; k < other.counts_[i]; ++k) add_msec(edge);
    }
    return;
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_count_ += other.total_count_;
  total_msec_ += other.total_msec_;
}

void DurationHistogram::clear() {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_count_ = 0;
  total_msec_ = 0.0;
}

void SummaryStats::add(double v) {
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  count_ += 1;
  sum_ += v;
}

}  // namespace dasched
