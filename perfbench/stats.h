// perfbench statistics: nearest-rank percentiles with their sample counts,
// in-memory spans with self time, and failure accounting.  Header-only and
// free of ksim dependencies so stats_test.cpp checks it in isolation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// A percentile as reported: the value, how many samples it was taken over,
/// and how many samples lie strictly beyond its rank.
struct Percentile {
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;
};

/// Nearest-rank percentile: the smallest sample such that at least p of all
/// samples are <= it (p in (0, 1]).  Throws on an empty sample set.
inline Percentile percentile(std::vector<double> v, double p) {
  if (v.empty()) throw std::invalid_argument("percentile of no samples");
  if (!(p > 0.0 && p <= 1.0)) throw std::invalid_argument("percentile outside (0, 1]");
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  return {v[rank - 1], n, n - rank};
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5).value; }

/// The median across groups of each group's median, interpolated between the
/// two middle groups when their count is even.  A workload that cycles
/// through a few configurations has a latency mix with gaps between the
/// configurations; a pooled median sits in such a gap and flips between two
/// configurations' tails from run to run, while each group's median is
/// stable.  Empty groups are skipped; throws when all are empty.
inline double median_of_medians(const std::vector<std::vector<double>>& groups) {
  std::vector<double> m;
  for (const std::vector<double>& g : groups)
    if (!g.empty()) m.push_back(median(g));
  if (m.empty()) throw std::invalid_argument("median of no groups");
  std::sort(m.begin(), m.end());
  const size_t n = m.size();
  return n % 2 == 1 ? m[n / 2] : (m[n / 2 - 1] + m[n / 2]) / 2;
}

/// One timed call: [start_ms, end_ms] on the benchmark's clock, the index of
/// the span that caused it (-1 for a root) and the operation it belongs to.
struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int64_t parent = -1;
  uint64_t op = 0;
};

/// Spans stay in memory while the benchmark runs; write them out at the end.
class SpanLog {
public:
  /// Records a finished span; returns its index for use as a parent.
  int64_t add(std::string name, double start_ms, double end_ms, int64_t parent,
              uint64_t op) {
    spans_.push_back({std::move(name), start_ms, end_ms, parent, op});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Durations of every span called `name`.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.name == name) out.push_back(s.end_ms - s.start_ms);
    return out;
  }

  /// Self time of every span: its duration minus the part of its interval
  /// that its children cover (children overlapping each other count once).
  std::vector<double> self_times() const {
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const Span& s : spans_)
      if (s.parent >= 0) kids[static_cast<size_t>(s.parent)].push_back({s.start_ms, s.end_ms});
    std::vector<double> out(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      double covered = 0.0;
      double cur_lo = 0.0, cur_hi = 0.0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ms);
        hi = std::min(hi, s.end_ms);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
        } else {
          if (open) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
          open = true;
        }
      }
      if (open) covered += cur_hi - cur_lo;
      out[i] = (s.end_ms - s.start_ms) - covered;
    }
    return out;
  }

  /// Self times of the spans called `name`.
  std::vector<double> self_times(const std::string& name) const {
    const std::vector<double> all = self_times();
    std::vector<double> out;
    for (size_t i = 0; i < spans_.size(); ++i)
      if (spans_[i].name == name) out.push_back(all[i]);
    return out;
  }

private:
  std::vector<Span> spans_;
};

/// Attempted/failed operation counts.  Every operation is counted once as
/// attempted; a failed check, an exception or a daemon rejection counts it
/// as failed.  The first failure's description is kept for the log.
class Tally {
public:
  void ok() { ++attempted_; }
  void fail(const std::string& why) {
    ++attempted_;
    ++failed_;
    if (first_failure_.empty()) first_failure_ = why;
  }
  void merge(const Tally& other) {
    attempted_ += other.attempted_;
    failed_ += other.failed_;
    if (first_failure_.empty()) first_failure_ = other.first_failure_;
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t completed() const { return attempted_ - failed_; }
  const std::string& first_failure() const { return first_failure_; }

private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::string first_failure_;
};

} // namespace perfbench
