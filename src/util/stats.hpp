// Streaming statistics helpers used by the feature extractor, the traffic
// generators, and the experiment harnesses.
#pragma once

#include <cstdint>
#include <map>

namespace ddoshield::util {

/// Welford online mean/variance accumulator; numerically stable and O(1)
/// per sample, which matters when features are recomputed every window.
class OnlineStats {
 public:
  void add(double x);
  void reset();

  /// Folds another accumulator in (Chan's parallel Welford combination).
  /// NOT order-free in floating point: merging partials A then B differs
  /// in the low bits from B then A, so deterministic pipelines must merge
  /// in a fixed order (DESIGN.md §15).
  void merge_from(const OnlineStats& other);

  std::uint64_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  /// Population variance (divides by n). Zero when fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double sum() const { return count_ == 0 ? 0.0 : mean_ * static_cast<double>(count_); }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Counts discrete keys and exposes Shannon entropy over the empirical
/// distribution — the paper's destination-port entropy feature.
class FrequencyCounter {
 public:
  void add(std::uint64_t key, std::uint64_t weight = 1);
  void reset();

  std::uint64_t total() const { return total_; }
  std::size_t distinct() const { return counts_.size(); }
  std::uint64_t count_of(std::uint64_t key) const;

  /// Shannon entropy in bits of the key distribution; 0 for <=1 distinct key.
  double entropy() const;

  /// Largest single-key share of the total, in [0,1]; 0 when empty.
  double max_share() const;

  const std::map<std::uint64_t, std::uint64_t>& counts() const { return counts_; }

 private:
  std::map<std::uint64_t, std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace ddoshield::util
