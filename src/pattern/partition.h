// PSF — Pattern Specification Framework
// Workload partitioning helpers shared by the three pattern runtimes.
//
// The framework partitions at three levels (paper Sections II-A, III-C/D):
// across processes, across devices within a process, and across shared-
// memory tiles within a device. BlockPartition is the even split used for
// processes; WeightedPartition realizes the adaptive, profiling-based
// device split N_i = N * S_i / sum(S).
#pragma once

#include <cstddef>
#include <numeric>
#include <vector>

#include "support/error.h"

namespace psf::pattern {

/// Even block partition of [0, total) into `parts` contiguous ranges; the
/// first (total % parts) ranges get one extra element.
class BlockPartition {
 public:
  BlockPartition(std::size_t total, int parts)
      : total_(total), parts_(parts) {
    PSF_CHECK_MSG(parts > 0, "partition needs at least one part");
    base_ = total_ / static_cast<std::size_t>(parts_);
    extra_ = total_ % static_cast<std::size_t>(parts_);
    fat_ = (base_ + 1) * extra_;
  }

  [[nodiscard]] std::size_t total() const noexcept { return total_; }
  [[nodiscard]] int parts() const noexcept { return parts_; }

  [[nodiscard]] std::size_t begin(int part) const {
    PSF_CHECK(part >= 0 && part <= parts_);
    const std::size_t p = static_cast<std::size_t>(part);
    return p * base_ + (p < extra_ ? p : extra_);
  }

  [[nodiscard]] std::size_t end(int part) const { return begin(part + 1); }

  [[nodiscard]] std::size_t size(int part) const {
    return end(part) - begin(part);
  }

  /// Which part owns element `index`.
  [[nodiscard]] int owner(std::size_t index) const {
    PSF_CHECK_MSG(index < total_, "owner() of out-of-range index " << index);
    if (index < fat_) {
      return static_cast<int>(index / (base_ + 1));
    }
    PSF_CHECK_MSG(base_ > 0, "more parts than elements leaves empty parts");
    return static_cast<int>(extra_ + (index - fat_) / base_);
  }

 private:
  std::size_t total_;
  int parts_;
  std::size_t base_ = 0;   ///< elements in every part
  std::size_t extra_ = 0;  ///< parts with one more element (the first ones)
  std::size_t fat_ = 0;    ///< elements held by those `extra_` parts
};

/// Contiguous partition of [0, total) proportional to non-negative weights
/// (at least one positive). Used for the adaptive device split: weight i is
/// the profiled speed of device i.
class WeightedPartition {
 public:
  WeightedPartition(std::size_t total, const std::vector<double>& weights) {
    PSF_CHECK_MSG(!weights.empty(), "weighted partition needs weights");
    const double sum = std::accumulate(weights.begin(), weights.end(), 0.0);
    PSF_CHECK_MSG(sum > 0.0, "weights must sum to a positive value");
    bounds_.resize(weights.size() + 1, 0);
    double cumulative = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      PSF_CHECK_MSG(weights[i] >= 0.0, "negative weight");
      cumulative += weights[i];
      bounds_[i + 1] = static_cast<std::size_t>(
          static_cast<double>(total) * (cumulative / sum) + 0.5);
      if (bounds_[i + 1] < bounds_[i]) bounds_[i + 1] = bounds_[i];
      if (bounds_[i + 1] > total) bounds_[i + 1] = total;
    }
    bounds_.back() = total;
    // Rounding may leave bounds non-monotonic at the tail; enforce.
    for (std::size_t i = 1; i < bounds_.size(); ++i) {
      if (bounds_[i] < bounds_[i - 1]) bounds_[i] = bounds_[i - 1];
    }
  }

  [[nodiscard]] int parts() const noexcept {
    return static_cast<int>(bounds_.size()) - 1;
  }
  [[nodiscard]] std::size_t begin(int part) const {
    PSF_CHECK(part >= 0 && part < parts());
    return bounds_[static_cast<std::size_t>(part)];
  }
  [[nodiscard]] std::size_t end(int part) const {
    PSF_CHECK(part >= 0 && part < parts());
    return bounds_[static_cast<std::size_t>(part) + 1];
  }
  [[nodiscard]] std::size_t size(int part) const {
    return end(part) - begin(part);
  }

  /// Which part owns element `index`: the first part whose end exceeds it
  /// (empty parts own nothing). A linear scan: the parts are a node's
  /// devices, a handful.
  [[nodiscard]] int owner(std::size_t index) const {
    PSF_CHECK(index < bounds_.back());
    std::size_t part = 0;
    while (index >= bounds_[part + 1]) ++part;
    return static_cast<int>(part);
  }

 private:
  std::vector<std::size_t> bounds_;
};

}  // namespace psf::pattern
