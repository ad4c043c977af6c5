// Zipf(s) sampling over file-popularity ranks.
//
// The tenant mix (RunTenantMix in workload.h) skews file popularity with
// a Zipf distribution: rank r (0-based) is drawn with probability
// proportional to 1/(r+1)^s. s = 0 is uniform; s = 1.0 is the classic
// web/file-server skew where a handful of files absorb most of the
// traffic — the hot-spot shape the paper's group-commit argument (section
// 5.4 bulk updates to one subdirectory) assumes, generalized to a whole
// namespace.
//
// The CDF is precomputed at construction, so Sample() is one uniform draw
// plus a binary search — cheap enough to call per operation, and fully
// deterministic given the Rng.

#ifndef CEDAR_WORKLOAD_ZIPF_H_
#define CEDAR_WORKLOAD_ZIPF_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/util/check.h"
#include "src/util/random.h"

namespace cedar::workload {

class ZipfSampler {
 public:
  // `n` ranks (n >= 1), skew `s` >= 0 (0 = uniform).
  ZipfSampler(std::uint32_t n, double s) : cdf_(n == 0 ? 1 : n) {
    CEDAR_CHECK(s >= 0.0);
    double total = 0.0;
    for (std::size_t r = 0; r < cdf_.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) {
      c /= total;
    }
    cdf_.back() = 1.0;  // guard against accumulated rounding
  }

  std::uint32_t n() const { return static_cast<std::uint32_t>(cdf_.size()); }

  // Probability mass of rank r (for distribution tests).
  double Pmf(std::uint32_t r) const {
    return r == 0 ? cdf_[0] : cdf_[r] - cdf_[r - 1];
  }

  // Draws a 0-based rank; rank 0 is the most popular.
  std::uint32_t Sample(Rng& rng) const {
    const double u = rng.NextDouble();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::uint32_t>(
        std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace cedar::workload

#endif  // CEDAR_WORKLOAD_ZIPF_H_
