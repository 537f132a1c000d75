#include "stats/kfold.h"

#include <algorithm>

#include "stats/descriptive.h"

namespace saad::stats {

FoldRange kfold_range(std::size_t n, std::size_t k, std::size_t f) {
  const std::size_t num_folds = std::max<std::size_t>(k, 1);
  return {f * n / num_folds, (f + 1) * n / num_folds};
}

KFoldStability kfold_quantile_stability(std::span<const double> samples,
                                        std::size_t k, double quantile,
                                        double unstable_factor,
                                        std::vector<double>& scratch) {
  KFoldStability out;
  if (k < 2 || samples.size() < k) {
    out.stable = false;
    out.mean_heldout_outlier_rate = 1.0;
    return out;
  }
  double rate_sum = 0.0;
  for (std::size_t f = 0; f < k; ++f) {
    const auto [begin, end] = kfold_range(samples.size(), k, f);
    // The other folds are everything before and after this one.
    scratch.assign(samples.begin(), samples.begin() + begin);
    scratch.insert(scratch.end(), samples.begin() + end, samples.end());
    const double threshold = percentile_select(scratch, quantile);
    std::size_t above = 0;
    for (std::size_t i = begin; i < end; ++i)
      if (samples[i] > threshold) ++above;
    rate_sum += static_cast<double>(above) / static_cast<double>(end - begin);
  }
  out.mean_heldout_outlier_rate = rate_sum / static_cast<double>(k);
  const double nominal = 1.0 - quantile;
  out.stable = out.mean_heldout_outlier_rate <= unstable_factor * nominal;
  return out;
}

}  // namespace saad::stats
