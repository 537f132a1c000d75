// k-fold cross-validation used by the analyzer's stability filter (paper
// §3.3.2): signatures whose duration distribution cannot support a
// meaningful 99th-percentile threshold are discarded for performance-outlier
// detection.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace saad::stats {

/// Fold `f` of a deterministic split of indices [0, n) into k contiguous
/// blocks: [begin, end). Contiguous (time-ordered) blocks on purpose: for
/// i.i.d. samples a trained quantile generalizes to any held-out subset, so
/// only *nonstationary* duration distributions (drift, load regimes,
/// periodic spikes) fail the check — and those are exactly the flows the
/// paper's filter must discard, because no single threshold is meaningful
/// for them. k < 1 counts as one fold.
struct FoldRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};
FoldRange kfold_range(std::size_t n, std::size_t k, std::size_t f);

struct KFoldStability {
  /// Mean held-out fraction of samples above the per-fold trained threshold.
  double mean_heldout_outlier_rate = 0.0;
  /// True when the signature supports the nominal quantile: held-out rate is
  /// no more than `unstable_factor` times the nominal tail mass.
  bool stable = true;
};

/// For each fold: train a `quantile` threshold on the other k-1 folds, count
/// the fraction of held-out samples strictly above it; average over folds.
/// With fewer than `k` samples (or k < 2) the check degenerates and the
/// signature is reported unstable (too little data to threshold). Each
/// threshold is taken by selection (percentile_select) over `scratch`,
/// which keeps its capacity for the next call.
KFoldStability kfold_quantile_stability(std::span<const double> samples,
                                        std::size_t k, double quantile,
                                        double unstable_factor,
                                        std::vector<double>& scratch);

}  // namespace saad::stats
