#include "stats/time_series.h"

#include <algorithm>
#include <cmath>

#include "base/check.h"

namespace eqimpact {
namespace stats {

std::vector<double> CesaroAverages(const std::vector<double>& series) {
  std::vector<double> out(series.size());
  double sum = 0.0;
  for (size_t k = 0; k < series.size(); ++k) {
    sum += series[k];
    out[k] = sum / static_cast<double>(k + 1);
  }
  return out;
}

bool HasSettled(const std::vector<double>& series, size_t window,
                double tolerance) {
  EQIMPACT_CHECK_GE(window, 2u);
  if (series.size() < window) return false;
  double lo = series.back();
  double hi = series.back();
  for (size_t i = series.size() - window; i < series.size(); ++i) {
    lo = std::min(lo, series[i]);
    hi = std::max(hi, series[i]);
  }
  return hi - lo <= tolerance;
}

double CoincidenceGap(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  return *hi - *lo;
}

double Quantile(std::vector<double> values, double p) {
  EQIMPACT_CHECK(!values.empty());
  EQIMPACT_CHECK(p >= 0.0 && p <= 1.0);
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values[0];
  double position = p * static_cast<double>(values.size() - 1);
  size_t lower = static_cast<size_t>(position);
  size_t upper = std::min(lower + 1, values.size() - 1);
  double fraction = position - static_cast<double>(lower);
  return values[lower] + fraction * (values[upper] - values[lower]);
}

namespace {

/// Below this many values, std::sort alone is as fast.
constexpr size_t kBucketSortMin = 64;

/// Sorts non-negative values into the sequence std::sort gives. The
/// values go to n buckets by floor((x - min) * n / (max - min)), capped
/// at n - 1; each of those operations rounds monotonically, so a smaller
/// value never lands in a later bucket, and sorting each bucket's values
/// with std::sort completes the order. Equal values are equal bits up to
/// the sign of zero, which no sum over the sorted values sees. Small
/// samples, and ranges that are not finite and positive (an infinity, a
/// constant sample, a scale that overflows), take std::sort directly.
void SortNonNegative(std::vector<double>* values) {
  const size_t n = values->size();
  if (n < kBucketSortMin) {
    std::sort(values->begin(), values->end());
    return;
  }
  const auto [min_it, max_it] =
      std::minmax_element(values->begin(), values->end());
  const double min = *min_it;
  const double range = *max_it - min;
  const double scale = static_cast<double>(n) / range;
  if (!(range > 0.0 && std::isfinite(range) && std::isfinite(scale))) {
    std::sort(values->begin(), values->end());
    return;
  }
  const double last = static_cast<double>(n - 1);
  const auto bucket = [min, scale, last](double x) {
    return static_cast<size_t>(std::min((x - min) * scale, last));
  };
  // ends[b + 1] counts bucket b, then ends[b] becomes its first slot,
  // and after the scatter its end.
  std::vector<size_t> ends(n + 1, 0);
  for (double x : *values) ++ends[bucket(x) + 1];
  for (size_t b = 1; b < n; ++b) ends[b] += ends[b - 1];
  std::vector<double> sorted(n);
  for (double x : *values) sorted[ends[bucket(x)]++] = x;
  for (size_t b = 0, begin = 0; b < n; begin = ends[b++]) {
    if (ends[b] - begin > 1) {
      std::sort(sorted.begin() + begin, sorted.begin() + ends[b]);
    }
  }
  values->swap(sorted);
}

}  // namespace

double GiniCoefficient(std::vector<double> values) {
  EQIMPACT_CHECK(!values.empty());
  // Before sorting: a NaN breaks the sort's ordering and a bucket range.
  for (double value : values) EQIMPACT_CHECK_GE(value, 0.0);
  SortNonNegative(&values);
  double total = 0.0;
  double weighted = 0.0;
  const double n = static_cast<double>(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    total += values[i];
    weighted += (static_cast<double>(i) + 1.0) * values[i];
  }
  if (total <= 0.0) return 0.0;
  return (2.0 * weighted) / (n * total) - (n + 1.0) / n;
}

double KsStatistic(std::vector<double> a, std::vector<double> b) {
  EQIMPACT_CHECK(!a.empty());
  EQIMPACT_CHECK(!b.empty());
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  double na = static_cast<double>(a.size());
  double nb = static_cast<double>(b.size());
  size_t ia = 0, ib = 0;
  double best = 0.0;
  while (ia < a.size() && ib < b.size()) {
    double x = std::min(a[ia], b[ib]);
    while (ia < a.size() && a[ia] <= x) ++ia;
    while (ib < b.size() && b[ib] <= x) ++ib;
    best = std::max(best, std::fabs(static_cast<double>(ia) / na -
                                    static_cast<double>(ib) / nb));
  }
  return best;
}

}  // namespace stats
}  // namespace eqimpact
