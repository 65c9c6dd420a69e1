#include "core/modes.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "core/distribution.h"

namespace eio::stats {

namespace {

/// Transform samples for the chosen axis.
std::vector<double> transformed(std::span<const double> samples, bool log_axis) {
  std::vector<double> t;
  t.reserve(samples.size());
  for (double s : samples) {
    t.push_back(log_axis ? std::log10(std::max(s, 1e-300)) : s);
  }
  return t;
}

double back_transform(double v, bool log_axis) {
  return log_axis ? std::pow(10.0, v) : v;
}

}  // namespace

KdeResult kernel_density(std::span<const double> samples,
                         const ModeFinderOptions& options) {
  EIO_CHECK_MSG(!samples.empty(), "KDE of empty sample");
  // A non-positive scale gives a non-positive h, and the windowed
  // evaluation below then walks an inverted [first, last) range.
  EIO_CHECK_MSG(options.bandwidth_scale > 0.0,
                "KDE bandwidth scale must be positive");
  std::vector<double> t = transformed(samples, options.log_axis);
  Moments m = compute_moments(t);

  // Silverman's rule of thumb; fall back to a small width for
  // degenerate (constant) samples.
  auto n = static_cast<double>(t.size());
  double sigma = m.stddev;
  double h = sigma > 0.0
                 ? 1.06 * sigma * std::pow(n, -0.2) * options.bandwidth_scale
                 : 1e-3;

  double lo = *std::min_element(t.begin(), t.end()) - 3.0 * h;
  double hi = *std::max_element(t.begin(), t.end()) + 3.0 * h;
  if (hi <= lo) hi = lo + 1e-6;

  KdeResult result;
  result.bandwidth = h;
  result.grid.resize(options.grid_points);
  result.density.assign(options.grid_points, 0.0);
  double step = (hi - lo) / static_cast<double>(options.grid_points - 1);
  double norm = 1.0 / (n * h * std::sqrt(2.0 * 3.14159265358979323846));

  // Sort for windowed evaluation: only samples within 5h contribute.
  std::sort(t.begin(), t.end());
  for (std::size_t g = 0; g < options.grid_points; ++g) {
    double x = lo + step * static_cast<double>(g);
    auto first = std::lower_bound(t.begin(), t.end(), x - 5.0 * h);
    auto last = std::upper_bound(t.begin(), t.end(), x + 5.0 * h);
    double acc = 0.0;
    for (auto it = first; it != last; ++it) {
      double z = (x - *it) / h;
      acc += std::exp(-0.5 * z * z);
    }
    result.grid[g] = back_transform(x, options.log_axis);
    result.density[g] = acc * norm;
  }
  return result;
}

std::vector<Mode> find_modes(std::span<const double> samples,
                             const ModeFinderOptions& options) {
  KdeResult kde = kernel_density(samples, options);
  const auto& d = kde.density;
  const std::size_t n = d.size();

  struct Peak {
    std::size_t index;
    double height;
    double prominence;
  };
  std::vector<Peak> peaks;
  for (std::size_t i = 1; i + 1 < n; ++i) {
    if (d[i] > d[i - 1] && d[i] >= d[i + 1]) {
      peaks.push_back({i, d[i], 0.0});
    }
  }
  if (peaks.empty()) {
    // Monotone density: the max is at an edge.
    std::size_t arg = static_cast<std::size_t>(
        std::max_element(d.begin(), d.end()) - d.begin());
    peaks.push_back({arg, d[arg], d[arg]});
  }

  // Prominence: height above the higher of the two saddle minima
  // between this peak and the nearest higher terrain on each side.
  for (Peak& p : peaks) {
    double left_min = p.height, right_min = p.height;
    for (std::size_t i = p.index; i-- > 0;) {
      if (d[i] > p.height) break;
      left_min = std::min(left_min, d[i]);
      if (i == 0) break;
    }
    for (std::size_t i = p.index + 1; i < n; ++i) {
      if (d[i] > p.height) break;
      right_min = std::min(right_min, d[i]);
    }
    p.prominence = p.height - std::max(left_min, right_min);
    // The global maximum has no higher terrain: full height.
    if (p.height >= *std::max_element(d.begin(), d.end())) {
      p.prominence = p.height;
    }
  }

  double tallest = 0.0;
  for (const Peak& p : peaks) tallest = std::max(tallest, p.height);
  std::vector<Peak> kept;
  for (const Peak& p : peaks) {
    if (p.prominence >= options.min_prominence * tallest) kept.push_back(p);
  }
  if (kept.empty() && !peaks.empty()) {
    kept.push_back(*std::max_element(
        peaks.begin(), peaks.end(),
        [](const Peak& a, const Peak& b) { return a.height < b.height; }));
  }

  // Assign mass: each sample goes to the nearest kept peak (in
  // transformed space, but nearest-in-grid is equivalent).
  std::vector<Mode> modes;
  modes.reserve(kept.size());
  for (const Peak& p : kept) {
    modes.push_back({kde.grid[p.index], p.height, p.prominence, 0.0});
  }
  for (double s : samples) {
    std::size_t best = 0;
    double best_dist = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < modes.size(); ++i) {
      double a = options.log_axis ? std::log10(std::max(s, 1e-300))
                                  : s;
      double b = options.log_axis ? std::log10(std::max(modes[i].location, 1e-300))
                                  : modes[i].location;
      double dist = std::abs(a - b);
      if (dist < best_dist) {
        best_dist = dist;
        best = i;
      }
    }
    modes[best].mass += 1.0;
  }
  for (Mode& m : modes) m.mass /= static_cast<double>(samples.size());

  // Drop negligible-mass modes, then sort strongest first.
  std::erase_if(modes, [&](const Mode& m) { return m.mass < options.min_mass; });
  std::sort(modes.begin(), modes.end(),
            [](const Mode& a, const Mode& b) { return a.density > b.density; });
  return modes;
}

std::vector<int> harmonic_signature(const std::vector<Mode>& modes,
                                    double tolerance) {
  std::vector<int> matched;
  if (modes.empty()) return matched;
  // Reference T: the slowest (largest-location) prominent mode.
  double t_ref = 0.0;
  for (const Mode& m : modes) t_ref = std::max(t_ref, m.location);
  if (t_ref <= 0.0) return matched;
  for (int harmonic : {1, 2, 3, 4, 8}) {
    double target = t_ref / static_cast<double>(harmonic);
    for (const Mode& m : modes) {
      if (std::abs(m.location - target) <= tolerance * target) {
        matched.push_back(harmonic);
        break;
      }
    }
  }
  return matched;
}

}  // namespace eio::stats
