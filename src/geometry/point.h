// Fixed-dimension Euclidean points.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <ostream>

namespace parhc {

/// A point in D-dimensional Euclidean space (double coordinates).
///
/// Trivially default-constructible on purpose: the k-d tree arena allocates
/// large uninitialized Point/Box arrays, and a member initializer here would
/// reintroduce an O(n) zero-fill on that critical path. Value-initialization
/// (`Point<D> p{};`, `std::vector<Point<D>>(n)`) still zeroes as before.
template <int D>
struct Point {
  static constexpr int kDim = D;
  std::array<double, D> x;

  double& operator[](int i) { return x[i]; }
  double operator[](int i) const { return x[i]; }

  bool operator==(const Point& o) const { return x == o.x; }
  bool operator!=(const Point& o) const { return !(*this == o); }
};

/// Error text of every path that rejects a NaN or infinite coordinate.
inline constexpr char kNonFiniteCoordinates[] = "coordinates must be finite";

/// True iff the `n` coordinates at `v` are all finite. Every path that
/// creates points checks this and rejects the input with
/// kNonFiniteCoordinates otherwise: a NaN or infinite coordinate has no
/// distance order, so no MST over it exists.
inline bool AllFinite(const double* v, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (!std::isfinite(v[i])) return false;
  }
  return true;
}

template <int D>
bool AllFinite(const Point<D>* pts, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (!AllFinite(pts[i].x.data(), D)) return false;
  }
  return true;
}

/// Squared Euclidean distance between `a` and `b`.
template <int D>
double SquaredDistance(const Point<D>& a, const Point<D>& b) {
  double s = 0;
  for (int i = 0; i < D; ++i) {
    double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

/// Euclidean distance between `a` and `b`.
template <int D>
double Distance(const Point<D>& a, const Point<D>& b) {
  return std::sqrt(SquaredDistance(a, b));
}

template <int D>
std::ostream& operator<<(std::ostream& os, const Point<D>& p) {
  os << "(";
  for (int i = 0; i < D; ++i) os << (i ? ", " : "") << p[i];
  return os << ")";
}

}  // namespace parhc
