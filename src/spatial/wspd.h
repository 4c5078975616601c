// Well-separated pair decomposition (paper Section 2.3, Algorithm 1).
//
// The traversal is an instantiation of the shared dual-tree engine
// (spatial/traverse.h), which follows Algorithm 1 exactly: both children of
// every internal node are processed in parallel, and the pruned dual descent
// splits the node with the larger bounding-sphere diameter until the pair
// satisfies the separation criterion.
//
// Two separation criteria are provided:
//  * GeometricSeparation — the standard criterion with separation constant
//    s (s = 2 throughout the paper; Appendix C uses s = sqrt(8/rho)).
//  * HdbscanSeparation — the paper's new criterion (Section 3.2.2):
//    geometrically-separated OR mutually-unreachable, which terminates the
//    recursion earlier and yields asymptotically fewer pairs. Requires core
//    distances annotated on the tree.
#pragma once

#include <cstdint>
#include <vector>

#include "parallel/primitives.h"
#include "spatial/traverse.h"
#include "util/stats.h"

namespace parhc {

/// Standard well-separation with separation constant `s` (Section 2.3).
template <int D>
struct GeometricSeparation {
  double s = 2.0;
  bool operator()(const KdTree<D>& t, uint32_t a, uint32_t b) const {
    return WellSeparated(t.NodeBox(a), t.NodeBox(b), s);
  }
};

/// HDBSCAN* well-separation (Section 3.2.2): the disjunction of
/// geometric separation   d(A,B) >= max(Adiam, Bdiam)
/// and mutual unreachability
///   max(d(A,B), cdmin(A), cdmin(B)) >= max(Adiam, Bdiam, cdmax(A), cdmax(B)).
template <int D>
struct HdbscanSeparation {
  bool operator()(const KdTree<D>& t, uint32_t a, uint32_t b) const {
    double d = SphereDistance(t.NodeBox(a), t.NodeBox(b));
    double max_diam = std::max(t.Diameter(a), t.Diameter(b));
    if (d >= max_diam) return true;  // geometrically separated
    double lhs = std::max({d, t.CdMin(a), t.CdMin(b)});
    double rhs = std::max({max_diam, t.CdMax(a), t.CdMax(b)});
    return lhs >= rhs;  // mutually unreachable
  }
};

/// A pair of k-d tree nodes (arena indices) produced by the decomposition.
struct WspdPair {
  uint32_t a;
  uint32_t b;
};

/// Runs the WSPD traversal, invoking `visit(a, b)` on every well-separated
/// node pair. `visit` may run concurrently from several workers and must be
/// thread-safe. Degenerate pairs of unsplittable duplicate leaves are also
/// reported (they satisfy every criterion — zero diameters) to keep the
/// realization complete.
template <int D, typename Sep, typename Visit>
void WspdTraverse(const KdTree<D>& tree, const Sep& sep, Visit visit) {
  DualTraverse(
      tree, [](uint32_t, uint32_t) { return false; },
      [&](uint32_t a, uint32_t b) { return sep(tree, a, b); },
      [&](uint32_t a, uint32_t b, bool /*separated*/) { visit(a, b); });
}

/// Materializes the full decomposition as a vector of node pairs.
template <int D, typename Sep>
std::vector<WspdPair> MaterializeWspd(const KdTree<D>& tree, const Sep& sep) {
  std::vector<std::vector<WspdPair>> local(NumWorkers());
  WspdTraverse(tree, sep, [&](uint32_t a, uint32_t b) {
    local[Scheduler::Get().MyId()].push_back({a, b});
  });
  std::vector<WspdPair> pairs = Flatten(local);
  Stats::Get().RecordMaterialized(pairs.size());
  return pairs;
}

}  // namespace parhc
