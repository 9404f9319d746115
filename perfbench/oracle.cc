#include "oracle.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <sstream>
#include <unordered_map>

namespace perfbench {

using disc::Category;
using disc::ClusterId;
using disc::ClusteringSnapshot;
using disc::Point;

namespace {

// Same arithmetic as the DBSCAN definition everywhere: squared Euclidean
// distance summed in dimension order, compared with eps squared.
bool Within(const Point& a, const Point& b, double eps2) {
  double sum = 0.0;
  for (std::uint32_t d = 0; d < a.dims; ++d) {
    const double diff = a.x[d] - b.x[d];
    sum += diff * diff;
  }
  return sum <= eps2;
}

std::size_t FindRoot(std::vector<std::size_t>* parent, std::size_t i) {
  while ((*parent)[i] != i) {
    (*parent)[i] = (*parent)[(*parent)[i]];
    i = (*parent)[i];
  }
  return i;
}

// Window points sorted by id, plus each point's eps-neighbours (indices into
// that order, the point itself excluded).
struct Neighbourhoods {
  std::vector<Point> points;
  std::vector<std::vector<std::uint32_t>> adj;
};

Neighbourhoods BuildNeighbourhoods(const std::vector<Point>& window,
                                   double eps) {
  Neighbourhoods nb;
  nb.points = window;
  std::sort(nb.points.begin(), nb.points.end(),
            [](const Point& a, const Point& b) { return a.id < b.id; });
  const std::size_t n = nb.points.size();
  nb.adj.assign(n, {});
  std::vector<std::uint32_t> by_x(n);
  std::iota(by_x.begin(), by_x.end(), 0u);
  std::sort(by_x.begin(), by_x.end(), [&](std::uint32_t a, std::uint32_t b) {
    return nb.points[a].x[0] < nb.points[b].x[0];
  });
  const double eps2 = eps * eps;
  for (std::size_t s = 0; s < n; ++s) {
    const Point& p = nb.points[by_x[s]];
    for (std::size_t t = s + 1; t < n; ++t) {
      const Point& q = nb.points[by_x[t]];
      if (q.x[0] - p.x[0] > eps) break;
      if (Within(p, q, eps2)) {
        nb.adj[by_x[s]].push_back(by_x[t]);
        nb.adj[by_x[t]].push_back(by_x[s]);
      }
    }
  }
  return nb;
}

std::string CheckAgainst(const Neighbourhoods& nb, std::uint32_t tau,
                         const ClusteringSnapshot& snap) {
  const std::size_t n = nb.points.size();
  std::ostringstream err;
  if (snap.ids.size() != n || snap.categories.size() != n ||
      snap.cids.size() != n) {
    err << "snapshot holds " << snap.ids.size() << " rows, window holds "
        << n << " points";
    return err.str();
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (snap.ids[i] != nb.points[i].id) {
      err << "snapshot row " << i << " has id " << snap.ids[i]
          << ", window point there has id " << nb.points[i].id;
      return err.str();
    }
  }
  std::vector<bool> core(n);
  for (std::size_t i = 0; i < n; ++i) core[i] = nb.adj[i].size() + 1 >= tau;
  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  for (std::size_t i = 0; i < n; ++i) {
    if (!core[i]) continue;
    for (std::uint32_t j : nb.adj[i]) {
      if (core[j]) parent[FindRoot(&parent, i)] = FindRoot(&parent, j);
    }
  }
  std::unordered_map<std::size_t, ClusterId> cid_of_component;
  std::unordered_map<ClusterId, std::size_t> component_of_cid;
  for (std::size_t i = 0; i < n; ++i) {
    const ClusterId cid = snap.cids[i];
    const Category cat = snap.categories[i];
    if (core[i]) {
      if (cat != Category::kCore || cid == disc::kNoiseCluster) {
        err << "point " << snap.ids[i] << " is a core but is labelled "
            << static_cast<int>(cat) << " cluster " << cid;
        return err.str();
      }
      const std::size_t comp = FindRoot(&parent, i);
      auto [c_it, c_new] = cid_of_component.emplace(comp, cid);
      if (!c_new && c_it->second != cid) {
        err << "cores " << snap.ids[i] << " and another of one component "
            << "carry clusters " << cid << " and " << c_it->second;
        return err.str();
      }
      auto [k_it, k_new] = component_of_cid.emplace(cid, comp);
      if (!k_new && k_it->second != comp) {
        err << "cluster " << cid << " holds cores of two components (core "
            << snap.ids[i] << ")";
        return err.str();
      }
      continue;
    }
    bool adjacent_core = false;
    bool cid_adjacent = false;
    for (std::uint32_t j : nb.adj[i]) {
      if (!core[j]) continue;
      adjacent_core = true;
      if (snap.cids[j] == cid) cid_adjacent = true;
    }
    if (adjacent_core) {
      if (cat != Category::kBorder || !cid_adjacent) {
        err << "point " << snap.ids[i] << " is a border but is labelled "
            << static_cast<int>(cat) << " cluster " << cid
            << ", which no adjacent core carries";
        return err.str();
      }
    } else if (cat != Category::kNoise || cid != disc::kNoiseCluster) {
      err << "point " << snap.ids[i] << " is noise but is labelled "
          << static_cast<int>(cat) << " cluster " << cid;
      return err.str();
    }
  }
  return {};
}

}  // namespace

std::string CheckDbscan(const std::vector<Point>& window, double eps,
                        std::uint32_t tau, const ClusteringSnapshot& snapshot) {
  return CheckAgainst(BuildNeighbourhoods(window, eps), tau, snapshot);
}

std::string SelfTestOracle(const std::vector<Point>& window, double eps,
                           std::uint32_t tau,
                           const ClusteringSnapshot& snapshot) {
  const Neighbourhoods nb = BuildNeighbourhoods(window, eps);
  if (std::string err = CheckAgainst(nb, tau, snapshot); !err.empty()) {
    return "oracle rejects the uncorrupted labeling: " + err;
  }
  const std::size_t n = nb.points.size();
  std::set<ClusterId> clusters;
  for (std::size_t i = 0; i < n; ++i) {
    if (snapshot.categories[i] == Category::kCore) {
      clusters.insert(snapshot.cids[i]);
    }
  }
  // A cluster id other than `own`, and other than every id in `avoid`:
  // another existing cluster when there is one, else a fresh id.
  auto other_cluster = [&](const std::set<ClusterId>& avoid) {
    for (ClusterId c : clusters) {
      if (avoid.count(c) == 0) return c;
    }
    return clusters.empty() ? ClusterId{0} : *clusters.rbegin() + 1;
  };
  auto is_core = [&](std::size_t i) {
    return snapshot.categories[i] == Category::kCore;
  };

  // 1. A core with a core neighbour (so its cluster keeps another core)
  //    moved to a different cluster.
  std::size_t moved = n;
  for (std::size_t i = 0; i < n && moved == n; ++i) {
    if (!is_core(i)) continue;
    for (std::uint32_t j : nb.adj[i]) {
      if (is_core(j)) {
        moved = i;
        break;
      }
    }
  }
  // 3. A border given a cluster none of its adjacent cores carries.
  std::size_t border = n;
  for (std::size_t i = 0; i < n && border == n; ++i) {
    if (snapshot.categories[i] == Category::kBorder) border = i;
  }
  if (moved == n || border == n || n < 2) {
    return "self-test needs a window with two adjacent cores and a border";
  }

  ClusteringSnapshot core_moved = snapshot;
  core_moved.cids[moved] = other_cluster({snapshot.cids[moved]});
  if (CheckAgainst(nb, tau, core_moved).empty()) {
    return "oracle accepts a core moved to another cluster";
  }

  ClusteringSnapshot dropped = snapshot;
  const auto gone = static_cast<std::ptrdiff_t>(n / 2);
  dropped.ids.erase(dropped.ids.begin() + gone);
  dropped.categories.erase(dropped.categories.begin() + gone);
  dropped.cids.erase(dropped.cids.begin() + gone);
  if (CheckAgainst(nb, tau, dropped).empty()) {
    return "oracle accepts a labeling missing one window point";
  }

  std::set<ClusterId> adjacent;
  for (std::uint32_t j : nb.adj[border]) {
    if (is_core(j)) adjacent.insert(snapshot.cids[j]);
  }
  ClusteringSnapshot misplaced = snapshot;
  misplaced.cids[border] = other_cluster(adjacent);
  if (CheckAgainst(nb, tau, misplaced).empty()) {
    return "oracle accepts a border in a non-adjacent cluster";
  }
  return {};
}

bool ClusteringEqual(const ClusteringSnapshot& a, const ClusteringSnapshot& b) {
  if (a.ids != b.ids || a.categories != b.categories ||
      a.cids.size() != b.cids.size()) {
    return false;
  }
  std::unordered_map<ClusterId, ClusterId> ab;
  std::unordered_map<ClusterId, ClusterId> ba;
  for (std::size_t i = 0; i < a.cids.size(); ++i) {
    auto [f, f_new] = ab.emplace(a.cids[i], b.cids[i]);
    auto [r, r_new] = ba.emplace(b.cids[i], a.cids[i]);
    if ((!f_new && f->second != b.cids[i]) ||
        (!r_new && r->second != a.cids[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
