#include "controlplane/incremental_spf.h"

#include <queue>
#include <unordered_set>

#include "util/error.h"

namespace dna::cp {

namespace {
using Item = std::pair<int, topo::NodeId>;  // (distance, node)
using MinHeap = std::priority_queue<Item, std::vector<Item>, std::greater<>>;
}  // namespace

DynamicSssp::DynamicSssp(const WeightedDigraph* graph, topo::NodeId source)
    : graph_(graph), source_(source) {
  recompute();
}

void DynamicSssp::recompute() { dist_ = dijkstra(*graph_, source_); }

std::vector<topo::NodeId> DynamicSssp::arc_updated(
    topo::NodeId from, topo::NodeId to, int old_w, int new_w,
    std::vector<DistWrite>* log) {
  dist_.resize(graph_->num_nodes(), kInfDist);
  if (new_w < old_w) return on_decrease(to, log);
  if (new_w > old_w) return on_increase(from, to, old_w, log);
  return {};
}

std::vector<topo::NodeId> DynamicSssp::on_decrease(
    topo::NodeId to, std::vector<DistWrite>* log) {
  // The arc head may have improved; one pass of Dijkstra relaxation from the
  // improved frontier settles everything downstream.
  int best = kInfDist;
  for (const Arc& arc : graph_->in[to]) {
    if (dist_[arc.to] >= kInfDist) continue;
    best = std::min(best, dist_[arc.to] + arc.weight);
  }
  if (to == source_) best = 0;
  if (best >= dist_[to]) return {};  // not an improvement

  auto write = [&](topo::NodeId node, int dist) {
    if (log) log->push_back({source_, node, dist_[node]});
    dist_[node] = dist;
  };
  std::unordered_set<topo::NodeId> changed{to};
  MinHeap heap;
  write(to, best);
  heap.push({best, to});
  while (!heap.empty()) {
    auto [d, node] = heap.top();
    heap.pop();
    if (d != dist_[node]) continue;
    for (const Arc& arc : graph_->out[node]) {
      const int nd = d + arc.weight;
      if (nd < dist_[arc.to]) {
        changed.insert(arc.to);
        write(arc.to, nd);
        heap.push({nd, arc.to});
      }
    }
  }
  return {changed.begin(), changed.end()};
}

std::vector<topo::NodeId> DynamicSssp::on_increase(
    topo::NodeId from, topo::NodeId to, int old_w,
    std::vector<DistWrite>* log) {
  if (dist_[from] >= kInfDist) return {};
  if (dist_[from] + old_w != dist_[to]) return {};  // arc was not tight
  if (to == source_) return {};                     // source is always 0

  // Collect the orphaned region: nodes whose every tight predecessor is
  // itself orphaned. Processing in increasing old-distance order makes the
  // support check final (weights >= 1 imply supports have smaller dist).
  std::unordered_set<topo::NodeId> orphaned;
  MinHeap candidates;
  candidates.push({dist_[to], to});
  std::unordered_set<topo::NodeId> enqueued{to};

  while (!candidates.empty()) {
    auto [d, node] = candidates.top();
    candidates.pop();
    if (node == source_) continue;
    bool supported = false;
    for (const Arc& arc : graph_->in[node]) {
      DNA_CHECK_MSG(arc.weight >= 1, "incremental SPF requires weights >= 1");
      const topo::NodeId pred = arc.to;  // `in` stores the source in `to`
      if (orphaned.count(pred) || dist_[pred] >= kInfDist) continue;
      if (dist_[pred] + arc.weight == dist_[node]) {
        supported = true;
        break;
      }
    }
    if (supported) continue;  // keeps its distance; boundary node
    orphaned.insert(node);
    for (const Arc& arc : graph_->out[node]) {
      if (enqueued.count(arc.to)) continue;
      if (dist_[node] + arc.weight == dist_[arc.to]) {  // tight successor
        enqueued.insert(arc.to);
        candidates.push({dist_[arc.to], arc.to});
      }
    }
  }
  if (orphaned.empty()) return {};

  // Repair: seed each orphan with its best boundary estimate, then settle.
  std::vector<std::pair<topo::NodeId, int>> old_dist;
  old_dist.reserve(orphaned.size());
  MinHeap heap;
  for (topo::NodeId node : orphaned) {
    old_dist.emplace_back(node, dist_[node]);
    int best = kInfDist;
    for (const Arc& arc : graph_->in[node]) {
      const topo::NodeId pred = arc.to;
      if (orphaned.count(pred) || dist_[pred] >= kInfDist) continue;
      best = std::min(best, dist_[pred] + arc.weight);
    }
    dist_[node] = best;
    if (best < kInfDist) heap.push({best, node});
  }
  while (!heap.empty()) {
    auto [d, node] = heap.top();
    heap.pop();
    if (d != dist_[node]) continue;
    for (const Arc& arc : graph_->out[node]) {
      if (!orphaned.count(arc.to)) continue;
      const int nd = d + arc.weight;
      if (nd < dist_[arc.to]) {
        dist_[arc.to] = nd;
        heap.push({nd, arc.to});
      }
    }
  }

  // Only orphans were written, each from its distance in old_dist.
  std::vector<topo::NodeId> changed;
  for (auto& [node, before] : old_dist) {
    if (dist_[node] == before) continue;
    changed.push_back(node);
    if (log) log->push_back({source_, node, before});
  }
  return changed;
}

}  // namespace dna::cp
