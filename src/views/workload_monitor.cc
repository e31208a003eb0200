#include "views/workload_monitor.h"

#include <algorithm>
#include <map>
#include <utility>

namespace hadad::views {

namespace {

// Collects each distinct non-leaf subtree (by canonical text) once.
void CollectSubtrees(const la::ExprPtr& e,
                     std::map<std::string, la::ExprPtr>* out) {
  if (e->is_leaf()) return;
  out->emplace(la::ToString(e), e);
  for (const la::ExprPtr& child : e->children()) {
    CollectSubtrees(child, out);
  }
}

}  // namespace

void WorkloadMonitor::Observe(const la::ExprPtr& executed) {
  if (executed == nullptr) return;
  std::map<std::string, la::ExprPtr> subtrees;
  CollectSubtrees(executed, &subtrees);

  common::MutexLock lock(&mu_);
  ++runs_;
  for (auto& [canonical, expr] : subtrees) {
    auto it = stats_.find(canonical);
    if (it == stats_.end()) {
      if (stats_.size() >= kMaxTracked) {
        // Replace a cold singleton so a burst of one-off forms cannot
        // permanently blind the advisor; repeated forms (hits > 1) stay.
        auto victim =
            std::find_if(stats_.begin(), stats_.end(),
                         [](const auto& kv) { return kv.second.hits <= 1; });
        if (victim == stats_.end()) continue;
        stats_.erase(victim);
      }
      it = stats_.emplace(canonical, SubexprStat{canonical, expr, 0}).first;
    }
    it->second.hits += 1;
  }
}

std::vector<SubexprStat> WorkloadMonitor::Snapshot() const {
  std::vector<SubexprStat> out;
  {
    common::MutexLock lock(&mu_);
    out.reserve(stats_.size());
    for (const auto& [canonical, stat] : stats_) out.push_back(stat);
  }
  std::sort(out.begin(), out.end(),
            [](const SubexprStat& a, const SubexprStat& b) {
              return a.canonical < b.canonical;
            });
  return out;
}

void WorkloadMonitor::Forget(const la::ExprPtr& root) {
  if (root == nullptr) return;
  std::map<std::string, la::ExprPtr> subtrees;
  CollectSubtrees(root, &subtrees);
  common::MutexLock lock(&mu_);
  for (const auto& [canonical, expr] : subtrees) stats_.erase(canonical);
}

int64_t WorkloadMonitor::observed_runs() const {
  common::MutexLock lock(&mu_);
  return runs_;
}

int64_t WorkloadMonitor::tracked_count() const {
  common::MutexLock lock(&mu_);
  return static_cast<int64_t>(stats_.size());
}

}  // namespace hadad::views
