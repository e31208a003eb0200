#include "views/view_store.h"

#include <algorithm>
#include <optional>
#include <utility>

namespace hadad::views {

ViewStore::ViewStore(engine::Workspace* workspace, int64_t budget_bytes)
    : workspace_(workspace), budget_bytes_(budget_bytes) {}

bool ViewStore::ContainsCanonical(const std::string& canonical) const {
  for (const auto& [name, v] : views_) {
    if (v.canonical == canonical) return true;
  }
  return false;
}

bool ViewStore::ContainsName(const std::string& name) const {
  return views_.contains(name);
}

double ViewStore::Retention(const StoredView& v) const {
  return v.benefit * static_cast<double>(1 + v.hits) /
         static_cast<double>(std::max<int64_t>(1, v.bytes));
}

bool ViewStore::PlanAdmission(int64_t bytes,
                              std::vector<std::string>* evict) const {
  evict->clear();
  if (bytes > budget_bytes_) return false;

  std::vector<const StoredView*> order;
  order.reserve(views_.size());
  for (const auto& [name, v] : views_) order.push_back(&v);
  std::sort(order.begin(), order.end(),
            [this](const StoredView* a, const StoredView* b) {
              const double ra = Retention(*a);
              const double rb = Retention(*b);
              if (ra != rb) return ra < rb;
              if (a->last_use != b->last_use) return a->last_use < b->last_use;
              return a->name < b->name;
            });

  int64_t free_bytes = budget_bytes_ - bytes_in_use();
  size_t remaining = views_.size();
  for (const StoredView* v : order) {
    if (free_bytes >= bytes && remaining < kMaxViews) break;
    evict->push_back(v->name);
    free_bytes += v->bytes;
    --remaining;
  }
  return free_bytes >= bytes && remaining < kMaxViews;
}

Status ViewStore::Admit(StoredView meta, matrix::Matrix value) {
  meta.bytes = matrix::ApproxBytes(value);
  if (bytes_in_use() + meta.bytes > budget_bytes_ ||
      views_.size() >= kMaxViews) {
    return Status::BudgetExhausted(
        "admitting view '" + meta.name + "' (" + std::to_string(meta.bytes) +
        " bytes) would exceed the store budget");
  }
  if (workspace_->Has(meta.name)) {
    return Status::InvalidArgument("workspace already has '" + meta.name +
                                   "'");
  }
  workspace_->Put(meta.name, std::move(value));
  bytes_in_use_ += meta.bytes;
  std::string name = meta.name;
  views_.emplace(std::move(name), std::move(meta));
  return Status::OK();
}

Status ViewStore::Evict(const std::string& name) {
  return Detach(name).status();
}

Result<std::pair<StoredView, std::shared_ptr<const matrix::Matrix>>>
ViewStore::Detach(const std::string& name) {
  auto it = views_.find(name);
  if (it == views_.end()) {
    return Status::NotFound("no adaptive view named '" + name + "'");
  }
  std::optional<engine::Version> taken = workspace_->Take(name);
  if (!taken.has_value()) {
    return Status::Internal("view '" + name + "' missing from workspace");
  }
  bytes_in_use_ -= it->second.bytes;
  std::pair<StoredView, std::shared_ptr<const matrix::Matrix>> out(
      std::move(it->second), std::move(taken->value));
  views_.erase(it);
  return out;
}

void ViewStore::RecordHit(const std::string& name, int64_t sequence) {
  auto it = views_.find(name);
  if (it == views_.end()) return;
  it->second.hits += 1;
  it->second.last_use = sequence;
}

}  // namespace hadad::views
