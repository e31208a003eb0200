#include "engine/view_catalog.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "engine/evaluator.h"
#include "la/parser.h"

namespace hadad::engine {

Status ViewCatalog::Materialize(const std::string& name,
                                const la::ExprPtr& definition) {
  // Fail before evaluating: view definitions can be expensive.
  if (workspace_->Has(name)) {
    return Status::InvalidArgument("workspace already has '" + name + "'");
  }
  HADAD_ASSIGN_OR_RETURN(matrix::Matrix value,
                         Execute(*definition, *workspace_));
  return Install(name, definition, std::move(value));
}

Status ViewCatalog::MaterializeText(const std::string& name,
                                    const std::string& definition_text) {
  HADAD_ASSIGN_OR_RETURN(la::ExprPtr def,
                         la::ParseExpression(definition_text));
  return Materialize(name, def);
}

Status ViewCatalog::Install(const std::string& name,
                            const la::ExprPtr& definition,
                            matrix::Matrix value) {
  if (workspace_->Has(name)) {
    return Status::InvalidArgument("workspace already has '" + name + "'");
  }
  const int64_t bytes = matrix::ApproxBytes(value);
  workspace_->Put(name, std::move(value));
  entries_.push_back(Entry{name, definition, bytes});
  return Status::OK();
}

Status ViewCatalog::Drop(const std::string& name) {
  return Detach(name).status();
}

Result<std::shared_ptr<const matrix::Matrix>> ViewCatalog::Detach(
    const std::string& name) {
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [&name](const Entry& e) { return e.name == name; });
  if (it == entries_.end()) {
    return Status::NotFound("no view named '" + name + "' in catalog");
  }
  entries_.erase(it);
  std::optional<Version> taken = workspace_->Take(name);
  if (!taken.has_value()) {
    return Status::Internal("view '" + name + "' missing from workspace");
  }
  return std::move(taken->value);
}

const ViewCatalog::Entry* ViewCatalog::FindEntry(
    const std::string& name) const {
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [&name](const Entry& e) { return e.name == name; });
  return it == entries_.end() ? nullptr : &*it;
}

int64_t ViewCatalog::total_bytes() const {
  int64_t total = 0;
  for (const Entry& e : entries_) total += e.bytes;
  return total;
}

}  // namespace hadad::engine
