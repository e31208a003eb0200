#ifndef HADAD_ENGINE_VIEW_CATALOG_H_
#define HADAD_ENGINE_VIEW_CATALOG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/workspace.h"
#include "la/expr.h"
#include "matrix/matrix.h"

namespace hadad::engine {

// Materialized-view management: evaluates view definitions against the
// workspace's base data and stores the results under the view names (the
// paper materializes V_exp to CSV files, §9.1.2; Workspace is our store).
// Tracks the resident bytes of every entry so a budgeted store (the
// adaptive-view subsystem) can account for and evict views.
class ViewCatalog {
 public:
  explicit ViewCatalog(Workspace* workspace) : workspace_(workspace) {}

  // Evaluates `definition` and stores the result as `name`. Fails if the
  // name is taken or evaluation fails.
  Status Materialize(const std::string& name, const la::ExprPtr& definition);
  Status MaterializeText(const std::string& name,
                         const std::string& definition_text);

  // Registers an already-evaluated view value (background materialization
  // computes outside any lock, then installs here). Fails on a taken name.
  Status Install(const std::string& name, const la::ExprPtr& definition,
                 matrix::Matrix value);

  // Unregisters `name` and removes it from the workspace. NotFound when the
  // catalog holds no such view (base matrices are never dropped here).
  Status Drop(const std::string& name);

  // Drop, but returns the materialized version's handle instead of
  // releasing it — incremental view refresh reuses it (V ← V + f(Δ)).
  Result<std::shared_ptr<const matrix::Matrix>> Detach(
      const std::string& name);

  struct Entry {
    std::string name;
    la::ExprPtr definition;
    int64_t bytes = 0;  // matrix::ApproxBytes of the materialized value.
  };
  const std::vector<Entry>& entries() const { return entries_; }
  // nullptr when `name` is not a registered view.
  const Entry* FindEntry(const std::string& name) const;
  // Summed bytes across all entries.
  int64_t total_bytes() const;

 private:
  Workspace* workspace_;
  std::vector<Entry> entries_;
};

}  // namespace hadad::engine

#endif  // HADAD_ENGINE_VIEW_CATALOG_H_
