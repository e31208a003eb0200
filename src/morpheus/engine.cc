#include "morpheus/engine.h"

namespace hadad::morpheus {

bool MorpheusEngine::ReferencesNormalized(const la::Expr& expr) const {
  if (expr.kind() == la::OpKind::kMatrixRef) {
    return Lookup(expr.name()) != nullptr;
  }
  for (const la::ExprPtr& child : expr.children()) {
    if (ReferencesNormalized(*child)) return true;
  }
  return false;
}

}  // namespace hadad::morpheus
