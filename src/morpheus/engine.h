#ifndef HADAD_MORPHEUS_ENGINE_H_
#define HADAD_MORPHEUS_ENGINE_H_

#include <map>
#include <string>

#include "la/expr.h"
#include "morpheus/normalized_matrix.h"

namespace hadad::morpheus {

// The registry of a session's normalized (factorized) matrices (§9.2.1).
// Execution lives in the DAG engine: exec::Compile resolves normalized
// names through this registry and lowers MorpheusR's pushdown patterns to
// nm_* kernels (see exec::KernelKind), faithful to Morpheus's limits:
//  * operator pushdown fires only when the operator *directly* touches a
//    normalized matrix (or its transpose, via the M^T special rules);
//  * element-wise operators are never factorized (P2.11's discussion);
//  * no chain reordering and no algebraic reasoning — Morpheus cannot turn
//    colSums(M N) into colSums(M) N; that rewriting must come from HADAD.
// Any other use of a normalized matrix materializes it.
//
// Registration happens before the registry is shared; afterwards it is
// immutable, so Lookup pointers stay valid for the registry's lifetime and
// every method is safe to call concurrently.
class MorpheusEngine {
 public:
  // Registers `name` as a normalized matrix.
  void Register(const std::string& name, NormalizedMatrix nm) {
    normalized_.insert_or_assign(name, std::move(nm));
  }

  const NormalizedMatrix* Lookup(const std::string& name) const {
    auto it = normalized_.find(name);
    return it == normalized_.end() ? nullptr : &it->second;
  }

  // True when `expr` mentions any registered normalized matrix.
  bool ReferencesNormalized(const la::Expr& expr) const;

 private:
  std::map<std::string, NormalizedMatrix> normalized_;
};

}  // namespace hadad::morpheus

#endif  // HADAD_MORPHEUS_ENGINE_H_
