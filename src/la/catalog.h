#ifndef HADAD_LA_CATALOG_H_
#define HADAD_LA_CATALOG_H_

#include <string>
#include <vector>

#include "chase/ast.h"
#include "common/status.h"
#include "la/expr.h"

namespace hadad::la {

// The MMC constraint families of §6.2. Constraints are *data*: extending
// HADAD's semantic knowledge of an operator means appending constraints
// here (or passing extra ones to the optimizer) — no engine changes.

// MMC_m: naming/dimension key dependencies (I_name, I_size, I_zero, I_iden,
// plus scalar-literal interning).
std::vector<chase::Constraint> MmcCoreKeys();

// Functionality EGDs: every VREM operation relation is a function of its
// inputs (I_multiM and friends, §6.2.3).
std::vector<chase::Constraint> MmcFunctionalKeys();

// MMC_LAprop: the textbook LA properties of Appendix A (Tables 8 and 9).
// Equality-shaped properties are emitted in both rewrite directions.
std::vector<chase::Constraint> MmcLaProperties();

// Matrix-decomposition properties of §6.2.5 / Table 10 (Cholesky, QR, LU
// definitions and fixed points).
std::vector<chase::Constraint> MmcDecompositions();

// MMC_StatAgg: SystemML's algebraic aggregate rewrite rules, Appendix B
// (Table 11). Deviation from the paper's table: the `colVar(M)->M` /
// `rowVar(M)->M` row-/column-vector rules are omitted because they do not
// hold under sample-variance semantics (var of a single cell is 0, not the
// cell); see docs/ARCHITECTURE.md, "Deviations from the paper".
std::vector<chase::Constraint> MmcStatAgg();

// Morpheus's factorized-learning rewrite rules over the normalized matrix
// M = [T | K U], encoded as constraints over the morpheusJoin relation
// (§9.2.2: "we incorporated them in our framework as a set of integrity
// constraints").
std::vector<chase::Constraint> MorpheusRules();

// The full MMC = MMC_m ∪ functional keys ∪ MMC_LAprop ∪ decompositions
// ∪ MMC_StatAgg ∪ Morpheus, in that order.
std::vector<chase::Constraint> BuildMmc();

// BuildMmc(), built once per process on first use and shared read-only from
// then on.
const std::vector<chase::Constraint>& SharedMmc();

// enc_LA(V) (§6.2.4): the constraint pair for a materialized view `name`
// defined by `definition`. V_IO maps the definition's body pattern to a
// name(root, name) fact ("the view can answer this class"); V_OI expands a
// name(root, name) fact into the definition's pattern with existential
// inner classes.
Result<std::vector<chase::Constraint>> EncodeViewConstraints(
    const std::string& name, const Expr& definition,
    const MetaCatalog& catalog);

}  // namespace hadad::la

#endif  // HADAD_LA_CATALOG_H_
