#ifndef HADAD_PACB_OP_SIGNATURE_H_
#define HADAD_PACB_OP_SIGNATURE_H_

#include <string>
#include <vector>

#include "chase/instance.h"
#include "la/expr.h"

namespace hadad::pacb {

// Structural description of a VREM operation relation: which argument
// positions are inputs, which are outputs, and how each output decodes back
// to an LA operator (dec_LA's table).
struct OpOutput {
  int position;        // Argument position of the output class.
  int output_index;    // Estimator output selector (qr/lu factor).
  la::OpKind decode_kind;
};

struct OpSignature {
  std::vector<int> input_positions;
  std::vector<OpOutput> outputs;
};

// Signature for `predicate`, or nullptr when the relation is not an
// operation (name/size/type/sconst/zero/identity/morpheusJoin).
const OpSignature* GetOpSignature(const std::string& predicate);

// GetOpSignature by the predicate ids of one instance: each id's name is
// looked up once, the first time the id is asked for.
class SignatureTable {
 public:
  explicit SignatureTable(const chase::Instance* instance)
      : instance_(instance) {}

  const OpSignature* Get(int32_t predicate) {
    while (by_id_.size() <= static_cast<size_t>(predicate)) {
      by_id_.push_back(GetOpSignature(
          instance_->PredicateName(static_cast<int32_t>(by_id_.size()))));
    }
    return by_id_[static_cast<size_t>(predicate)];
  }

 private:
  const chase::Instance* instance_;
  std::vector<const OpSignature*> by_id_;
};

}  // namespace hadad::pacb

#endif  // HADAD_PACB_OP_SIGNATURE_H_
