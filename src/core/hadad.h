#ifndef HADAD_CORE_HADAD_H_
#define HADAD_CORE_HADAD_H_

// Umbrella header: the public API of the HADAD library.
//
// Quick tour (see examples/quickstart.cpp):
//   1. Declare data, views, and Morpheus joins on an api::SessionBuilder;
//      Build() freezes them into an api::Session — the library's front door.
//   2. session->Prepare("t(M %*% N)") parses + rewrites once (the PACB
//      chase under the MMC constraint knowledge base) and returns a
//      reusable PreparedQuery with Execute()/ExecuteOriginal()/Explain().
//   3. session->Run(text) is the serving one-liner: a shared plan cache
//      keyed by the canonical expression makes repeated pipelines pay
//      RW_find once, even across threads.
//
// Expert layers (what Session wires together) remain public: put matrices
// in an engine::Workspace, build a pacb::Optimizer over
// workspace.BuildMetaCatalog(), and execute with exec::Executor (whose
// compiler resolves a morpheus::MorpheusEngine registry of normalized
// matrices) — the one engine every Session query runs on.

#include "api/session.h"
#include "core/data.h"
#include "core/workloads.h"
#include "cost/cost_model.h"
#include "cost/estimator.h"
#include "engine/evaluator.h"
#include "engine/profiles.h"
#include "engine/workspace.h"
#include "exec/executor.h"
#include "hybrid/dataset.h"
#include "hybrid/queries.h"
#include "la/catalog.h"
#include "la/encoder.h"
#include "la/expr.h"
#include "la/parser.h"
#include "matrix/generate.h"
#include "matrix/matrix.h"
#include "matrix/matrix_io.h"
#include "morpheus/engine.h"
#include "morpheus/generator.h"
#include "pacb/optimizer.h"
#include "relational/casting.h"
#include "relational/operators.h"
#include "relational/table.h"

#endif  // HADAD_CORE_HADAD_H_
