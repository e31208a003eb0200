#ifndef HADAD_HYBRID_DATASET_H_
#define HADAD_HYBRID_DATASET_H_

#include <cstdint>
#include <string>

#include "common/rng.h"
#include "common/status.h"
#include "matrix/matrix.h"
#include "relational/table.h"

namespace hadad::hybrid {

// The two hybrid micro-benchmarks of §9.2.2, regenerated synthetically at
// laptop scale (docs/ARCHITECTURE.md, "Deviations from the paper"):
//  * kTwitter — User/Tweet tables joined into the dense feature matrix M,
//    plus a tweet-hashtag-filterlevel fact table (the JSON extraction)
//    filtered on keyword+country that casts into the ultra-sparse matrix N.
//  * kMimic — Patients/Admissions joined into M (with a one-hot encoded
//    care-unit column), plus a patient-service-outcome fact table for N.
enum class BenchmarkKind { kTwitter, kMimic };

struct DatasetConfig {
  BenchmarkKind kind = BenchmarkKind::kTwitter;
  int64_t num_entities = 2000;   // Tweets / admissions (rows of M and N).
  int64_t num_dims = 500;        // Users / patients (join partner rows).
  int64_t num_categories = 100;  // Hashtags / services (columns of N).
  // Fraction of fact rows surviving the RA-stage selection (keyword+country
  // for Twitter; care-unit for MIMIC). The paper's selectivity sweeps
  // (Figures 10b/10c, 11b/11c) vary this.
  double selection_fraction = 1.0;
  // Fact rows per entity (controls N's sparsity).
  double facts_per_entity = 2.0;
};

struct Dataset {
  DatasetConfig config;
  // Fact side ("Tweet" / "Admission"): key column + numeric features +
  // selection attributes.
  relational::Table fact_table;
  // Dimension side ("User" / "Patient"): key column + numeric features.
  relational::Table dim_table;
  // Sparse fact source ("TweetHashtagJSON" / "Callout⋈Service"): entity row,
  // category id, level/outcome, plus the selection attributes.
  relational::Table sparse_facts;
  // Column names for matrix casting.
  std::vector<std::string> fact_features;
  std::vector<std::string> dim_features;
};

Dataset GenerateDataset(Rng& rng, const DatasetConfig& config);

// The Q_RA stage's outputs: the normalized-join pieces and the sparse
// analysis matrix.
struct Preprocessed {
  matrix::Matrix t;  // Fact-side features, num_entities x dT.
  matrix::Matrix k;  // PK-FK indicator, num_entities x num_dims (sparse).
  matrix::Matrix u;  // Dimension-side features, num_dims x dU.
  matrix::Matrix m;  // Materialized join output [T | K U].
  matrix::Matrix n;  // Sparse entity-category matrix.
  double ra_seconds = 0.0;
};

// Runs the Q_RA stage: joins + matrix casting + building N from the fact
// source under the keyword/country (resp. care-unit) selection.
// `push_level_filter`: HADAD's combined rewriting additionally pushes the
// LA-stage level predicate (level <= max_level) into this relational stage
// (§2's filter-level example); the engines' original plans apply it later
// via FilterLevelAtMost.
Result<Preprocessed> Preprocess(const Dataset& dataset, bool push_level_filter,
                                double max_level);

// The Q_FLA stage: keeps only cells with value <= level (SystemML's
// ifelse(N <= level, N, 0)).
matrix::Matrix FilterLevelAtMost(const matrix::Matrix& n, double level);

}  // namespace hadad::hybrid

#endif  // HADAD_HYBRID_DATASET_H_
