#include "engine/workspace.h"

#include <utility>

#include "matrix/decompositions.h"

namespace hadad::engine {

struct Workspace::VersionCounts {
  std::atomic<int64_t> versions{0};
  std::atomic<int64_t> bytes{0};
};

Snapshot::~Snapshot() {
  if (owner_ != nullptr) owner_->Unpin(generation_);
}

Workspace::Workspace() : counts_(std::make_shared<VersionCounts>()) {}

Workspace::Workspace(Workspace&& other) noexcept
    : data_(std::move(other.data_)),
      generation_(other.generation_.load(std::memory_order_acquire)),
      counts_(std::exchange(other.counts_,
                            std::make_shared<VersionCounts>())) {
  // The source's lock is still taken: it is cheap, and it keeps the
  // guarded access to `other`'s maps visible to the thread-safety analysis.
  common::MutexLock theirs(&other.mu_);
  HADAD_CHECK_MSG(other.pins_.empty(),
                  "moving a workspace with pinned snapshots");
  epochs_ = std::move(other.epochs_);
  retired_total_ = other.retired_total_;
}

Workspace& Workspace::operator=(Workspace&& other) noexcept {
  if (this == &other) return *this;
  data_ = std::move(other.data_);
  generation_.store(other.generation_.load(std::memory_order_acquire),
                    std::memory_order_release);
  counts_ = std::exchange(other.counts_, std::make_shared<VersionCounts>());
  common::MutexLock mine(&mu_);
  common::MutexLock theirs(&other.mu_);
  HADAD_CHECK_MSG(pins_.empty() && other.pins_.empty(),
                  "moving a workspace with pinned snapshots");
  epochs_ = std::move(other.epochs_);
  retired_total_ = other.retired_total_;
  return *this;
}

std::shared_ptr<const matrix::Matrix> Workspace::NewVersion(
    matrix::Matrix m) {
  counts_->versions.fetch_add(1);
  counts_->bytes.fetch_add(matrix::ApproxBytes(m));
  // Created non-const (and viewed through const pointers) so the in-place
  // Append may legally cast mutability back on.
  return std::shared_ptr<matrix::Matrix>(
      new matrix::Matrix(std::move(m)),
      [counts = counts_](matrix::Matrix* value) {
        counts->bytes.fetch_sub(matrix::ApproxBytes(*value));
        counts->versions.fetch_sub(1);
        delete value;
      });
}

void Workspace::Bind(const std::string& name, Version version) {
  std::shared_ptr<const matrix::Matrix> superseded =
      std::exchange(data_[name], std::move(version.value));
  Commit(name, version.epoch, /*retired=*/superseded != nullptr);
}

int64_t Workspace::Commit(const std::string& name, int64_t epoch,
                          bool retired) {
  int64_t replaced = kNeverStored;
  {
    common::MutexLock lock(&mu_);
    replaced = EpochLocked(name);
    if (epoch == kNeverStored) {
      epochs_.erase(name);
    } else {
      epochs_[name] = epoch;
    }
    if (retired) ++retired_total_;
  }
  // Published after the epoch: a reader that observes the new generation
  // also observes the new epoch, so PlanFresh's verified-generation fast
  // path never vouches for a half-published mutation.
  generation_.fetch_add(1, std::memory_order_acq_rel);
  return replaced;
}

void Workspace::Unpin(int64_t generation) const {
  common::MutexLock lock(&mu_);
  auto it = pins_.find(generation);
  HADAD_CHECK_MSG(it != pins_.end(), "unpin of unregistered snapshot");
  if (--it->second == 0) pins_.erase(it);
}

SnapshotPtr Workspace::PinSnapshot() const {
  auto snapshot = std::shared_ptr<Snapshot>(new Snapshot());
  snapshot->entries_ = data_;
  common::MutexLock lock(&mu_);
  snapshot->owner_ = this;
  snapshot->generation_ = generation();
  ++pins_[snapshot->generation_];
  return snapshot;
}

void Workspace::Put(const std::string& name, matrix::Matrix m) {
  // Mutators are externally serialized, so the next generation is the one
  // Commit publishes.
  Bind(name, Version{NewVersion(std::move(m)), generation() + 1});
}

Status Workspace::Update(const std::string& name, matrix::Matrix m) {
  if (data_.find(name) == data_.end()) {
    return Status::NotFound("no matrix named '" + name + "' in workspace");
  }
  Put(name, std::move(m));
  return Status::OK();
}

Status Workspace::Append(const std::string& name,
                         const matrix::Matrix& rows) {
  auto it = data_.find(name);
  if (it == data_.end()) {
    return Status::NotFound("no matrix named '" + name + "' in workspace");
  }
  // A snapshot pinned at generation g can see a version only if g >= the
  // version's epoch (Restore keeps epochs, so this holds for restored
  // versions too). With no such pin, grow the live version in place —
  // O(|Δ|) instead of a whole-matrix copy. Pinning happens under the
  // owner's shared state lock while mutators hold it uniquely, so no pin
  // can appear mid-append; Unpin takes mu_, which orders a reader's last
  // access before the write.
  bool in_place = false;
  {
    common::MutexLock lock(&mu_);
    in_place = pins_.empty() || pins_.rbegin()->first < epochs_.at(name);
  }
  if (!in_place) {
    matrix::Matrix grown = *it->second;
    HADAD_RETURN_IF_ERROR(matrix::AppendRows(&grown, rows));
    Put(name, std::move(grown));
    return Status::OK();
  }
  auto* live = const_cast<matrix::Matrix*>(it->second.get());
  const int64_t bytes_before = matrix::ApproxBytes(*live);
  HADAD_RETURN_IF_ERROR(matrix::AppendRows(live, rows));
  counts_->bytes.fetch_add(matrix::ApproxBytes(*live) - bytes_before);
  // The grown value is a new epoch of the same version: dependent stamps go
  // stale exactly as a rebind would, with nothing retired.
  Commit(name, generation() + 1, /*retired=*/false);
  return Status::OK();
}

bool Workspace::Erase(const std::string& name) {
  return Take(name).has_value();
}

std::optional<Version> Workspace::Take(const std::string& name) {
  auto it = data_.find(name);
  if (it == data_.end()) return std::nullopt;
  Version taken{std::move(it->second), 0};
  data_.erase(it);
  taken.epoch = Commit(name, kNeverStored, /*retired=*/true);
  return taken;
}

void Workspace::Restore(const std::string& name, Version version) {
  Bind(name, std::move(version));
}

int64_t Workspace::EpochLocked(const std::string& name) const {
  auto it = epochs_.find(name);
  return it == epochs_.end() ? kNeverStored : it->second;
}

int64_t Workspace::EpochOf(const std::string& name) const {
  common::MutexLock lock(&mu_);
  return EpochLocked(name);
}

VersionStamp Workspace::StampFor(const std::vector<std::string>& names) const {
  VersionStamp stamp;
  stamp.generation = generation();
  stamp.epochs.reserve(names.size());
  common::MutexLock lock(&mu_);
  for (const std::string& name : names) {
    stamp.epochs.emplace_back(name, EpochLocked(name));
  }
  return stamp;
}

bool Workspace::StampCurrent(const VersionStamp& stamp) const {
  common::MutexLock lock(&mu_);
  for (const auto& [name, epoch] : stamp.epochs) {
    if (EpochLocked(name) != epoch) return false;
  }
  return true;
}

int64_t Workspace::PinnedSnapshots() const {
  common::MutexLock lock(&mu_);
  int64_t total = 0;
  for (const auto& [gen, count] : pins_) total += count;
  return total;
}

int64_t Workspace::LiveVersions() const { return counts_->versions.load(); }

int64_t Workspace::RetiredTotal() const {
  common::MutexLock lock(&mu_);
  return retired_total_;
}

int64_t Workspace::RetainedBytes() const { return counts_->bytes.load(); }

namespace {

la::MatrixMeta MetaFor(const matrix::Matrix& m, int64_t flag_detect_limit) {
  la::MatrixMeta meta;
  meta.rows = m.rows();
  meta.cols = m.cols();
  meta.nnz = static_cast<double>(m.Nnz());
  if (m.IsSquare() && m.rows() <= flag_detect_limit) {
    meta.lower_triangular = matrix::IsLowerTriangular(m);
    meta.upper_triangular = matrix::IsUpperTriangular(m);
    meta.orthogonal = matrix::IsOrthogonal(m);
    if (matrix::IsSymmetric(m)) {
      // Positive definiteness via an attempted Cholesky.
      meta.symmetric_pd = matrix::CholeskyDecompose(m).ok();
    }
  }
  return meta;
}

}  // namespace

la::MetaCatalog Workspace::BuildMetaCatalog(int64_t flag_detect_limit) const {
  la::MetaCatalog catalog;
  for (const auto& [name, m] : data_) {
    catalog[name] = MetaFor(*m, flag_detect_limit);
  }
  return catalog;
}

}  // namespace hadad::engine
