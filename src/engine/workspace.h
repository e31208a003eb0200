#ifndef HADAD_ENGINE_WORKSPACE_H_
#define HADAD_ENGINE_WORKSPACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "cost/cost_model.h"
#include "la/expr.h"
#include "matrix/matrix.h"

namespace hadad::engine {

class Workspace;

// One installed value of a workspace entry plus the generation it was first
// bound at (its epoch). The handle is the version's whole lifetime: the live
// binding, every pinned Snapshot that saw it, and any mutation journal that
// took it each hold a reference, and the value frees when the last drops.
// Installed values are immutable, except that Workspace::Append may grow the
// live one in place when no pin can see it.
struct Version {
  std::shared_ptr<const matrix::Matrix> value;
  int64_t epoch = 0;
};

// A point-in-time stamp of the workspace entries a consumer depends on: the
// workspace generation at capture plus the epoch of each named entry (names
// never stored stamp kNeverStored). Epochs are the version identity, so a
// stamp is current exactly while each name is bound to the version it saw.
// Matrices are not held — consumers that must also *read* a stable state
// pin a Snapshot (below).
struct VersionStamp {
  int64_t generation = 0;
  std::vector<std::pair<std::string, int64_t>> epochs;
};

// An immutable point-in-time view of every workspace entry: it holds the
// version handles bound at pin time, so queries resolve leaves against it
// with no lock held while writers bind new versions concurrently. Obtained
// via Workspace::PinSnapshot(); destroying the last handle unpins it and
// drops its references.
class Snapshot {
 public:
  ~Snapshot();
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  // Single-lookup access; nullptr when the name was absent at pin time.
  const matrix::Matrix* Find(const std::string& name) const {
    auto it = entries_.find(name);
    return it == entries_.end() ? nullptr : it->second.get();
  }
  Result<const matrix::Matrix*> Get(const std::string& name) const {
    if (const matrix::Matrix* m = Find(name)) return m;
    return Status::NotFound("no matrix named '" + name + "' in workspace");
  }

  // The workspace generation this snapshot was pinned at.
  int64_t generation() const { return generation_; }
  size_t size() const { return entries_.size(); }

 private:
  friend class Workspace;
  Snapshot() = default;

  const Workspace* owner_ = nullptr;
  int64_t generation_ = 0;
  // Name -> pinned version handle.
  std::map<std::string, std::shared_ptr<const matrix::Matrix>> entries_;
};

using SnapshotPtr = std::shared_ptr<const Snapshot>;

// The named matrices an engine run can see: base data plus materialized
// views. Doubles as the cost::DataCatalog handed to the optimizer (for MNC
// base histograms).
//
// The catalog is *multi-versioned*: each name is bound to one Version, a
// reference-counted handle. Every mutation (Put/Update/Append/Erase/Take/
// Restore) rebinds under a short writer critical section and bumps a
// session-wide data generation; Put, Update and Append stamp the touched
// entry with it as that entry's epoch, while Restore rebinds a taken
// version with the epoch it already had. A superseded version lives as long
// as a Snapshot or journal still holds it — readers execute against their
// pinned versions with no shared state lock held, so writers never block
// readers. Dependents (the api::Session plan cache, compiled DAGs,
// materialized views) record a VersionStamp at derivation time and
// re-derive when any recorded epoch moved — mutations of unrelated entries
// leave them warm.
//
// Thread-safety: generation/epoch reads (generation(), EpochOf, StampFor,
// StampCurrent), snapshot release (handles may be dropped from any
// thread), and the version-accounting accessors (PinnedSnapshots,
// LiveVersions, RetiredTotal, RetainedBytes) are safe from any thread.
// Mutators and PinSnapshot() itself are externally synchronized —
// api::Session mutates only under its unique state lock and pins under the
// shared one (the pin must be atomic with the freshness check before it).
class Workspace {
 public:
  // EpochOf() for a name that holds no live version.
  static constexpr int64_t kNeverStored = -1;

  Workspace();

  // Movable for by-value construction (dataset factories); the versioning
  // members make it non-copyable. Moves are construction-time only — never
  // move a workspace that concurrent readers can see or that has pinned
  // snapshots (Snapshot handles point back at their owner). The moved-from
  // workspace is left empty, with fresh accounting.
  Workspace(Workspace&& other) noexcept;
  Workspace& operator=(Workspace&& other) noexcept;

  // Binds (or rebinds) `name` to a new version stamped with a new epoch.
  void Put(const std::string& name, matrix::Matrix m);

  // Replaces the value of the existing entry `name`; NotFound when absent.
  Status Update(const std::string& name, matrix::Matrix m);

  // Appends rows below the existing entry `name` (column counts must
  // match); NotFound when absent. Bumps the entry's epoch. Grows the live
  // version in place when no pinned snapshot can see it, and otherwise
  // binds a grown copy, so snapshots pinned before the append keep the
  // un-grown matrix.
  Status Append(const std::string& name, const matrix::Matrix& rows);

  bool Has(const std::string& name) const { return Find(name) != nullptr; }

  // Removes `name`; false when absent. The entry's epoch reads kNeverStored
  // again: stamps that recorded a live epoch then read kNeverStored —
  // stale, as required. The one blind spot is a stamp of kNeverStored
  // racing a full Put+Erase cycle; consumers only stamp names that exist
  // (or durably never exist) at stamp time, so the cycle is unobservable.
  bool Erase(const std::string& name);

  // Removes `name` and returns its version (handle and epoch); nullopt when
  // absent. Epoch semantics as Erase. Restore() rebinds it.
  std::optional<Version> Take(const std::string& name);

  // Binds `name` to `version` exactly as taken — the same handle and the
  // same epoch — so stamps recorded against it read current again (a
  // rolled-back mutation leaves dependents warm). `version` must come from
  // this workspace's Take of `name`.
  void Restore(const std::string& name, Version version);

  Result<const matrix::Matrix*> Get(const std::string& name) const {
    if (const matrix::Matrix* m = Find(name)) return m;
    return Status::NotFound("no matrix named '" + name + "' in workspace");
  }

  // Single-lookup access to the current version; nullptr when absent.
  const matrix::Matrix* Find(const std::string& name) const {
    auto it = data_.find(name);
    return it == data_.end() ? nullptr : it->second.get();
  }

  // Current versions by name (the optimizer's MNC histogram source). The
  // map shape follows the owner's external locking; the pointed-at
  // matrices are immutable versions.
  const cost::DataCatalog& data() const { return data_; }

  // Pins the current version of every entry into an immutable Snapshot.
  // Callers hold the owner's state lock (at least shared) so the pin is
  // atomic with the plan-freshness check that precedes it; the returned
  // handle may be released from any thread, with no lock held.
  SnapshotPtr PinSnapshot() const HADAD_EXCLUDES(mu_);

  // Monotone counter bumped by every mutation.
  int64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  // The epoch of the version `name` is bound to; kNeverStored when the name
  // holds no live version.
  int64_t EpochOf(const std::string& name) const HADAD_EXCLUDES(mu_);

  // Captures the current epochs of `names` (cheap: no matrix copies).
  VersionStamp StampFor(const std::vector<std::string>& names) const
      HADAD_EXCLUDES(mu_);

  // True when every stamped entry's epoch is unchanged. The workspace
  // generation may have moved — unrelated entries never invalidate.
  bool StampCurrent(const VersionStamp& stamp) const HADAD_EXCLUDES(mu_);

  // --- Version accounting (the hadad_workspace_* metrics read these) -----

  // Snapshot handles currently pinned by in-flight readers.
  int64_t PinnedSnapshots() const HADAD_EXCLUDES(mu_);
  // Versions this workspace created that are still alive: one per bound
  // name plus superseded ones a snapshot or journal still holds.
  int64_t LiveVersions() const;
  // Versions unbound by mutations since construction (monotone).
  int64_t RetiredTotal() const HADAD_EXCLUDES(mu_);
  // matrix::ApproxBytes summed over every version LiveVersions counts —
  // the leak test's accounting hook.
  int64_t RetainedBytes() const;

  // Derives the metadata catalog (shapes + exact nnz) from the stored
  // matrices, for standalone optimizers; flags are detected structurally
  // for square matrices up to `flag_detect_limit` rows (type detection is
  // O(n^2)). api::Session registers shapes only: its optimizer reads the
  // rest from the data it is bound to.
  la::MetaCatalog BuildMetaCatalog(int64_t flag_detect_limit = 0) const;

 private:
  friend class Snapshot;
  // Live-version and byte counts, shared with every version's deleter: the
  // last handle of a version may drop on any thread, after this workspace
  // moved. Defined in workspace.cc.
  struct VersionCounts;

  // A new version holding `m`, counted in counts_ until its last handle
  // drops.
  std::shared_ptr<const matrix::Matrix> NewVersion(matrix::Matrix m);
  // Binds `name` to `version`, counting any version it supersedes as
  // retired; the superseded handle is dropped outside mu_.
  void Bind(const std::string& name, Version version);
  // Publishes one mutation of `name`: records `epoch` as its epoch
  // (kNeverStored unbinds it), counts a retired version when `retired`,
  // then bumps the generation. Returns the epoch it replaced.
  int64_t Commit(const std::string& name, int64_t epoch, bool retired)
      HADAD_EXCLUDES(mu_);
  // EpochOf with mu_ held.
  int64_t EpochLocked(const std::string& name) const HADAD_REQUIRES(mu_);
  // Snapshot destructors call this; safe from any thread, independent of
  // the owner's state lock.
  void Unpin(int64_t generation) const HADAD_EXCLUDES(mu_);

  // Current version handles by name. Map shape follows the owner's
  // external locking.
  cost::DataCatalog data_;
  std::atomic<int64_t> generation_{0};
  std::shared_ptr<VersionCounts> counts_;
  // Guards the epoch map, the pin table and the retire counter; never held
  // while a matrix is evaluated or freed. Mutable: pins/unpins and the
  // accounting accessors are logically const.
  mutable common::Mutex mu_;
  // Name -> epoch of its bound version. Read from any thread (plan
  // freshness checks take no state lock).
  std::map<std::string, int64_t> epochs_ HADAD_GUARDED_BY(mu_);
  // Pinned-snapshot registry: generation -> live handle count. Append grows
  // the live version in place only while no pinned generation reaches its
  // epoch.
  mutable std::map<int64_t, int64_t> pins_ HADAD_GUARDED_BY(mu_);
  int64_t retired_total_ HADAD_GUARDED_BY(mu_) = 0;
};

// Leaf resolver the execution layers run against: either a live Workspace
// (callers then hold the owner's state lock for the duration) or a pinned
// Snapshot (no lock needed — the snapshot-isolated fast path). Two pointers
// wide; pass by value. Implicit conversions keep existing
// Execute(expr, workspace) call sites source-compatible.
class WorkspaceView {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor)
  WorkspaceView(const Workspace& workspace) : workspace_(&workspace) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  WorkspaceView(const Snapshot& snapshot) : snapshot_(&snapshot) {}

  const matrix::Matrix* Find(const std::string& name) const {
    return workspace_ != nullptr ? workspace_->Find(name)
                                 : snapshot_->Find(name);
  }
  Result<const matrix::Matrix*> Get(const std::string& name) const {
    return workspace_ != nullptr ? workspace_->Get(name)
                                 : snapshot_->Get(name);
  }

 private:
  const Workspace* workspace_ = nullptr;
  const Snapshot* snapshot_ = nullptr;
};

}  // namespace hadad::engine

#endif  // HADAD_ENGINE_WORKSPACE_H_
