#include "ingest/live_shard.h"

#include <utility>

namespace utcq::ingest {

LiveShard::LiveShard(const network::RoadNetwork& net,
                     const network::GridIndex& grid, core::UtcqParams params,
                     core::StiuParams index_params)
    : net_(net),
      grid_(grid),
      index_params_(index_params),
      compressor_(net, params),
      cc_(compressor_.Begin()) {
  index_params_.cells_per_side = grid.cells_per_side();
}

uint32_t LiveShard::base() const {
  common::MutexLock lock(mu_);
  return base_;
}

size_t LiveShard::size() const {
  common::MutexLock lock(mu_);
  return trajs_.size();
}

uint32_t LiveShard::Append(traj::UncertainTrajectory tu) {
  common::MutexLock lock(mu_);
  const uint32_t id = base_ + static_cast<uint32_t>(trajs_.size());
  tu.id = id;
  compressor_.AppendTrajectory(tu, &cc_);
  trajs_.push_back(std::move(tu));
  ++version_;
  cached_.reset();
  return id;
}

std::shared_ptr<const LiveSnapshot> LiveShard::BuildLocked() const {
  auto snap = std::shared_ptr<LiveSnapshot>(new LiveSnapshot());
  // The snapshot owns a copy of the streams: later appends extend cc_'s
  // buffers (possibly reallocating) without invalidating the views below.
  snap->cc_ = cc_;
  snap->base_ = base_;
  snap->count_ = static_cast<uint32_t>(trajs_.size());
  snap->index_ = std::make_unique<core::StiuIndex>(
      grid_, trajs_, snap->cc_.view(), index_params_);
  snap->qp_ = std::make_unique<core::UtcqQueryProcessor>(
      net_, snap->cc_.view(), *snap->index_);
  return snap;
}

std::shared_ptr<const LiveSnapshot> LiveShard::Snapshot() const {
  // Optimistic path: copy the inputs under the lock, run the expensive
  // StIU build outside it, install only if nothing changed meanwhile — so
  // a rebuild never stalls seals or other readers. A seal storm can keep
  // invalidating the build; after a few attempts fall back to building
  // under the lock, which always makes progress.
  for (int attempt = 0; attempt < 3; ++attempt) {
    uint64_t version;
    auto snap = std::shared_ptr<LiveSnapshot>(new LiveSnapshot());
    traj::UncertainCorpus trajs;
    {
      common::MutexLock lock(mu_);
      if (trajs_.empty()) return nullptr;
      if (cached_ != nullptr) return cached_;
      version = version_;
      snap->cc_ = cc_;
      snap->base_ = base_;
      snap->count_ = static_cast<uint32_t>(trajs_.size());
      trajs = trajs_;
    }
    snap->index_ = std::make_unique<core::StiuIndex>(
        grid_, trajs, snap->cc_.view(), index_params_);
    snap->qp_ = std::make_unique<core::UtcqQueryProcessor>(
        net_, snap->cc_.view(), *snap->index_);
    common::MutexLock lock(mu_);
    if (version_ == version) {
      cached_ = snap;
      return cached_;
    }
    // Stale build; a concurrent builder may have installed a fresh one.
    if (cached_ != nullptr) return cached_;
  }
  common::MutexLock lock(mu_);
  if (trajs_.empty()) return nullptr;
  if (cached_ == nullptr) cached_ = BuildLocked();
  return cached_;
}

void LiveShard::DropFlushed(size_t count) {
  common::MutexLock lock(mu_);
  if (count == 0) return;
  if (count > trajs_.size()) count = trajs_.size();
  trajs_.erase(trajs_.begin(),
               trajs_.begin() + static_cast<ptrdiff_t>(count));
  base_ += static_cast<uint32_t>(count);
  // Re-encode the survivors (seals that raced the flush) onto fresh
  // streams; per-trajectory encoding is position-independent, so their
  // decoded form — and thus any cached handle — is unchanged.
  cc_ = compressor_.Begin();
  for (const traj::UncertainTrajectory& tu : trajs_) {
    compressor_.AppendTrajectory(tu, &cc_);
  }
  ++version_;
  cached_.reset();
}

void LiveShard::ResetBase(uint32_t base) {
  common::MutexLock lock(mu_);
  if (!trajs_.empty()) return;  // ids already handed out; never renumber
  base_ = base;
  ++version_;
  cached_.reset();
}

std::vector<traj::UncertainTrajectory> LiveShard::Trajectories() const {
  common::MutexLock lock(mu_);
  return trajs_;
}

}  // namespace utcq::ingest
