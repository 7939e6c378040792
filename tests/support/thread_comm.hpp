// In-process thread-backed communicator (test support).
//
// Substitute for NCCL/RCCL + MPI: each logical rank
// runs on its own thread and the collectives move real data through
// shared memory, so distributed-algorithm *numerics* (reduction
// order, partition-dependent rounding) are exercised for real.  Its
// users are test_comm and the threaded grid reference of the
// distributed tests, which wraps single-rank FftMatvecPlan applies in
// a broadcast and a reduction and pins DistributedMatvecPlan's grid
// apply bit for bit; it charges no simulated time (CommCostModel
// prices collectives).
//
// Reductions combine rank contributions in a fixed pairwise-tree
// order, matching the log2(p) tree depth assumed by the paper's
// error analysis (§3.2.1) and keeping runs bit-reproducible.
#pragma once

#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "comm/tree_reduce.hpp"
#include "util/types.hpp"

namespace fftmv::comm {

/// Rendezvous point shared by the ranks of one group: a
/// sense-reversing barrier plus a pointer slot per rank.
class Hub {
 public:
  explicit Hub(index_t size);

  index_t size() const { return size_; }

  void barrier();

  void publish(index_t rank, const void* p) {
    slots_[static_cast<std::size_t>(rank)].store(const_cast<void*>(p),
                                                 std::memory_order_release);
  }

  void* slot(index_t rank) const {
    return slots_[static_cast<std::size_t>(rank)].load(std::memory_order_acquire);
  }

 private:
  index_t size_;
  std::vector<std::atomic<void*>> slots_;
  std::atomic<index_t> arrived_{0};
  std::atomic<std::uint64_t> generation_{0};
};

/// Rank-local handle to a group; provides the collectives.
class GroupComm {
 public:
  GroupComm() = default;
  GroupComm(std::shared_ptr<Hub> hub, index_t rank) : hub_(std::move(hub)), rank_(rank) {}

  index_t rank() const { return rank_; }
  index_t size() const { return hub_ ? hub_->size() : 1; }
  bool valid() const { return hub_ != nullptr; }

  void barrier() {
    if (hub_) hub_->barrier();
  }

  /// In-place broadcast of count elements from root.
  template <class T>
  void broadcast(T* data, index_t count, index_t root = 0) {
    if (size() <= 1) return;
    hub_->publish(rank_, data);
    hub_->barrier();
    if (rank_ != root) {
      const T* src = static_cast<const T*>(hub_->slot(root));
      std::memcpy(data, src, static_cast<std::size_t>(count) * sizeof(T));
    }
    hub_->barrier();
  }

  /// Sum-reduction to root in pairwise-tree order: contributions are
  /// combined as ((r0+r1)+(r2+r3))+... — log2(p) rounding depth.
  template <class T>
  void reduce_sum(const T* send, T* recv, index_t count, index_t root = 0) {
    if (size() <= 1) {
      if (send != recv) std::memcpy(recv, send, static_cast<std::size_t>(count) * sizeof(T));
      return;
    }
    hub_->publish(rank_, send);
    hub_->barrier();
    if (rank_ == root) {
      const index_t q = size();
      std::vector<const T*> src(static_cast<std::size_t>(q));
      for (index_t r = 0; r < q; ++r) {
        src[static_cast<std::size_t>(r)] = static_cast<const T*>(hub_->slot(r));
      }
      tree_reduce(src, recv, count);
    }
    hub_->barrier();
  }

  /// Reduce to rank 0 then broadcast (tree order preserved).
  template <class T>
  void allreduce_sum(const T* send, T* recv, index_t count) {
    reduce_sum(send, recv, count, 0);
    broadcast(recv, count, 0);
  }

 private:
  std::shared_ptr<Hub> hub_;
  index_t rank_ = 0;
};

/// Per-rank view of the full machine: the world group plus the grid
/// row and column subgroups used by the distributed matvec.
struct RankComms {
  index_t world_rank = 0;
  GroupComm world;
  GroupComm grid_row;  ///< ranks sharing this rank's grid row (size p_c)
  GroupComm grid_col;  ///< ranks sharing this rank's grid column (size p_r)
};

/// Spawn `p_rows * p_cols` rank threads, build world/row/column
/// groups, and run `body(RankComms&)` on every rank.  The first
/// exception thrown by any rank is rethrown on the caller.
void run_on_grid(index_t p_rows, index_t p_cols,
                 const std::function<void(RankComms&)>& body);

}  // namespace fftmv::comm
