#include "support/thread_comm.hpp"

#include <exception>
#include <mutex>
#include <thread>

#include "comm/process_grid.hpp"

namespace fftmv::comm {

Hub::Hub(index_t size)
    : size_(size), slots_(static_cast<std::size_t>(size)) {
  if (size <= 0) throw std::invalid_argument("Hub: size must be positive");
  for (auto& s : slots_) s.store(nullptr, std::memory_order_relaxed);
}

void Hub::barrier() {
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == size_) {
    arrived_.store(0, std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_acq_rel);
    generation_.notify_all();
  } else {
    std::uint64_t cur = generation_.load(std::memory_order_acquire);
    while (cur == gen) {
      generation_.wait(cur, std::memory_order_acquire);
      cur = generation_.load(std::memory_order_acquire);
    }
  }
}

void run_on_grid(index_t p_rows, index_t p_cols,
                 const std::function<void(RankComms&)>& body) {
  const ProcessGrid grid(p_rows, p_cols);
  const index_t p = grid.size();

  auto world_hub = std::make_shared<Hub>(p);
  std::vector<std::shared_ptr<Hub>> row_hubs, col_hubs;
  row_hubs.reserve(static_cast<std::size_t>(p_rows));
  col_hubs.reserve(static_cast<std::size_t>(p_cols));
  for (index_t r = 0; r < p_rows; ++r) row_hubs.push_back(std::make_shared<Hub>(p_cols));
  for (index_t c = 0; c < p_cols; ++c) col_hubs.push_back(std::make_shared<Hub>(p_rows));

  std::mutex error_mutex;
  std::exception_ptr first_error;

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(p));
  for (index_t rank = 0; rank < p; ++rank) {
    threads.emplace_back([&, rank] {
      RankComms comms;
      comms.world_rank = rank;
      comms.world = GroupComm(world_hub, rank);
      const index_t row = grid.row_of(rank);
      const index_t col = grid.col_of(rank);
      // Within its grid row the rank is indexed by its column and
      // vice versa.
      comms.grid_row = GroupComm(row_hubs[static_cast<std::size_t>(row)], col);
      comms.grid_col = GroupComm(col_hubs[static_cast<std::size_t>(col)], row);
      try {
        body(comms);
      } catch (...) {
        std::lock_guard lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace fftmv::comm
