// Communication layer tests: process grid mapping, thread-backed
// collectives, tree-reduction ordering, the alpha-beta cost model and
// the communication-aware partitioner (§2.4 / §3.7 of [44]).
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <utility>

#include "comm/cost_model.hpp"
#include "comm/partitioner.hpp"
#include "comm/process_grid.hpp"
#include "comm/tree_reduce.hpp"
#include "support/thread_comm.hpp"

namespace fftmv::comm {
namespace {

// ------------------------------------------------------ process grid
TEST(ProcessGrid, ColumnMajorNumbering) {
  const ProcessGrid g(2, 3);
  EXPECT_EQ(g.size(), 6);
  EXPECT_EQ(g.rank_of(0, 0), 0);
  EXPECT_EQ(g.rank_of(1, 0), 1);
  EXPECT_EQ(g.rank_of(0, 1), 2);
  EXPECT_EQ(g.rank_of(1, 2), 5);
  for (index_t r = 0; r < g.size(); ++r) {
    EXPECT_EQ(g.rank_of(g.row_of(r), g.col_of(r)), r);
  }
}

TEST(ProcessGrid, Validation) {
  EXPECT_THROW(ProcessGrid(0, 4), std::invalid_argument);
  EXPECT_THROW(ProcessGrid(2, -1), std::invalid_argument);
  EXPECT_THROW(ProcessGrid(2, 2).rank_of(2, 0), std::out_of_range);
}

// ------------------------------------------------------- tree reduce
TEST(TreeReduce, PairwiseOrder) {
  // ((a+b)+(c+d)) + e for five contributors.
  const double a[] = {1.0}, b[] = {2.0}, c[] = {4.0}, d[] = {8.0}, e[] = {16.0};
  std::vector<const double*> src{a, b, c, d, e};
  double out = 0;
  tree_reduce(src, &out, 1);
  EXPECT_DOUBLE_EQ(out, 31.0);
}

TEST(TreeReduce, MatchesRoundingOfExplicitTree) {
  // Construct values where tree and sequential order differ in float.
  std::vector<float> vals{1e8f, 1.0f, 1.0f, 1e8f};
  std::vector<const float*> src;
  for (auto& v : vals) src.push_back(&v);
  float tree_out = 0;
  tree_reduce(src, &tree_out, 1);
  const float expect = (vals[0] + vals[1]) + (vals[2] + vals[3]);
  EXPECT_EQ(tree_out, expect);
}

// ----------------------------------------------------- thread comms
TEST(ThreadComm, WorldBroadcast) {
  run_on_grid(2, 2, [](RankComms& comms) {
    std::vector<double> buf(16, 0.0);
    if (comms.world_rank == 0) {
      for (int i = 0; i < 16; ++i) buf[static_cast<std::size_t>(i)] = i * 1.5;
    }
    comms.world.broadcast(buf.data(), 16, 0);
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(buf[static_cast<std::size_t>(i)], i * 1.5);
    }
  });
}

TEST(ThreadComm, ReduceSumToRoot) {
  run_on_grid(1, 4, [](RankComms& comms) {
    std::vector<double> send(8, static_cast<double>(comms.world_rank + 1));
    std::vector<double> recv(8, -1.0);
    comms.world.reduce_sum(send.data(), recv.data(), 8, 0);
    if (comms.world_rank == 0) {
      for (double v : recv) EXPECT_EQ(v, 10.0);  // 1+2+3+4
    }
  });
}

TEST(ThreadComm, AllReduce) {
  run_on_grid(3, 1, [](RankComms& comms) {
    double v = static_cast<double>(comms.world_rank);
    double out = 0;
    comms.world.allreduce_sum(&v, &out, 1);
    EXPECT_EQ(out, 3.0);
  });
}

TEST(ThreadComm, RowAndColumnSubgroups) {
  // On a 2x3 grid: row groups have size 3 (indexed by column), column
  // groups size 2 (indexed by row).
  run_on_grid(2, 3, [](RankComms& comms) {
    EXPECT_EQ(comms.grid_row.size(), 3);
    EXPECT_EQ(comms.grid_col.size(), 2);
    const ProcessGrid g(2, 3);
    EXPECT_EQ(comms.grid_row.rank(), g.col_of(comms.world_rank));
    EXPECT_EQ(comms.grid_col.rank(), g.row_of(comms.world_rank));

    // Column reduce: ranks of one column sum their row index + 1.
    double send = static_cast<double>(comms.grid_col.rank() + 1);
    double recv = 0;
    comms.grid_col.reduce_sum(&send, &recv, 1, 0);
    if (comms.grid_col.rank() == 0) {
      EXPECT_EQ(recv, 3.0);  // 1+2
    }

    // Row broadcast from column 0.
    double rowval = comms.grid_row.rank() == 0
                        ? 100.0 + static_cast<double>(comms.grid_col.rank())
                        : -1.0;
    comms.grid_row.broadcast(&rowval, 1, 0);
    EXPECT_EQ(rowval, 100.0 + static_cast<double>(comms.grid_col.rank()));
  });
}

TEST(ThreadComm, SingleRankGroupsAreNoOps) {
  run_on_grid(1, 1, [](RankComms& comms) {
    double v = 42.0, out = 0.0;
    comms.world.broadcast(&v, 1, 0);
    comms.world.reduce_sum(&v, &out, 1, 0);
    EXPECT_EQ(v, 42.0);
    EXPECT_EQ(out, 42.0);
  });
}

TEST(ThreadComm, PropagatesRankExceptions) {
  EXPECT_THROW(run_on_grid(1, 2,
                           [](RankComms& comms) {
                             // Both ranks throw, so no barrier deadlock.
                             throw std::runtime_error(
                                 "rank failure " +
                                 std::to_string(comms.world_rank));
                           }),
               std::runtime_error);
}

TEST(ThreadComm, ManyIterationsStayCoherent) {
  run_on_grid(2, 2, [](RankComms& comms) {
    for (int round = 0; round < 50; ++round) {
      double v = static_cast<double>(comms.world_rank + round);
      double sum = 0;
      comms.world.allreduce_sum(&v, &sum, 1);
      EXPECT_EQ(sum, 6.0 + 4.0 * round);
    }
  });
}

// -------------------------------------------------------- cost model
TEST(CommCost, ZeroForSingleRank) {
  const CommCostModel net(NetworkSpec::frontier());
  EXPECT_EQ(net.broadcast_time(1, 1e6, true), 0.0);
  EXPECT_EQ(net.reduce_time(1, 1e9, false), 0.0);
}

TEST(CommCost, MonotoneInRanksAndBytes) {
  const CommCostModel net(NetworkSpec::frontier());
  double prev = 0;
  for (index_t q : {2, 8, 64, 512, 4096}) {
    const double t = net.reduce_time(q, 8e5, false);
    EXPECT_GT(t, prev);
    prev = t;
  }
  EXPECT_GT(net.broadcast_time(8, 4e7, true), net.broadcast_time(8, 4e6, true));
}

TEST(CommCost, LargeIntraNodeBeatsInterNode) {
  const CommCostModel net(NetworkSpec::frontier());
  EXPECT_LT(net.broadcast_time(8, 3.2e8, true),
            net.broadcast_time(8, 3.2e8, false));
}

TEST(CommCost, SmallMessagesAreLatencyBound) {
  // §4.2.2: buffers at 100 GB/s are latency bound — halving the bytes
  // of a small message barely changes the time.
  const CommCostModel net(NetworkSpec::frontier());
  const double full = net.reduce_time(4096, 8e5, false);
  const double half = net.reduce_time(4096, 4e5, false);
  EXPECT_GT(half / full, 0.95);
}

TEST(CommCost, MatvecCollectivesFollowGridRoles) {
  // Forward broadcasts over the grid column (p_rows contiguous ranks:
  // intra-node iff p_rows <= node_size) and reduces over the grid row
  // (p_cols ranks strided by p_rows: intra-node only on a single-row
  // grid that fits a node); the adjoint swaps the two.  Distinct
  // payloads show a swapped byte count.
  const CommCostModel net(NetworkSpec::frontier());
  const index_t node = net.spec().node_size;
  const double bcast_bytes = 3.2e7;
  const double reduce_bytes = 6.4e6;
  for (const auto& [p_rows, p_cols] :
       {std::pair<index_t, index_t>{1, 8}, {2, 4}, {8, 1}, {16, 1}}) {
    const bool col_intra = p_rows <= node;
    const bool row_intra = p_rows == 1 && p_cols <= node;
    const auto fwd = net.matvec_collectives(p_rows, p_cols, false, bcast_bytes, reduce_bytes);
    EXPECT_EQ(fwd.broadcast_s, net.broadcast_time(p_rows, bcast_bytes, col_intra));
    EXPECT_EQ(fwd.reduce_s, net.reduce_time(p_cols, reduce_bytes, row_intra));
    const auto adj = net.matvec_collectives(p_rows, p_cols, true, bcast_bytes, reduce_bytes);
    EXPECT_EQ(adj.broadcast_s, net.broadcast_time(p_cols, bcast_bytes, row_intra));
    EXPECT_EQ(adj.reduce_s, net.reduce_time(p_rows, reduce_bytes, col_intra));
  }
  // A 1x8 grid's row fits one node: cheaper than the inter-node tariff.
  EXPECT_LT(net.matvec_collectives(1, 8, false, bcast_bytes, reduce_bytes).reduce_s,
            net.reduce_time(8, reduce_bytes, false));
  // 1-rank groups cost nothing.
  EXPECT_EQ(net.matvec_collectives(1, 8, false, bcast_bytes, reduce_bytes).broadcast_s, 0.0);
  EXPECT_EQ(net.matvec_collectives(8, 1, true, bcast_bytes, reduce_bytes).broadcast_s, 0.0);
  EXPECT_EQ(net.matvec_collectives(1, 1, false, bcast_bytes, reduce_bytes).total(), 0.0);
  EXPECT_EQ(net.matvec_collectives(1, 1, true, bcast_bytes, reduce_bytes).total(), 0.0);
}

// -------------------------------------------------------- partitioner
PartitionProblem paper_problem(index_t p) {
  PartitionProblem prob;
  prob.n_m = 5000 * p;  // weak scaling as in Figure 4
  prob.n_d = 100;
  prob.n_t = 1000;
  return prob;
}

TEST(Partitioner, SingleRowOptimalAtSmallScale) {
  // §2.4: "for ... <~512 GPUs, p_r = 1 and p_c = p will be optimal".
  const CommCostModel net(NetworkSpec::frontier());
  for (index_t p : {8, 16, 64, 256}) {
    const auto best = choose_partition(paper_problem(p), p, net);
    EXPECT_EQ(best.p_rows, 1) << "p=" << p;
    EXPECT_EQ(best.p_cols, p) << "p=" << p;
  }
}

TEST(Partitioner, MultiRowGridsWinAtScale) {
  const CommCostModel net(NetworkSpec::frontier());
  for (index_t p : {2048, 4096}) {
    const auto best = choose_partition(paper_problem(p), p, net);
    EXPECT_GT(best.p_rows, 1) << "p=" << p;
    // Substantially cheaper than the naive 1 x p partition.
    const auto naive = evaluate_partition(paper_problem(p), 1, p, net);
    EXPECT_LT(best.total(), naive.total()) << "p=" << p;
  }
}

TEST(Partitioner, MatchesExhaustiveMinimum) {
  const CommCostModel net(NetworkSpec::frontier());
  for (index_t p : {8, 64, 1024, 4096}) {
    const auto best = choose_partition(paper_problem(p), p, net);
    for (const auto& cand : enumerate_partitions(paper_problem(p), p, net)) {
      EXPECT_LE(best.total(), cand.total())
          << "p=" << p << " cand=" << cand.p_rows << "x" << cand.p_cols;
    }
  }
}

TEST(Partitioner, RowsNeverExceedSensors) {
  const CommCostModel net(NetworkSpec::frontier());
  auto prob = paper_problem(4096);
  prob.n_d = 4;
  for (const auto& cand : enumerate_partitions(prob, 4096, net)) {
    EXPECT_LE(cand.p_rows, 4);
  }
}

TEST(Partitioner, InvalidInputs) {
  const CommCostModel net(NetworkSpec::frontier());
  EXPECT_THROW(enumerate_partitions(paper_problem(8), 0, net),
               std::invalid_argument);
}

}  // namespace
}  // namespace fftmv::comm
