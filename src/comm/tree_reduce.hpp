// Pairwise-tree summation shared by DistributedMatvecPlan's grid
// reduction and the tests' thread communicator, so both combine rank
// contributions in the identical ((r0+r1)+(r2+r3))+... order — the
// log2(p)-depth rounding behaviour assumed by the paper's error
// analysis (§3.2.1) and required for the sequential grid apply to
// match its threaded test reference bit for bit.
#pragma once

#include <vector>

#include "util/types.hpp"

namespace fftmv::comm {

template <class T>
T tree_sum_element(const T* const* src, index_t q, index_t i) {
  if (q == 1) return src[0][i];
  const index_t half = (q + 1) / 2;
  return tree_sum_element(src, half, i) + tree_sum_element(src + half, q - half, i);
}

/// dst[i] = pairwise-tree sum over contributions[r][i].
template <class T>
void tree_reduce(const std::vector<const T*>& contributions, T* dst,
                 index_t count) {
  const auto q = static_cast<index_t>(contributions.size());
  for (index_t i = 0; i < count; ++i) {
    dst[i] = tree_sum_element(contributions.data(), q, i);
  }
}

}  // namespace fftmv::comm
