#ifndef RELGRAPH_TENSOR_GEMM_DISPATCH_H_
#define RELGRAPH_TENSOR_GEMM_DISPATCH_H_

#include <cstdint>

#include "core/parallel.h"

namespace relgraph {

/// GEMMs with fewer than this many multiply-adds (m*n*k) run on the
/// calling thread: pool synchronization would dominate on the small
/// matrices that make up most autograd glue. Larger ones split over chunks
/// of kGemmRowGrain output rows. Every route produces identical bits, so
/// both are pure scheduling knobs, shared by the fp32 and low-precision
/// GEMMs.
inline constexpr int64_t kGemmSerialFlops = 1 << 15;
inline constexpr int64_t kGemmRowGrain = 8;

/// Counts one GEMM and its FLOPs: `gemm_parallel_total` when its row
/// chunks ran as a pool region, `gemm_serial_total` when they ran on the
/// calling thread.
void NoteGemmDispatch(int64_t m, int64_t n, int64_t k, bool pooled);

/// Runs row_chunk(i0, i1) over the output rows [0, m) of an (m x k) by
/// (k x n) GEMM and counts the route actually taken. Above the size
/// threshold the rows still run on the calling thread when ParallelFor
/// does: inside another region's chunk or beside a busy pool.
template <typename RowChunk>
void RunGemmRows(int64_t m, int64_t n, int64_t k, const RowChunk& row_chunk) {
  bool pooled = false;
  if (m * n * k < kGemmSerialFlops) {
    row_chunk(0, m);
  } else {
    pooled = ParallelFor(0, m, kGemmRowGrain, row_chunk);
  }
  NoteGemmDispatch(m, n, k, pooled);
}

}  // namespace relgraph

#endif  // RELGRAPH_TENSOR_GEMM_DISPATCH_H_
