// In-memory job concatenation — the paper's first Pregel+ API extension.
//
// "For two consecutive jobs j and j', we allow j' to directly obtain input
//  from the output of j in memory ... users define a UDF convert(v) which
//  indicates how to transform an object v of class Vj into (zero or more)
//  input objects of class Vj' ... the generated objects are then shuffled
//  according to their vertex ID" (Sec. II).
//
// ConvertGraph consumes the source graph (vertices of the finished job are
// "then garbage collected") and produces the re-hashed vertex set of the
// next job without touching the filesystem. The ablation bench contrasts
// this with a TextStore round trip.
#ifndef PPA_PREGEL_CONVERT_H_
#define PPA_PREGEL_CONVERT_H_

#include <utility>
#include <vector>

#include "pregel/graph.h"
#include "pregel/mapreduce.h"
#include "util/thread_pool.h"

namespace ppa {

/// Transforms each vertex of `src` into zero or more vertices of the next
/// job's type and re-partitions them by hash of their new IDs.
///
///   convert_fn: void(SrcVertexT&&, std::vector<DstVertexT>&)
///
/// `src` is consumed (moved-from) partition by partition.
template <typename DstVertexT, typename SrcVertexT, typename ConvertFn>
PartitionedGraph<DstVertexT> ConvertGraph(PartitionedGraph<SrcVertexT>&& src,
                                          ConvertFn convert_fn,
                                          unsigned num_threads = 0) {
  const uint32_t W = src.num_workers();
  ThreadPool pool(num_threads == 0 ? ThreadPool::DefaultThreads()
                                   : num_threads);

  // Per source partition, emit routed destination vertices.
  std::vector<std::vector<std::vector<DstVertexT>>> routed(W);
  pool.Run(W, [&](uint32_t p) {
    routed[p].resize(W);
    std::vector<DstVertexT> produced;
    auto& part = src.partition(p);
    for (SrcVertexT& v : part.vertices) {
      if (v.removed) continue;
      produced.clear();
      convert_fn(std::move(v), produced);
      for (DstVertexT& out : produced) {
        routed[p][PartitionOf(out.id, W)].push_back(std::move(out));
      }
    }
    part.vertices.clear();
    part.vertices.shrink_to_fit();
    part.index = {};
  });

  PartitionedGraph<DstVertexT> dst(W);
  for (uint32_t d = 0; d < W; ++d) {
    size_t n = 0;
    for (uint32_t s = 0; s < W; ++s) n += routed[s][d].size();
    dst.partition(d).vertices.reserve(n);
    dst.partition(d).index.Reserve(n);
    for (uint32_t s = 0; s < W; ++s) {
      for (DstVertexT& v : routed[s][d]) {
        dst.AddToPartition(d, std::move(v));
      }
    }
  }
  return dst;
}

}  // namespace ppa

#endif  // PPA_PREGEL_CONVERT_H_
