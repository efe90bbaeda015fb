// In-memory job concatenation — the paper's first Pregel+ API extension.
//
// "For two consecutive jobs j and j', we allow j' to directly obtain input
//  from the output of j in memory ... users define a UDF convert(v) which
//  indicates how to transform an object v of class Vj into (zero or more)
//  input objects of class Vj' ... the generated objects are then shuffled
//  according to their vertex ID" (Sec. II).
//
// Every job over the assembly graph keeps the graph's vertex ids, so here
// the shuffle is the identity: MirrorGraph builds a job graph that is the
// source graph slot for slot. Job partition p holds one vertex per slot of
// source partition p, in slot order, and no id index. A job vertex's slot
// is therefore its source vertex's slot, and a job writes its results back
// by slot, with no id lookup.
//
// A job that sends only by slot needs no index of its own: contig labeling
// reads each neighbor's slot from the source graph's index when its job
// graph is built. A job that sends by id or calls Find on its job graph
// (tip removal, the propagation, SWAP-like and ABySS-like baselines,
// examples/custom_operation.cpp) takes the source's index with CopyIndex;
// the engine aborts a send by id into a partition that holds vertices but
// no index. The ablation bench contrasts in-memory handoff with a
// TextStore round trip.
#ifndef PPA_PREGEL_CONVERT_H_
#define PPA_PREGEL_CONVERT_H_

#include <cstdint>

#include "pregel/graph.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace ppa {

/// Builds the job graph of a job over `src`, one vertex per source slot,
/// with empty id indexes (CopyIndex fills them for a job that needs one).
///
///   make_fn: void(const SrcVertexT&, DstVertexT*)
///
/// make_fn runs once per live source vertex, on one pool task per
/// partition, and fills the job vertex, which arrives default-constructed
/// with the source id already set. A removed source vertex becomes a
/// removed job vertex, which the engine never computes. `src` is not
/// modified.
template <typename DstVertexT, typename SrcVertexT, typename MakeFn>
PartitionedGraph<DstVertexT> MirrorGraph(
    const PartitionedGraph<SrcVertexT>& src, unsigned num_threads,
    MakeFn make_fn) {
  const uint32_t W = src.num_workers();
  PartitionedGraph<DstVertexT> dst(W);
  ThreadPool pool(num_threads);
  pool.Run(W, [&](uint32_t p) {
    const auto& from = src.partition(p);
    auto& to = dst.partition(p);
    to.vertices.resize(from.vertices.size());
    for (size_t slot = 0; slot < from.vertices.size(); ++slot) {
      DstVertexT& v = to.vertices[slot];
      v.id = from.vertices[slot].id;
      if (from.vertices[slot].removed) {
        v.removed = true;
        continue;
      }
      make_fn(from.vertices[slot], &v);
    }
  });
  return dst;
}

/// Gives `dst`, a job graph MirrorGraph built from `src`, a copy of each
/// source partition's id index, for a job that sends by id or calls Find.
template <typename DstVertexT, typename SrcVertexT>
void CopyIndex(const PartitionedGraph<SrcVertexT>& src,
               PartitionedGraph<DstVertexT>* dst) {
  PPA_CHECK(dst->num_workers() == src.num_workers());
  for (uint32_t p = 0; p < src.num_workers(); ++p) {
    dst->partition(p).index = src.partition(p).index;
  }
}

}  // namespace ppa

#endif  // PPA_PREGEL_CONVERT_H_
