#include "core/sv.h"

#include "pregel/engine.h"

namespace ppa {

RunStats RunSimplifiedSv(PartitionedGraph<SvVertex>& graph,
                         unsigned num_threads, const std::string& job_name) {
  EngineConfig config;
  config.num_threads = num_threads;
  config.job_name = job_name;
  return Engine<SvVertex>(config).Run(graph);
}

}  // namespace ppa
