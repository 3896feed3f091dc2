#include "local/engine.hpp"

#include "support/thread_pool.hpp"

namespace padlock {

BallScratch& gather_scratch() {
  // One scratch per thread, living as long as the thread (pool workers keep
  // theirs across run_gather calls; see thread_pool.hpp on worker lifetime).
  thread_local BallScratch scratch;
  return scratch;
}

GatherScratchStats gather_scratch_stats() {
  const BallScratch& s = gather_scratch();
  return {s.slab_growths(), s.slab_capacity()};
}

RoundReport run_gather(const Graph& g, const GatherFn& fn) {
  NodeMap<int> per_node(g, 0);
  // Each chunk touches only its own nodes' slots of per_node, and each node
  // gets a fresh LocalView over the worker's scratch, so the result cannot
  // depend on the schedule.
  parallel_for(0, g.num_nodes(), 0, [&](std::size_t begin, std::size_t end) {
    BallScratch& scratch = gather_scratch();
    scratch.bind(g);
    for (std::size_t v = begin; v < end; ++v) {
      const auto node = static_cast<NodeId>(v);
      LocalView view(g, node, scratch);
      fn(view, node);
      per_node[node] = view.radius();
    }
  });
  return RoundReport::from(std::move(per_node));
}

}  // namespace padlock
