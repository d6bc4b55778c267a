#include "graph/visit_table.hpp"

namespace meloppr::graph {

VisitTable& VisitTable::for_thread(std::size_t num_nodes) {
  thread_local VisitTable table;
  table.reset(num_nodes);
  return table;
}

void VisitTable::reset(std::size_t num_nodes) {
  if (entries_.size() < num_nodes) entries_.resize(num_nodes);
  ++epoch_;
  if (epoch_ == 0) {
    // Wrapped: a stamp left from 2^32 traversals ago would alias the new
    // epoch. Stamp 0 is never an epoch, so zeroing retires every entry.
    for (Entry& e : entries_) e.stamp = 0;
    epoch_ = 1;
  }
}

}  // namespace meloppr::graph
