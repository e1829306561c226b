#include "graph/connectivity.h"

namespace esd::graph {

Components ConnectedComponents(const Graph& g) {
  const VertexId n = g.NumVertices();
  Components out;
  out.label.assign(n, UINT32_MAX);
  std::vector<VertexId> queue;
  for (VertexId s = 0; s < n; ++s) {
    if (out.label[s] != UINT32_MAX) continue;
    uint32_t c = static_cast<uint32_t>(out.size.size());
    out.size.push_back(0);
    out.label[s] = c;
    queue.assign(1, s);
    while (!queue.empty()) {
      VertexId u = queue.back();
      queue.pop_back();
      ++out.size[c];
      for (VertexId w : g.Neighbors(u)) {
        if (out.label[w] == UINT32_MAX) {
          out.label[w] = c;
          queue.push_back(w);
        }
      }
    }
  }
  return out;
}

bool IsConnected(const Graph& g) {
  if (g.NumVertices() <= 1) return true;
  return ConnectedComponents(g).NumComponents() == 1;
}

}  // namespace esd::graph
