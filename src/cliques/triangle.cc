#include "cliques/triangle.h"

namespace esd::cliques {

using graph::DegreeOrderedDag;
using graph::EdgeId;
using graph::Graph;
using graph::VertexId;

uint64_t CountTriangles(const Graph& g) {
  DegreeOrderedDag dag(g);
  uint64_t count = 0;
  ForEachTriangle(dag, [&count](const Triangle&) { ++count; });
  return count;
}

std::vector<uint32_t> EdgeSupport(const Graph& g) {
  return EdgeSupport(DegreeOrderedDag(g));
}

std::vector<uint32_t> EdgeSupport(const DegreeOrderedDag& dag) {
  std::vector<uint32_t> support(dag.NumEdges(), 0);
  ForEachTriangle(dag, [&support](const Triangle& t) {
    ++support[t.uv];
    ++support[t.uw];
    ++support[t.vw];
  });
  return support;
}

double GlobalClusteringCoefficient(const Graph& g) {
  uint64_t wedges = 0;
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    uint64_t d = g.Degree(u);
    wedges += d * (d - 1) / 2;
  }
  if (wedges == 0) return 0.0;
  return 3.0 * static_cast<double>(CountTriangles(g)) /
         static_cast<double>(wedges);
}

}  // namespace esd::cliques
