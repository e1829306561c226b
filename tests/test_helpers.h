#ifndef ESD_TESTS_TEST_HELPERS_H_
#define ESD_TESTS_TEST_HELPERS_H_

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <numeric>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/esd_index.h"
#include "core/frozen_index.h"
#include "core/index_io.h"
#include "core/naive_topk.h"
#include "core/topk_result.h"
#include "gen/erdos_renyi.h"
#include "gen/holme_kim.h"
#include "graph/builder.h"
#include "graph/graph.h"
#include "graph/orientation.h"
#include "util/rng.h"

namespace esd::test {

/// A multiset view (EdgeSizeTable::EdgeSizes) as a vector, for EXPECT_EQ.
inline std::vector<uint32_t> Values(std::span<const uint32_t> values) {
  return {values.begin(), values.end()};
}

/// Flattened image of an EsdIndex: c -> ordered (score, edge) entries.
using IndexImage =
    std::map<uint32_t, std::vector<std::pair<uint32_t, graph::EdgeId>>>;

inline IndexImage ImageOf(const core::EsdIndex& index) {
  IndexImage image;
  index.ForEachList([&image](uint32_t c, const core::EsdIndex::List& list) {
    auto& entries = image[c];
    list.ForEachInOrder([&entries](const core::EsdIndex::Entry& e) {
      entries.emplace_back(e.score, e.e);
      return true;
    });
  });
  return image;
}

/// Asserts two indexes have identical lists (same C, same ordered entries).
inline void ExpectIndexesEqual(const core::EsdIndex& a,
                               const core::EsdIndex& b) {
  EXPECT_EQ(ImageOf(a), ImageOf(b));
  EXPECT_EQ(a.NumEntries(), b.NumEntries());
}

/// Native-order bytes of one field, for hand-crafting file images.
inline std::string U32Bytes(uint32_t v) {
  return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
}
inline std::string U64Bytes(uint64_t v) {
  return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Persists a treap index the one way the repo supports — Freeze, then the
/// frozen file format — and loads it back through Thaw, checking the scorer
/// stamp on the way in.
inline core::EsdIndex TreapFileRoundTrip(const core::EsdIndex& index) {
  std::stringstream buffer;
  std::string error;
  EXPECT_TRUE(core::SerializeFrozenIndex(core::Freeze(index), buffer, &error))
      << error;
  core::FrozenEsdIndex frozen;
  const core::IndexIoResult res =
      core::DeserializeFrozenIndex(buffer, &frozen, index.Scorer());
  EXPECT_TRUE(res) << res.message;
  return core::Thaw(frozen);
}

/// Checks the EsdIndex invariant from first principles: every list H(c)
/// contains exactly the edges with max component >= c, keyed by the score
/// at threshold c, and C is exactly the set of occurring sizes.
/// `sizes_of(e)` must return edge e's sorted component sizes; `edge_ids`
/// the live edge ids.
template <typename SizesFn>
void ExpectIndexInvariant(const core::EsdIndex& index,
                          const std::vector<graph::EdgeId>& edge_ids,
                          SizesFn&& sizes_of) {
  std::map<uint32_t, std::vector<std::pair<uint32_t, graph::EdgeId>>> want;
  std::set<uint32_t> all_sizes;
  for (graph::EdgeId e : edge_ids) {
    const auto& sizes = sizes_of(e);
    for (uint32_t s : sizes) all_sizes.insert(s);
  }
  for (uint32_t c : all_sizes) {
    auto& list = want[c];
    for (graph::EdgeId e : edge_ids) {
      const auto& sizes = sizes_of(e);
      if (sizes.empty() || sizes.back() < c) continue;
      uint32_t score = static_cast<uint32_t>(
          sizes.end() - std::lower_bound(sizes.begin(), sizes.end(), c));
      list.emplace_back(score, e);
    }
    std::sort(list.begin(), list.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });
  }
  EXPECT_EQ(ImageOf(index), want);
}

/// Descending score vector of the exact top-k (ground truth).
inline std::vector<uint32_t> NaiveTopScores(const graph::Graph& g, uint32_t k,
                                            uint32_t tau) {
  return core::Scores(core::NaiveTopK(g, k, tau));
}

// ---------------------------------------------------------------------------
// A minimal JSON DOM, enough to schema-check the exporters' output. Not a
// general parser: escapes are validated and skipped, numbers go through
// strtod, and trailing garbage fails the parse.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue* Find(const std::string& key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  bool Parse(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out)) return false;
    SkipWs();
    return p_ == end_;
  }

 private:
  void SkipWs() {
    while (p_ < end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      ++p_;
    }
  }

  bool Literal(const char* word) {
    const char* q = p_;
    for (; *word != '\0'; ++word, ++q) {
      if (q >= end_ || *q != *word) return false;
    }
    p_ = q;
    return true;
  }

  bool ParseString(std::string* out) {
    if (p_ >= end_ || *p_ != '"') return false;
    ++p_;
    out->clear();
    while (p_ < end_ && *p_ != '"') {
      if (*p_ == '\\') {
        ++p_;
        if (p_ >= end_) return false;
        const char c = *p_++;
        if (c == 'u') {
          for (int i = 0; i < 4; ++i, ++p_) {
            if (p_ >= end_ || !std::isxdigit(static_cast<unsigned char>(*p_)))
              return false;
          }
          out->push_back('?');  // code point identity is irrelevant here
        } else if (c == '"' || c == '\\' || c == '/' || c == 'b' ||
                   c == 'f' || c == 'n' || c == 'r' || c == 't') {
          out->push_back(c == 'n' ? '\n' : c);
        } else {
          return false;
        }
      } else {
        out->push_back(*p_++);
      }
    }
    if (p_ >= end_) return false;
    ++p_;  // closing quote
    return true;
  }

  bool ParseValue(JsonValue* out) {
    SkipWs();
    if (p_ >= end_) return false;
    if (*p_ == '{') {
      ++p_;
      out->kind = JsonValue::Kind::kObject;
      SkipWs();
      if (p_ < end_ && *p_ == '}') {
        ++p_;
        return true;
      }
      while (true) {
        SkipWs();
        std::string key;
        if (!ParseString(&key)) return false;
        SkipWs();
        if (p_ >= end_ || *p_ != ':') return false;
        ++p_;
        JsonValue child;
        if (!ParseValue(&child)) return false;
        out->object.emplace(std::move(key), std::move(child));
        SkipWs();
        if (p_ < end_ && *p_ == ',') {
          ++p_;
          continue;
        }
        break;
      }
      if (p_ >= end_ || *p_ != '}') return false;
      ++p_;
      return true;
    }
    if (*p_ == '[') {
      ++p_;
      out->kind = JsonValue::Kind::kArray;
      SkipWs();
      if (p_ < end_ && *p_ == ']') {
        ++p_;
        return true;
      }
      while (true) {
        JsonValue child;
        if (!ParseValue(&child)) return false;
        out->array.push_back(std::move(child));
        SkipWs();
        if (p_ < end_ && *p_ == ',') {
          ++p_;
          continue;
        }
        break;
      }
      if (p_ >= end_ || *p_ != ']') return false;
      ++p_;
      return true;
    }
    if (*p_ == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->str);
    }
    if (Literal("true")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return true;
    }
    if (Literal("false")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      return true;
    }
    if (Literal("null")) {
      out->kind = JsonValue::Kind::kNull;
      return true;
    }
    char* after = nullptr;
    const double v = std::strtod(p_, &after);
    if (after == p_ || after > end_) return false;
    out->kind = JsonValue::Kind::kNumber;
    out->number = v;
    p_ = after;
    return true;
  }

  const char* p_;
  const char* end_;
};

inline graph::Graph Complete(graph::VertexId n) {
  graph::GraphBuilder b(n);
  for (graph::VertexId u = 0; u < n; ++u) {
    for (graph::VertexId v = u + 1; v < n; ++v) b.AddEdge(u, v);
  }
  return b.Build();
}

// Hubs 0..hubs-1 form a clique, each with its own leaves; every leaf also
// knows the next leaf, so the hub edges' ego-networks hold many components.
inline graph::Graph StarWithHubClique(graph::VertexId hubs,
                                      graph::VertexId leaves_per_hub) {
  graph::GraphBuilder b(hubs + hubs * leaves_per_hub);
  for (graph::VertexId h = 0; h < hubs; ++h) {
    for (graph::VertexId h2 = h + 1; h2 < hubs; ++h2) b.AddEdge(h, h2);
    const graph::VertexId first = hubs + h * leaves_per_hub;
    for (graph::VertexId i = 0; i < leaves_per_hub; ++i) {
      b.AddEdge(h, first + i);
      b.AddEdge((h + 1) % hubs, first + i);
      if (i % 3 != 2 && i + 1 < leaves_per_hub) {
        b.AddEdge(first + i, first + i + 1);
      }
    }
  }
  return b.Build();
}

// `g` with its vertex ids shuffled, so id order and degree-rank order
// disagree everywhere.
inline graph::Graph Relabeled(const graph::Graph& g,
                              uint64_t seed) {
  std::vector<graph::VertexId> perm(g.NumVertices());
  std::iota(perm.begin(), perm.end(), 0);
  util::Rng rng(seed);
  std::shuffle(perm.begin(), perm.end(), rng);
  graph::GraphBuilder b(g.NumVertices());
  for (const graph::Edge& e : g.Edges()) b.AddEdge(perm[e.u], perm[e.v]);
  return b.Build();
}

/// A zoo of graph shapes for kernel checks: empty and isolated-vertex
/// graphs, a triangle-free graph, cliques, a star with a hub clique (whose
/// hub edges hold members of degree above |N(uv)|, so both ego-net probe
/// policies fire), random and power-law graphs, and relabelled copies whose
/// id order disagrees with degree order.
inline std::vector<std::pair<std::string, graph::Graph>> Zoo() {
  std::vector<std::pair<std::string, graph::Graph>> zoo;
  zoo.emplace_back("empty", graph::Graph());
  zoo.emplace_back("isolated-only", graph::GraphBuilder(12).Build());
  {
    // Two triangles and a path among isolated vertices.
    graph::GraphBuilder b(20);
    b.AddEdge(0, 1);
    b.AddEdge(1, 2);
    b.AddEdge(0, 2);
    b.AddEdge(7, 8);
    b.AddEdge(8, 9);
    b.AddEdge(7, 9);
    b.AddEdge(12, 13);
    b.AddEdge(13, 14);
    zoo.emplace_back("isolated-vertices", b.Build());
  }
  {
    graph::GraphBuilder b(11);  // K_{5,6}: many edges, no triangle
    for (graph::VertexId u = 0; u < 5; ++u) {
      for (graph::VertexId v = 5; v < 11; ++v) b.AddEdge(u, v);
    }
    zoo.emplace_back("triangle-free", b.Build());
  }
  zoo.emplace_back("K3", Complete(3));
  zoo.emplace_back("K9", Complete(9));
  zoo.emplace_back("star-hub-clique", StarWithHubClique(6, 25));
  zoo.emplace_back("gnp", gen::ErdosRenyiGnp(60, 0.2, 3));
  zoo.emplace_back("holme-kim", gen::HolmeKim(300, 5, 0.6, 4));
  zoo.emplace_back("holme-kim-relabeled",
                   Relabeled(gen::HolmeKim(300, 5, 0.6, 4), 5));
  zoo.emplace_back("star-hub-clique-relabeled",
                   Relabeled(StarWithHubClique(6, 25), 6));
  return zoo;
}

/// Edge e's common neighbourhood split by rank, as EdgeDsuArena lays out
/// e's slice: with e = a→b in the DAG, `upper` holds the w with b ≺ w,
/// `middle` those with a ≺ w ≺ b, `lower` those with w ≺ a; each ascends by
/// vertex id.
struct RankSections {
  std::vector<graph::VertexId> upper, middle, lower;

  std::vector<graph::VertexId> Concatenated() const {
    std::vector<graph::VertexId> out = upper;
    out.insert(out.end(), middle.begin(), middle.end());
    out.insert(out.end(), lower.begin(), lower.end());
    return out;
  }
};

inline RankSections RankSectionsOf(const graph::Graph& g,
                                   const graph::DegreeOrderedDag& dag,
                                   graph::EdgeId e) {
  graph::Edge ab = g.EdgeAt(e);
  if (dag.Less(ab.v, ab.u)) std::swap(ab.u, ab.v);
  RankSections out;
  for (graph::VertexId w : graph::CommonNeighbors(g, ab.u, ab.v)) {
    if (dag.Less(ab.v, w)) {
      out.upper.push_back(w);
    } else if (dag.Less(ab.u, w)) {
      out.middle.push_back(w);
    } else {
      out.lower.push_back(w);
    }
  }
  return out;
}

}  // namespace esd::test

#endif  // ESD_TESTS_TEST_HELPERS_H_
