#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cliques/triangle.h"
#include "core/ego_network.h"
#include "gen/barabasi_albert.h"
#include "gen/collaboration.h"
#include "gen/datasets.h"
#include "gen/erdos_renyi.h"
#include "gen/holme_kim.h"
#include "gen/rmat.h"
#include "gen/watts_strogatz.h"
#include "gen/word_association.h"
#include "graph/connectivity.h"

namespace esd::gen {
namespace {

using graph::Edge;
using graph::Graph;
using graph::VertexId;

// ---------------------------------------------------------------------------
// Erdős–Rényi
// ---------------------------------------------------------------------------

TEST(ErdosRenyiTest, GnmExactEdgeCount) {
  Graph g = ErdosRenyiGnm(100, 500, 1);
  EXPECT_EQ(g.NumVertices(), 100u);
  EXPECT_EQ(g.NumEdges(), 500u);
}

TEST(ErdosRenyiTest, GnmClampsToMaxEdges) {
  Graph g = ErdosRenyiGnm(5, 1000, 2);
  EXPECT_EQ(g.NumEdges(), 10u);
}

TEST(ErdosRenyiTest, GnpEdgeCountNearExpectation) {
  Graph g = ErdosRenyiGnp(100, 0.2, 3);
  double expect = 0.2 * 100 * 99 / 2;
  EXPECT_NEAR(static_cast<double>(g.NumEdges()), expect, expect * 0.25);
}

TEST(ErdosRenyiTest, DeterministicBySeed) {
  EXPECT_EQ(ErdosRenyiGnm(50, 200, 7).Edges(),
            ErdosRenyiGnm(50, 200, 7).Edges());
  EXPECT_NE(ErdosRenyiGnm(50, 200, 7).Edges(),
            ErdosRenyiGnm(50, 200, 8).Edges());
}

// ---------------------------------------------------------------------------
// Barabási–Albert / Holme–Kim
// ---------------------------------------------------------------------------

TEST(BarabasiAlbertTest, SizeAndConnectivity) {
  Graph g = BarabasiAlbert(500, 3, 11);
  EXPECT_EQ(g.NumVertices(), 500u);
  // m = seed clique + 3 per additional vertex.
  EXPECT_EQ(g.NumEdges(), 6u + (500u - 4) * 3);
  EXPECT_TRUE(graph::IsConnected(g));
}

TEST(BarabasiAlbertTest, ProducesHubs) {
  Graph g = BarabasiAlbert(2000, 2, 13);
  // Preferential attachment: max degree far above the mean (4).
  EXPECT_GT(g.MaxDegree(), 40u);
}

TEST(BarabasiAlbertTest, DegenerateInputs) {
  EXPECT_EQ(BarabasiAlbert(0, 3, 1).NumVertices(), 0u);
  EXPECT_EQ(BarabasiAlbert(10, 0, 1).NumEdges(), 0u);
}

TEST(HolmeKimTest, TriadStepRaisesClustering) {
  Graph flat = BarabasiAlbert(1500, 4, 17);
  Graph clustered = HolmeKim(1500, 4, 0.8, 17);
  EXPECT_GT(cliques::GlobalClusteringCoefficient(clustered),
            2 * cliques::GlobalClusteringCoefficient(flat));
}

TEST(HolmeKimTest, ConnectedAndSized) {
  Graph g = HolmeKim(800, 5, 0.5, 19);
  EXPECT_EQ(g.NumVertices(), 800u);
  EXPECT_TRUE(graph::IsConnected(g));
  EXPECT_GT(g.NumEdges(), 800u * 4);
}

// ---------------------------------------------------------------------------
// Watts–Strogatz
// ---------------------------------------------------------------------------

TEST(WattsStrogatzTest, LatticeWithoutRewiring) {
  Graph g = WattsStrogatz(50, 4, 0.0, 23);
  EXPECT_EQ(g.NumEdges(), 100u);  // n * k/2
  for (VertexId v = 0; v < 50; ++v) EXPECT_EQ(g.Degree(v), 4u);
}

TEST(WattsStrogatzTest, RewiringKeepsEdgeCount) {
  Graph g = WattsStrogatz(100, 6, 0.3, 29);
  EXPECT_EQ(g.NumEdges(), 300u);
}

TEST(WattsStrogatzTest, FullRewireBreaksLattice) {
  Graph g = WattsStrogatz(200, 4, 1.0, 31);
  // A pure ring lattice has clustering 0.5 at k=4; heavy rewiring destroys
  // most of it.
  EXPECT_LT(cliques::GlobalClusteringCoefficient(g), 0.2);
}

// ---------------------------------------------------------------------------
// R-MAT
// ---------------------------------------------------------------------------

TEST(RmatTest, SizeAndSkew) {
  RmatParams p;
  p.scale = 12;
  p.edge_factor = 4.0;
  Graph g = Rmat(p, 37);
  EXPECT_EQ(g.NumVertices(), 4096u);
  EXPECT_GT(g.NumEdges(), 10000u);
  // Skewed parameters concentrate edges on low-id vertices.
  EXPECT_GT(g.MaxDegree(), 100u);
}

TEST(RmatTest, DeterministicBySeed) {
  RmatParams p;
  p.scale = 10;
  EXPECT_EQ(Rmat(p, 5).Edges(), Rmat(p, 5).Edges());
}

// ---------------------------------------------------------------------------
// Collaboration (DBLP-like)
// ---------------------------------------------------------------------------

TEST(CollaborationTest, ShapeAndAnnotations) {
  CollaborationParams p;
  p.num_authors = 3000;
  p.num_papers = 4000;
  p.num_communities = 10;
  CollaborationGraph c = GenerateCollaboration(p, 43);
  EXPECT_EQ(c.graph.NumVertices(), 3000u);
  EXPECT_EQ(c.community.size(), 3000u);
  EXPECT_EQ(c.author_names.size(), 3000u);
  EXPECT_EQ(c.planted_bridges.size(), p.num_bridge_pairs);
  EXPECT_EQ(c.planted_barbells.size(), p.num_barbells);
  // Co-authorship graphs are triangle-rich.
  EXPECT_GT(cliques::GlobalClusteringCoefficient(c.graph), 0.1);
}

TEST(CollaborationTest, PlantedBridgesExistWithManyContexts) {
  CollaborationParams p;
  p.num_authors = 2000;
  p.num_papers = 2500;
  CollaborationGraph c = GenerateCollaboration(p, 47);
  for (const Edge& e : c.planted_bridges) {
    EXPECT_TRUE(c.graph.HasEdge(e.u, e.v));
    EXPECT_EQ(graph::CountCommonNeighbors(c.graph, e.u, e.v),
              p.contexts_per_bridge * p.authors_per_context);
  }
}

TEST(CollaborationTest, PlantedBarbellsAreWeakTies) {
  CollaborationParams p;
  p.num_authors = 2000;
  p.num_papers = 2500;
  CollaborationGraph c = GenerateCollaboration(p, 53);
  for (const Edge& e : c.planted_barbells) {
    EXPECT_TRUE(c.graph.HasEdge(e.u, e.v));
    EXPECT_EQ(graph::CountCommonNeighbors(c.graph, e.u, e.v), 0u);
  }
}

// ---------------------------------------------------------------------------
// Word association
// ---------------------------------------------------------------------------

TEST(WordAssociationTest, PlantedPairsPresent) {
  WordAssociationParams p;
  p.background_words = 500;
  WordAssociationGraph w = GenerateWordAssociation(p, 59);
  EXPECT_EQ(w.words.size(), w.graph.NumVertices());
  ASSERT_FALSE(w.planted_pairs.empty());
  for (const Edge& e : w.planted_pairs) EXPECT_TRUE(w.graph.HasEdge(e.u, e.v));
  EXPECT_NE(w.Find("bank"), UINT32_MAX);
  EXPECT_NE(w.Find("money"), UINT32_MAX);
  EXPECT_EQ(w.Find("not-a-word"), UINT32_MAX);
}

TEST(WordAssociationTest, SensesAreEgoComponents) {
  WordAssociationParams p;
  p.background_words = 500;
  WordAssociationGraph w = GenerateWordAssociation(p, 61);
  VertexId bank = w.Find("bank");
  VertexId money = w.Find("money");
  // Fig. 13 shape: the bank–money ego-network splits into one component per
  // planted sense.
  EXPECT_EQ(core::EgoComponents(w.graph, bank, money).size(),
            w.ground_truth[0].senses.size());
}

// ---------------------------------------------------------------------------
// Dataset registry
// ---------------------------------------------------------------------------

TEST(DatasetsTest, AllNamesLoadAtTinyScale) {
  for (const std::string& name : StandardDatasetNames()) {
    Dataset d = LoadStandardDataset(name, 0.05);
    EXPECT_EQ(d.name, name);
    EXPECT_GT(d.graph.NumVertices(), 0u) << name;
    EXPECT_GT(d.graph.NumEdges(), 0u) << name;
  }
}

TEST(DatasetsTest, StatsMatchGraph) {
  Dataset d = LoadStandardDataset("youtube-s", 0.05);
  DatasetStats s = ComputeStats(d.graph);
  EXPECT_EQ(s.n, d.graph.NumVertices());
  EXPECT_EQ(s.m, d.graph.NumEdges());
  EXPECT_EQ(s.max_degree, d.graph.MaxDegree());
  EXPECT_GE(s.max_degree, s.degeneracy);
}

TEST(DatasetsTest, DeterministicAcrossCalls) {
  Dataset a = LoadStandardDataset("pokec-s", 0.05);
  Dataset b = LoadStandardDataset("pokec-s", 0.05);
  EXPECT_EQ(a.graph.Edges(), b.graph.Edges());
}

}  // namespace
}  // namespace esd::gen
