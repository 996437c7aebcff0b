// Copyright 2026 The QPGC Authors.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "graph/builder.h"
#include "graph/io.h"

namespace qpgc {
namespace {

TEST(BuilderTest, DeduplicatesEdges) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  const Graph g = b.Build();
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(BuilderTest, AutoGrowCreatesNodes) {
  GraphBuilder b;
  b.AddEdgeAutoGrow(5, 2);
  const Graph g = b.Build();
  EXPECT_EQ(g.num_nodes(), 6u);
  EXPECT_TRUE(g.HasEdge(5, 2));
}

TEST(BuilderTest, LabelsSurviveBuild) {
  GraphBuilder b;
  const NodeId u = b.AddNode(10);
  const NodeId v = b.AddNode(20);
  b.AddEdge(u, v);
  const Graph g = b.Build();
  EXPECT_EQ(g.label(u), 10u);
  EXPECT_EQ(g.label(v), 20u);
}

TEST(IoTest, ParseEdgeListWithComments) {
  const auto r = ParseEdgeList("# comment\n0 1\n1 2\n\n2 0\n");
  ASSERT_TRUE(r.ok());
  const Graph& g = r.value();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.HasEdge(2, 0));
}

TEST(IoTest, ParseRejectsGarbage) {
  const auto r = ParseEdgeList("0 1\nnot an edge\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruptData);
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos);
}

TEST(IoTest, ParseRejectsNodeIdOutOfProportion) {
  // One line naming id 4e9 would size the graph at 4e9 nodes; the parser
  // refuses before allocating them.
  const auto huge = ParseEdgeList("0 4000000000\n");
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code(), StatusCode::kCorruptData);
  // The bound is 2^20 + 16 per edge line: one line allows ids below
  // 2^20 + 16, two lines below 2^20 + 32. Comments are not edge lines.
  const auto edge = ParseEdgeList("0 1048591\n");
  ASSERT_TRUE(edge.ok());
  EXPECT_EQ(edge.value().num_nodes(), 1048592u);
  EXPECT_FALSE(ParseEdgeList("0 1048592\n").ok());
  EXPECT_FALSE(ParseEdgeList("# comment\n0 1048592\n").ok());
  EXPECT_FALSE(ParseEdgeList("0 1048608\n1 2\n").ok());
  EXPECT_TRUE(ParseEdgeList("").ok());
}

TEST(IoTest, RoundTripThroughFile) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(3, 0);
  const std::string path = ::testing::TempDir() + "/qpgc_io_test.txt";
  ASSERT_TRUE(SaveEdgeList(g, path).ok());
  const auto r = LoadEdgeList(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), g);
  std::remove(path.c_str());
}

TEST(IoTest, LoadMissingFileFails) {
  const auto r = LoadEdgeList("/nonexistent/path/graph.txt");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(IoTest, LabelsRoundTrip) {
  Graph g(3);
  g.set_label(0, 7);
  g.set_label(1, 8);
  g.set_label(2, 7);
  const std::string path = ::testing::TempDir() + "/qpgc_labels_test.txt";
  ASSERT_TRUE(SaveLabels(g, path).ok());
  Graph h(3);
  ASSERT_TRUE(LoadLabels(h, path).ok());
  EXPECT_EQ(h.label(0), 7u);
  EXPECT_EQ(h.label(1), 8u);
  EXPECT_EQ(h.label(2), 7u);
  std::remove(path.c_str());
}

TEST(IoTest, LabelOutOfRangeRejected) {
  const std::string path = ::testing::TempDir() + "/qpgc_badlabel_test.txt";
  {
    std::ofstream out(path);
    out << "9 1\n";
  }
  Graph g(3);
  EXPECT_FALSE(LoadLabels(g, path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace qpgc
