// Copyright 2026 The QPGC Authors.
//
// Shared helpers for the test suite: structural equivalence of compression
// artifacts up to class renumbering (incremental maintenance must reproduce
// the batch result exactly, but class ids are arbitrary).

#ifndef QPGC_TESTS_TEST_UTIL_H_
#define QPGC_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/pattern_scheme.h"
#include "reach/compress_r.h"

namespace qpgc {

// Maps classes of `a` onto classes of `b` by shared members; fails the
// current test with a diagnostic if the partitions differ.
inline bool MatchClasses(const std::vector<std::vector<NodeId>>& a_members,
                         const std::vector<NodeId>& b_class_of,
                         const std::vector<std::vector<NodeId>>& b_members,
                         std::vector<NodeId>& a_to_b) {
  a_to_b.assign(a_members.size(), kInvalidNode);
  for (size_t c = 0; c < a_members.size(); ++c) {
    if (a_members[c].empty()) {
      ADD_FAILURE() << "class " << c << " empty";
      return false;
    }
    const NodeId image = b_class_of[a_members[c][0]];
    if (a_members[c] != b_members[image]) {
      ADD_FAILURE() << "class " << c << " has different member set";
      return false;
    }
    a_to_b[c] = image;
  }
  return true;
}

// Full structural equivalence of two reachability compressions (partition,
// cyclic flags, ranks, and the reduced edge set — unique on a DAG).
inline void ExpectEquivalentReachCompression(const ReachCompression& a,
                                             const ReachCompression& b) {
  ASSERT_EQ(a.node_map.size(), b.node_map.size());
  ASSERT_EQ(a.gr->num_nodes(), b.gr->num_nodes()) << "class counts differ";
  std::vector<NodeId> a_to_b;
  if (!MatchClasses(a.members, b.node_map, b.members, a_to_b)) return;
  for (NodeId c = 0; c < a.gr->num_nodes(); ++c) {
    EXPECT_EQ(a.cyclic[c], b.cyclic[a_to_b[c]]) << "cyclic flag, class " << c;
    EXPECT_EQ(a.ranks[c], b.ranks[a_to_b[c]]) << "rank, class " << c;
  }
  ASSERT_EQ(a.gr->num_edges(), b.gr->num_edges()) << "edge counts differ";
  a.gr->ForEachEdge([&](NodeId c, NodeId d) {
    EXPECT_TRUE(b.gr->HasEdge(a_to_b[c], a_to_b[d]))
        << "edge (" << c << "," << d << ") missing in counterpart";
  });
}

// Full structural equivalence of two pattern compressions (partition,
// labels, quotient edges).
inline void ExpectEquivalentPatternCompression(const PatternCompression& a,
                                               const PatternCompression& b) {
  ASSERT_EQ(a.node_map.size(), b.node_map.size());
  ASSERT_EQ(a.gr->num_nodes(), b.gr->num_nodes()) << "block counts differ";
  std::vector<NodeId> a_to_b;
  if (!MatchClasses(a.members, b.node_map, b.members, a_to_b)) return;
  for (NodeId c = 0; c < a.gr->num_nodes(); ++c) {
    EXPECT_EQ(a.gr->label(c), b.gr->label(a_to_b[c])) << "label, block " << c;
  }
  ASSERT_EQ(a.gr->num_edges(), b.gr->num_edges()) << "edge counts differ";
  a.gr->ForEachEdge([&](NodeId c, NodeId d) {
    EXPECT_TRUE(b.gr->HasEdge(a_to_b[c], a_to_b[d]))
        << "edge (" << c << "," << d << ") missing in counterpart";
  });
}

}  // namespace qpgc

#endif  // QPGC_TESTS_TEST_UTIL_H_
