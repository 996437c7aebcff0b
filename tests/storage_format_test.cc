// Copyright 2026 The QPGC Authors.
//
// Format stability: a golden v1 artifact is committed under tests/data/ and
// this suite pins both directions of the versioning contract —
//
//   * today's readers must keep answering the golden artifact correctly
//     (hard-coded truths about the fixture graph, both the deserialize and
//     the mmap path), and
//   * readers must hard-reject any other format_version, because silently
//     misparsing a snapshot serves wrong answers.
//
// It also pins writer determinism: loading the golden artifact and saving
// it again must be byte-identical. If a layout change breaks that, bump
// kFormatVersion (storage/format.h) and regenerate the golden:
//
//   qpgc_tool save tests/data/golden_graph.edges
//       tests/data/golden_graph.labels tests/data/golden_v<N>.snap
//
// (one command; wrapped here for line width).

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pattern/pattern.h"
#include "storage/format.h"
#include "storage/mmap_snapshot.h"
#include "storage/snapshot_io.h"

namespace qpgc::storage {
namespace {

constexpr LoadOptions kVerifyAll{/*verify=*/true};

std::string GoldenPath() {
  return std::string(QPGC_TEST_DATA_DIR) + "/golden_v1.snap";
}

std::vector<std::byte> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  std::vector<std::byte> bytes(raw.size());
  std::memcpy(bytes.data(), raw.data(), raw.size());
  return bytes;
}

// The fixture graph (tests/data/golden_graph.edges): cycle {0,1,2} -> cycle
// {3,4,5}, disjoint chain 6 -> 7 -> 8 -> 9. Labels A=0, B=1, C=2.
template <typename Reader>
void ExpectGoldenAnswers(const Reader& snap) {
  EXPECT_EQ(snap.original_num_nodes(), 10u);
  // Within and across the two cycles.
  EXPECT_TRUE(snap.Reach(0, 2));
  EXPECT_TRUE(snap.Reach(2, 1));
  EXPECT_TRUE(snap.Reach(0, 5));
  EXPECT_FALSE(snap.Reach(5, 0));
  // Along and against the chain.
  EXPECT_TRUE(snap.Reach(6, 9));
  EXPECT_FALSE(snap.Reach(9, 6));
  // Across components, and the reflexive shortcut.
  EXPECT_FALSE(snap.Reach(0, 9));
  EXPECT_FALSE(snap.Reach(6, 0));
  EXPECT_TRUE(snap.Reach(9, 9));

  // A -> B simulation edge (0 -> 1, 2 -> 3, 6 -> 7 all witness it).
  PatternQuery ab;
  const uint32_t a = ab.AddNode(0);
  const uint32_t b = ab.AddNode(1);
  ab.AddEdge(a, b, 1);
  EXPECT_TRUE(snap.BooleanMatch(ab));
  const MatchResult ab_match = snap.Match(ab);
  ASSERT_TRUE(ab_match.matched);
  EXPECT_EQ(ab_match.match_sets[a], (std::vector<NodeId>{0, 2, 6}));
  // b has no out-edges, so every B node is in the greatest fixpoint.
  EXPECT_EQ(ab_match.match_sets[b], (std::vector<NodeId>{1, 3, 7, 9}));

  // C -> A within 2 hops: no C node reaches an A node that fast.
  PatternQuery ca;
  const uint32_t c = ca.AddNode(2);
  const uint32_t a2 = ca.AddNode(0);
  ca.AddEdge(c, a2, 2);
  EXPECT_FALSE(snap.BooleanMatch(ca));

  // A label no fixture node carries.
  PatternQuery absent;
  absent.AddNode(7);
  EXPECT_FALSE(snap.BooleanMatch(absent));
}

TEST(StorageFormatTest, GoldenHeaderIdentity) {
  const std::vector<std::byte> bytes = ReadBytes(GoldenPath());
  ASSERT_GE(bytes.size(), sizeof(FileHeader));
  const auto parsed = ParseArtifact(bytes, /*verify_payload_checksums=*/true);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const FileHeader& h = parsed.value().header;
  EXPECT_EQ(std::memcmp(h.magic, kMagic, sizeof(kMagic)), 0);
  EXPECT_EQ(h.format_version, kFormatVersion);
  EXPECT_EQ(h.format_version, 1u) << "format changed: regenerate the golden "
                                     "and add a new storage_format_test pin";
  EXPECT_EQ(h.original_num_nodes, 10u);
  EXPECT_EQ(h.num_shards, 1u);
  EXPECT_EQ(h.file_bytes, bytes.size());
}

TEST(StorageFormatTest, GoldenArtifactAnswersBothReaders) {
  const auto loaded = LoadServingSnapshot(GoldenPath(), kVerifyAll);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ExpectGoldenAnswers(*loaded.value().snapshot);

  const auto mapped = MmapSnapshot::Open(GoldenPath(), kVerifyAll);
  ASSERT_TRUE(mapped.ok()) << mapped.status().message();
  ExpectGoldenAnswers(mapped.value());
  // And via the trusted fast path, which skips payload verification.
  const auto trusted = MmapSnapshot::Open(GoldenPath());
  ASSERT_TRUE(trusted.ok()) << trusted.status().message();
  ExpectGoldenAnswers(trusted.value());
}

TEST(StorageFormatTest, ResaveIsByteIdentical) {
  const auto loaded = LoadServingSnapshot(GoldenPath(), kVerifyAll);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  const std::string resaved_path =
      ::testing::TempDir() + "qpgc_golden_resave.snap";
  const Status saved = SaveSnapshot(*loaded.value().snapshot, resaved_path);
  ASSERT_TRUE(saved.ok()) << saved.message();
  const std::vector<std::byte> golden = ReadBytes(GoldenPath());
  const std::vector<std::byte> resaved = ReadBytes(resaved_path);
  std::remove(resaved_path.c_str());
  ASSERT_EQ(resaved.size(), golden.size())
      << "writer layout drifted from the committed golden — bump "
         "kFormatVersion and regenerate (see file comment)";
  EXPECT_EQ(std::memcmp(resaved.data(), golden.data(), golden.size()), 0)
      << "writer bytes drifted from the committed golden — bump "
         "kFormatVersion and regenerate (see file comment)";
}

TEST(StorageFormatTest, ReadersRejectForeignFormatVersions) {
  std::vector<std::byte> mutant = ReadBytes(GoldenPath());
  ASSERT_GE(mutant.size(), sizeof(FileHeader));
  FileHeader h{};
  std::memcpy(&h, mutant.data(), sizeof(FileHeader));
  for (const uint32_t version : {kFormatVersion + 1, 0u, 0x7fffffffu}) {
    h.format_version = version;
    FileHeader zeroed = h;
    zeroed.header_checksum = 0;
    h.header_checksum = Fnv1a64(
        {reinterpret_cast<const std::byte*>(&zeroed), sizeof(FileHeader)});
    std::memcpy(mutant.data(), &h, sizeof(FileHeader));
    const std::string path =
        ::testing::TempDir() + "qpgc_golden_version_mutant.snap";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(mutant.data()),
              static_cast<std::streamsize>(mutant.size()));
    out.close();

    const auto loaded = LoadServingSnapshot(path, kVerifyAll);
    ASSERT_FALSE(loaded.ok()) << "version " << version;
    EXPECT_NE(loaded.status().message().find("format version"),
              std::string::npos)
        << loaded.status().message();
    // The version gate is part of the always-on checks: the trusted mmap
    // fast path must reject too.
    const auto mapped = MmapSnapshot::Open(path);
    ASSERT_FALSE(mapped.ok()) << "version " << version;
    EXPECT_NE(mapped.status().message().find("format version"),
              std::string::npos)
        << mapped.status().message();
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace qpgc::storage
