// Copyright 2026 The QPGC Authors.
//
// Corruption robustness: a snapshot artifact of unknown provenance must
// never crash the reader — every mutation of the byte stream has to come
// back as a clean Status from LoadServingSnapshot / MmapSnapshot::Open
// under full verification (LoadOptions{/*verify=*/true}; the trusted fast path
// deliberately skips payload checks, see storage/mmap_snapshot.h). The
// harness is deterministic: truncation at every section boundary plus a
// fixed ladder of interior lengths, one bit flipped in the header, the
// section table, and every section payload, plus targeted header-field
// lies (magic, version, counts, lengths). Runs under the CI ASan/UBSan
// job, so "no crash" includes "no out-of-bounds read while rejecting".

#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gen/uniform.h"
#include "graph/graph.h"
#include "serve/snapshot_manager.h"
#include "storage/format.h"
#include "storage/mmap_snapshot.h"
#include "storage/snapshot_io.h"

namespace qpgc::storage {
namespace {

constexpr LoadOptions kVerifyAll{/*verify=*/true};

// Per-process scratch path: ctest runs each test case as its own process in
// parallel, and two processes mutating one shared file race (one truncates
// while another has it mmapped — SIGBUS, not a clean Status).
std::string MutantPath() {
  return ::testing::TempDir() + "qpgc_corruption_mutant." +
         std::to_string(static_cast<long>(::getpid())) + ".snap";
}

std::vector<std::byte> SaveToBytes(const SaveOptions& options = {},
                                   Graph g = GenerateUniform(60, 200, 3, 5)) {
  SnapshotManager mgr(std::move(g));
  const auto live = mgr.Acquire();
  const std::string path = MutantPath();
  const Status saved = SaveSnapshot(*live, path, options);
  EXPECT_TRUE(saved.ok()) << saved.message();
  std::ifstream in(path, std::ios::binary);
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  std::vector<std::byte> bytes(raw.size());
  std::memcpy(bytes.data(), raw.data(), raw.size());
  return bytes;
}

void WriteBytes(const std::string& path, std::span<const std::byte> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

// Both readers must reject the mutant with a clean Status (and must not
// crash, which ASan/UBSan turn into hard failures).
void ExpectRejected(std::span<const std::byte> bytes, const char* what) {
  SCOPED_TRACE(what);
  const std::string path = MutantPath();
  WriteBytes(path, bytes);
  const Result<LoadedSnapshot> loaded = LoadServingSnapshot(path, kVerifyAll);
  EXPECT_FALSE(loaded.ok()) << "full deserialize accepted the mutant";
  const Result<MmapSnapshot> mapped = MmapSnapshot::Open(path, kVerifyAll);
  EXPECT_FALSE(mapped.ok()) << "mmap open accepted the mutant";
  std::remove(path.c_str());
}

const FileHeader& HeaderOf(const std::vector<std::byte>& bytes) {
  return *reinterpret_cast<const FileHeader*>(bytes.data());
}

// Rewrites the header checksum after a deliberate header-field lie, so the
// mutant exercises the *semantic* check rather than the checksum. Hashes
// exactly as the writer does: the header bytes with the checksum field
// zeroed.
void RestampHeaderChecksum(std::vector<std::byte>* bytes) {
  FileHeader h{};
  std::memcpy(&h, bytes->data(), sizeof(FileHeader));
  FileHeader zeroed = h;
  zeroed.header_checksum = 0;
  h.header_checksum = Fnv1a64(
      {reinterpret_cast<const std::byte*>(&zeroed), sizeof(FileHeader)});
  std::memcpy(bytes->data(), &h, sizeof(FileHeader));
}

TEST(StorageCorruptionTest, RejectsShortAndEmptyFiles) {
  const std::vector<std::byte> good = SaveToBytes();
  ASSERT_GT(good.size(), sizeof(FileHeader));
  ExpectRejected({good.data(), 0}, "empty file");
  ExpectRejected({good.data(), 1}, "one byte");
  ExpectRejected({good.data(), sizeof(FileHeader) - 1}, "header minus one");
}

TEST(StorageCorruptionTest, RejectsTruncationAtEverySectionBoundary) {
  const std::vector<std::byte> good = SaveToBytes();
  const FileHeader& h = HeaderOf(good);
  std::vector<SectionEntry> table(h.section_count);
  std::memcpy(table.data(), good.data() + sizeof(FileHeader),
              table.size() * sizeof(SectionEntry));
  for (const SectionEntry& entry : table) {
    if (entry.stored_bytes == 0) continue;  // nothing interior to cut
    const std::string what =
        "truncated before end of section kind " + std::to_string(entry.kind);
    // Cut mid-payload: the entry's bounds check (or the total-length stamp)
    // must fire before anything dereferences past EOF.
    const size_t cut = entry.offset + entry.stored_bytes / 2;
    ASSERT_LT(cut, good.size());
    ExpectRejected({good.data(), cut}, what.c_str());
  }
  // A fixed interior ladder, independent of the layout.
  for (const size_t denom : {2u, 3u, 5u, 7u}) {
    ExpectRejected({good.data(), good.size() - good.size() / denom},
                   "interior truncation");
  }
  ExpectRejected({good.data(), good.size() - 1}, "last byte missing");
}

TEST(StorageCorruptionTest, RejectsBitFlipsInHeaderAndTable) {
  const std::vector<std::byte> good = SaveToBytes();
  const size_t table_end = sizeof(FileHeader) +
                           HeaderOf(good).section_count * sizeof(SectionEntry);
  for (size_t at = 0; at < table_end; at += 7) {
    std::vector<std::byte> mutant = good;
    mutant[at] ^= std::byte{0x10};
    ExpectRejected(mutant, ("header/table flip at " + std::to_string(at)).c_str());
  }
}

TEST(StorageCorruptionTest, RejectsBitFlipsInEverySectionPayload) {
  // Cover both layouts: the in-place raw encodings and the varint one.
  for (const bool varint : {false, true}) {
    SaveOptions options;
    options.varint_adjacency = varint;
    const std::vector<std::byte> good = SaveToBytes(options);
    const FileHeader& h = HeaderOf(good);
    std::vector<SectionEntry> table(h.section_count);
    std::memcpy(table.data(), good.data() + sizeof(FileHeader),
                table.size() * sizeof(SectionEntry));
    for (const SectionEntry& entry : table) {
      if (entry.stored_bytes == 0) continue;
      // First, middle, and last byte of every payload.
      for (const size_t at : {entry.offset, entry.offset + entry.stored_bytes / 2,
                              entry.offset + entry.stored_bytes - 1}) {
        std::vector<std::byte> mutant = good;
        mutant[at] ^= std::byte{0x40};
        ExpectRejected(mutant,
                       ("payload flip, kind " + std::to_string(entry.kind) +
                        " at " + std::to_string(at) +
                        (varint ? " (varint)" : ""))
                           .c_str());
      }
    }
  }
}

TEST(StorageCorruptionTest, RejectsBadMagic) {
  std::vector<std::byte> mutant = SaveToBytes();
  mutant[0] = std::byte{'X'};
  ExpectRejected(mutant, "bad magic");
}

TEST(StorageCorruptionTest, RejectsUnknownFormatVersion) {
  std::vector<std::byte> mutant = SaveToBytes();
  FileHeader h = HeaderOf(mutant);
  h.format_version = kFormatVersion + 1;
  std::memcpy(mutant.data(), &h, sizeof(FileHeader));
  RestampHeaderChecksum(&mutant);  // isolate the version check
  const std::string path = MutantPath();
  WriteBytes(path, mutant);
  const Result<MmapSnapshot> mapped = MmapSnapshot::Open(path, kVerifyAll);
  ASSERT_FALSE(mapped.ok());
  EXPECT_NE(mapped.status().message().find("format version"),
            std::string::npos)
      << mapped.status().message();
  std::remove(path.c_str());
}

TEST(StorageCorruptionTest, RejectsHeaderFieldLies) {
  const std::vector<std::byte> good = SaveToBytes();
  struct Lie {
    const char* what;
    void (*apply)(FileHeader&);
  };
  const Lie lies[] = {
      {"section_count zero", [](FileHeader& h) { h.section_count = 0; }},
      {"section_count huge",
       [](FileHeader& h) { h.section_count = 1u << 24; }},
      {"file_bytes short", [](FileHeader& h) { h.file_bytes -= 1; }},
      {"file_bytes long", [](FileHeader& h) { h.file_bytes += 8; }},
      {"original_num_nodes off",
       [](FileHeader& h) { h.original_num_nodes += 1; }},
      {"shard out of range", [](FileHeader& h) { h.shard = h.num_shards; }},
      {"num_shards zero", [](FileHeader& h) { h.num_shards = 0; }},
  };
  for (const Lie& lie : lies) {
    std::vector<std::byte> mutant = good;
    FileHeader h = HeaderOf(mutant);
    lie.apply(h);
    std::memcpy(mutant.data(), &h, sizeof(FileHeader));
    RestampHeaderChecksum(&mutant);
    ExpectRejected(mutant, lie.what);
  }
}

// Each quotient's stored in-direction must be the exact transpose of its
// out-direction. Bumping one in-source keeps every run strictly ascending
// and in range, so only that cross-check sees it (the checksums are
// restamped so the mutant reaches it). Unchecked, the in-edge searches
// (BiBFS, Match's backward sweep) answer from a different graph than the
// out-edge ones.
TEST(StorageCorruptionTest, RejectsInDirectionThatIsNotTheTranspose) {
  const std::vector<std::byte> good =
      SaveToBytes({}, GenerateUniform(400, 900, 3, 5));
  const FileHeader& h = HeaderOf(good);
  std::vector<SectionEntry> table(h.section_count);
  std::memcpy(table.data(), good.data() + sizeof(FileHeader),
              table.size() * sizeof(SectionEntry));
  for (const SectionKind kind :
       {SectionKind::kReachInTargets, SectionKind::kPatternInTargets}) {
    SCOPED_TRACE("section kind " + std::to_string(static_cast<int>(kind)));
    std::vector<SectionEntry> mutant_table = table;
    SectionEntry* entry = nullptr;
    for (SectionEntry& e : mutant_table) {
      if (e.kind == static_cast<uint32_t>(kind)) entry = &e;
    }
    ASSERT_NE(entry, nullptr);
    ASSERT_EQ(entry->encoding, static_cast<uint32_t>(SectionEncoding::kRaw32));
    std::vector<uint32_t> sources(entry->element_count);
    std::memcpy(sources.data(), good.data() + entry->offset,
                sources.size() * sizeof(uint32_t));
    // The first in-source whose successor value is free to take.
    size_t at = 0;
    while (at + 1 < sources.size() && sources[at] + 1 >= sources[at + 1]) {
      ++at;
    }
    ASSERT_LT(at + 1, sources.size()) << "no in-source to bump";
    ++sources[at];

    std::vector<std::byte> mutant = good;
    std::memcpy(mutant.data() + entry->offset, sources.data(),
                sources.size() * sizeof(uint32_t));
    entry->checksum =
        Fnv1a64({mutant.data() + entry->offset, entry->stored_bytes});
    const size_t table_bytes = mutant_table.size() * sizeof(SectionEntry);
    std::memcpy(mutant.data() + sizeof(FileHeader), mutant_table.data(),
                table_bytes);
    FileHeader mutant_header = h;
    mutant_header.table_checksum =
        Fnv1a64({mutant.data() + sizeof(FileHeader), table_bytes});
    std::memcpy(mutant.data(), &mutant_header, sizeof(FileHeader));
    RestampHeaderChecksum(&mutant);
    ExpectRejected(mutant, "in-direction is not the transpose");
  }
}

// The always-on guarantees of the trusted fast path: header, table, and
// length lies are rejected even with all optional verification off.
TEST(StorageCorruptionTest, TrustedOpenStillRejectsHeaderAndTableDamage) {
  const std::vector<std::byte> good = SaveToBytes();
  const std::string path = MutantPath();

  std::vector<std::byte> bad_magic = good;
  bad_magic[3] ^= std::byte{0xFF};
  WriteBytes(path, bad_magic);
  EXPECT_FALSE(MmapSnapshot::Open(path).ok());

  std::vector<std::byte> bad_table = good;
  bad_table[sizeof(FileHeader) + 5] ^= std::byte{0x01};
  WriteBytes(path, bad_table);
  EXPECT_FALSE(MmapSnapshot::Open(path).ok());

  WriteBytes(path, {good.data(), good.size() / 2});
  EXPECT_FALSE(MmapSnapshot::Open(path).ok());

  // And the unmutated artifact still opens on the same code path.
  WriteBytes(path, good);
  const Result<MmapSnapshot> ok = MmapSnapshot::Open(path);
  EXPECT_TRUE(ok.ok()) << ok.status().message();

  std::remove(path.c_str());
}

TEST(StorageCorruptionTest, MissingFileIsCleanNotFound) {
  const Result<MmapSnapshot> mapped =
      MmapSnapshot::Open(::testing::TempDir() + "qpgc_does_not_exist.snap");
  EXPECT_FALSE(mapped.ok());
}

}  // namespace
}  // namespace qpgc::storage
