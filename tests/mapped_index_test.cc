// HLI2 / MappedIndex coverage: convert round trips are query-identical
// to the source index, every engine (point, one-to-many, KNN) agrees
// between the heap and mmap representations, and malformed files —
// truncated, bit-flipped header/metadata/arena, wrong magic — fail with
// clean checksum/validation errors instead of crashing (the suite runs
// under ASan/TSan in CI). Also covers read-only file permissions and
// the LoadServingSnapshot format dispatch.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gen/barabasi_albert.h"
#include "gen/glp.h"
#include "gen/weights.h"
#include "graph/csr_graph.h"
#include "hopdb.h"
#include "io/temp_dir.h"
#include "labeling/mapped_index.h"
#include "query/batch.h"
#include "query/knn.h"
#include "server/index_registry.h"
#include "server/index_snapshot.h"
#include "util/random.h"
#include "util/serde.h"

namespace hopdb {
namespace {

EdgeList TestGraph(VertexId n, uint64_t seed, bool directed, bool weighted) {
  GlpOptions options;
  options.num_vertices = n;
  options.target_avg_degree = 5.0;
  options.seed = seed;
  EdgeList edges = (directed ? GenerateDirectedGlp(options)
                             : GenerateGlp(options))
                       .ValueOrDie();
  if (weighted) {
    AssignUniformWeights(&edges, 1, 7, DeriveSeed(seed, 5));
  }
  return edges;
}

class MappedIndexTest : public ::testing::Test {
 protected:
  void SetUp() override { tmp_ = TempDir::Create("mapped").ValueOrDie(); }

  /// Builds an index, saves HLI1 + HLI2, and returns (heap index, path
  /// of the HLI2 file).
  std::pair<HopDbIndex, std::string> BuildBoth(VertexId n, uint64_t seed,
                                               bool directed,
                                               bool weighted,
                                               const std::string& stem) {
    HopDbIndex index =
        HopDbIndex::Build(TestGraph(n, seed, directed, weighted))
            .ValueOrDie();
    const std::string hli2 = tmp_->path() + "/" + stem + ".hli2";
    EXPECT_TRUE(
        MappedIndex::Write(index.label_index(), index.ranking(), hli2).ok());
    return {std::move(index), hli2};
  }

  std::string ReadFile(const std::string& path) {
    std::string data;
    EXPECT_TRUE(ReadFileToString(path, &data).ok());
    return data;
  }

  void WriteFile(const std::string& path, const std::string& data) {
    ASSERT_TRUE(WriteStringToFile(path, data).ok());
  }

  Result<TempDir> tmp_ = Status::Internal("not set up");
};

/// Mirror of the canonical v2 section layout (derived offsets, 64-byte
/// aligned, in fixed order) so corruption tests can aim at a specific
/// section. Kept in lockstep with docs/FORMATS.md.
struct V2Layout {
  uint64_t offsets_off, sizes_off, pivots_off, dists_off, block_min_off,
      block_max_off, rank_to_orig_off, orig_to_rank_off, file_size;
};

V2Layout ComputeV2Layout(const std::string& data) {
  const uint8_t* hd = reinterpret_cast<const uint8_t*>(data.data());
  const uint64_t flags = DecodeU64(hd + 8);
  const uint64_t n = DecodeU32(hd + 16);
  const uint64_t slots = (flags & 1) != 0 ? 2 * n : n;
  const uint64_t padded = DecodeU64(hd + 32);
  const uint64_t blocks = padded / 16;
  auto align = [](uint64_t off) { return (off + 63) & ~uint64_t{63}; };
  V2Layout l;
  l.offsets_off = align(128);
  l.sizes_off = align(l.offsets_off + (slots + 1) * 8);
  l.pivots_off = align(l.sizes_off + slots * 4);
  l.dists_off = align(l.pivots_off + padded * 4);
  l.block_min_off = align(l.dists_off + padded * 4);
  l.block_max_off = align(l.block_min_off + blocks * 4);
  l.rank_to_orig_off = align(l.block_max_off + blocks * 4);
  l.orig_to_rank_off = align(l.rank_to_orig_off + n * 4);
  l.file_size = l.orig_to_rank_off + n * 4;
  return l;
}

TEST_F(MappedIndexTest, RoundTripIsQueryIdenticalToHeapIndex) {
  for (const bool directed : {false, true}) {
    for (const bool weighted : {false, true}) {
      auto [index, hli2] =
          BuildBoth(180, 11, directed, weighted,
                    "rt" + std::to_string(directed) + std::to_string(weighted));
      MappedIndex mapped = MappedIndex::Open(hli2).ValueOrDie();
      EXPECT_EQ(mapped.num_vertices(), index.num_vertices());
      EXPECT_EQ(mapped.directed(), directed);
      EXPECT_EQ(mapped.TotalEntries(), index.label_index().TotalEntries());
      for (VertexId s = 0; s < index.num_vertices(); s += 7) {
        for (VertexId t = 0; t < index.num_vertices(); ++t) {
          ASSERT_EQ(mapped.Query(s, t), index.Query(s, t))
              << "directed=" << directed << " weighted=" << weighted
              << " s=" << s << " t=" << t;
        }
      }
    }
  }
}

TEST_F(MappedIndexTest, VerifyArenasPassesOnIntactFile) {
  auto [index, hli2] = BuildBoth(120, 3, false, false, "intact");
  MappedIndex::OpenOptions options;
  options.verify_arenas = true;
  auto mapped = MappedIndex::Open(hli2, options);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_TRUE(mapped->VerifyArenas().ok());
}

TEST_F(MappedIndexTest, PrefaultOpenServesIdenticalAnswers) {
  // prefault is advisory readahead (madvise WILLNEED) for embedders
  // that want warm first queries; it must change timing only, never
  // answers or residency semantics.
  auto [index, hli2] = BuildBoth(130, 29, false, false, "prefault");
  MappedIndex::OpenOptions options;
  options.prefault = true;
  auto mapped = MappedIndex::Open(hli2, options);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  for (VertexId t = 0; t < 130; ++t) {
    ASSERT_EQ(mapped->Query(5, t), index.Query(5, t)) << "t=" << t;
  }
  EXPECT_LE(mapped->ResidentBytes(),
            mapped->MappedBytes() + 4096);  // page-rounded upper bound
}

TEST_F(MappedIndexTest, EnginesAgreeBetweenHeapAndMapped) {
  auto [index, hli2] = BuildBoth(250, 23, true, false, "engines");
  MappedIndex mapped = MappedIndex::Open(hli2).ValueOrDie();
  const TwoHopIndex& labels = index.label_index();

  // One-to-many over INTERNAL ids: the mapped view must reproduce the
  // heap engine bucket for bucket.
  std::vector<VertexId> targets;
  for (VertexId t = 0; t < labels.num_vertices(); t += 3) {
    targets.push_back(t);
  }
  OneToManyEngine heap_engine(labels, targets);
  OneToManyEngine mapped_engine(mapped.labels(), targets);
  for (VertexId s = 0; s < labels.num_vertices(); s += 17) {
    ASSERT_EQ(heap_engine.Query(s), mapped_engine.Query(s)) << "s=" << s;
  }

  // KNN likewise, both directions.
  for (const auto direction : {KnnEngine::Direction::kForward,
                               KnnEngine::Direction::kBackward}) {
    KnnEngine heap_knn(labels, direction);
    KnnEngine mapped_knn(mapped.labels(), direction);
    for (VertexId s = 0; s < labels.num_vertices(); s += 29) {
      ASSERT_EQ(heap_knn.Query(s, 12), mapped_knn.Query(s, 12)) << "s=" << s;
    }
  }
}

TEST_F(MappedIndexTest, TruncatedFilesFailCleanly) {
  auto [index, hli2] = BuildBoth(150, 7, false, false, "trunc");
  const std::string data = ReadFile(hli2);
  // Every truncation point must produce a clean error — never a crash
  // or an OOB read. Sweep a few structurally interesting prefixes.
  const size_t cuts[] = {0, 3, 64, 127, 128, data.size() / 2,
                         data.size() - 1};
  for (const size_t cut : cuts) {
    const std::string path = tmp_->path() + "/cut" + std::to_string(cut);
    WriteFile(path, data.substr(0, cut));
    auto mapped = MappedIndex::Open(path);
    EXPECT_FALSE(mapped.ok()) << "cut=" << cut;
  }
}

TEST_F(MappedIndexTest, HeaderCorruptionFailsChecksum) {
  auto [index, hli2] = BuildBoth(150, 7, false, false, "hdrcorrupt");
  std::string data = ReadFile(hli2);
  data[17] = static_cast<char>(data[17] ^ 0x40);  // inside num_vertices
  const std::string path = tmp_->path() + "/hdrbad.hli2";
  WriteFile(path, data);
  auto mapped = MappedIndex::Open(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_NE(mapped.status().message().find("checksum"), std::string::npos)
      << mapped.status();
}

TEST_F(MappedIndexTest, OffsetTableCorruptionFailsMetadataChecksum) {
  auto [index, hli2] = BuildBoth(150, 7, false, false, "offcorrupt");
  std::string data = ReadFile(hli2);
  data[192] = static_cast<char>(data[192] ^ 0x01);  // inside the offsets
  const std::string path = tmp_->path() + "/offbad.hli2";
  WriteFile(path, data);
  auto mapped = MappedIndex::Open(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_NE(mapped.status().message().find("checksum"), std::string::npos)
      << mapped.status();
}

TEST_F(MappedIndexTest, ArenaCorruptionIsBoundsSafeAndDetectable) {
  auto [index, hli2] = BuildBoth(200, 9, false, false, "arenacorrupt");
  std::string data = ReadFile(hli2);
  // Flip a byte in the middle of the label arenas (past the offset
  // table, before the permutations — the region NOT hashed at open).
  data[data.size() / 2] = static_cast<char>(data[data.size() / 2] ^ 0x10);
  const std::string path = tmp_->path() + "/arenabad.hli2";
  WriteFile(path, data);

  // Plain open succeeds by design (O(1) load skips the arena hash)...
  auto mapped = MappedIndex::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  // ...queries stay memory-safe (possibly wrong, never OOB — this runs
  // under ASan in CI)...
  Rng rng(31);
  for (int i = 0; i < 500; ++i) {
    const VertexId s = static_cast<VertexId>(rng.Below(200));
    const VertexId t = static_cast<VertexId>(rng.Below(200));
    (void)mapped->Query(s, t);
  }
  // ...and both explicit verification paths report the corruption.
  const Status verify = mapped->VerifyArenas();
  ASSERT_FALSE(verify.ok());
  EXPECT_NE(verify.message().find("checksum"), std::string::npos) << verify;
  MappedIndex::OpenOptions options;
  options.verify_arenas = true;
  EXPECT_FALSE(MappedIndex::Open(path, options).ok());
}

TEST_F(MappedIndexTest, OutOfRangePivotsInArenaCannotCrashEngines) {
  auto [index, hli2] = BuildBoth(200, 9, false, false, "hugepivot");
  std::string data = ReadFile(hli2);
  // Overwrite the first few pivot entries with 0xffffffff — far past
  // num_vertices. The arenas are unhashed at open, and the batch/KNN
  // engines index arrays by pivot, so these must be skipped, not
  // followed (ASan enforces the "never OOB" half of the contract).
  const uint64_t pivots_off = ComputeV2Layout(data).pivots_off;
  for (size_t i = 0; i < 16; ++i) {
    data[pivots_off + i] = static_cast<char>(0xff);
  }
  const std::string path = tmp_->path() + "/hugepivot_bad.hli2";
  WriteFile(path, data);

  auto mapped = MappedIndex::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  std::vector<VertexId> targets;
  for (VertexId t = 0; t < 200; t += 2) targets.push_back(t);
  OneToManyEngine batch_engine(mapped->labels(), targets);
  KnnEngine knn_engine(mapped->labels(), KnnEngine::Direction::kForward);
  for (VertexId s = 0; s < 200; s += 11) {
    (void)batch_engine.Query(s);
    (void)knn_engine.Query(s, 10);
    (void)mapped->Query(s, (s * 7 + 3) % 200);
  }
  // The corruption is still detectable the documented way.
  EXPECT_FALSE(mapped->VerifyArenas().ok());
}

TEST_F(MappedIndexTest, V1FilesStayReadableAndQueryIdentical) {
  // Back compat: the version-gated Open must keep serving v1 files
  // (packed arenas, no sidecars) through the unblocked kernel paths.
  auto [index, hli2] = BuildBoth(180, 41, true, true, "v1compat");
  const std::string v1 = tmp_->path() + "/v1compat.v1.hli2";
  ASSERT_TRUE(MappedIndex::WriteVersion(index.label_index(), index.ranking(),
                                        v1, 1)
                  .ok());
  MappedIndex::OpenOptions options;
  options.verify_arenas = true;
  auto old_file = MappedIndex::Open(v1, options);
  ASSERT_TRUE(old_file.ok()) << old_file.status();
  EXPECT_EQ(old_file->format_version(), 1u);
  EXPECT_EQ(old_file->PaddedEntries(), old_file->TotalEntries());
  MappedIndex current = MappedIndex::Open(hli2).ValueOrDie();
  EXPECT_EQ(current.format_version(), 2u);
  for (VertexId s = 0; s < 180; s += 7) {
    for (VertexId t = 0; t < 180; t += 3) {
      ASSERT_EQ(old_file->Query(s, t), index.Query(s, t));
      ASSERT_EQ(current.Query(s, t), index.Query(s, t));
    }
  }
  // Engines accept the sidecar-less v1 view too.
  OneToManyEngine engine(old_file->labels(), {0, 3, 9, 44});
  (void)engine.Query(2);
  EXPECT_FALSE(
      MappedIndex::WriteVersion(index.label_index(), index.ranking(),
                                tmp_->path() + "/v0.hli2", 0)
          .ok());
  EXPECT_FALSE(
      MappedIndex::WriteVersion(index.label_index(), index.ranking(),
                                tmp_->path() + "/v3.hli2", 3)
          .ok());
}

TEST_F(MappedIndexTest, CraftedSectionReorderingIsRejectedOnV1) {
  auto [index, hli2] = BuildBoth(150, 7, false, false, "reorder");
  const std::string v1 = tmp_->path() + "/reorder.v1.hli2";
  ASSERT_TRUE(MappedIndex::WriteVersion(index.label_index(), index.ranking(),
                                        v1, 1)
                  .ok());
  std::string data = ReadFile(v1);
  uint8_t* bytes = reinterpret_cast<uint8_t*>(data.data());
  // Swap the claimed offsets/pivots section positions (both 64-aligned
  // and individually inside the file) and re-seal the header checksum.
  // Pairwise size arithmetic like `pivots_off - offsets_off` would
  // underflow to ~2^64 and checksum far past the mapping; the canonical
  // layout check must reject this before any section byte is touched.
  // (v2 headers no longer store section offsets at all, so the attack
  // surface only exists on v1 files.)
  const uint64_t offsets_off = DecodeU64(bytes + 32);
  const uint64_t pivots_off = DecodeU64(bytes + 40);
  EncodeU64(pivots_off, bytes + 32);
  EncodeU64(offsets_off, bytes + 40);
  EncodeU64(Fnv1a64(bytes, 96), bytes + 96);
  const std::string path = tmp_->path() + "/reorder_bad.hli2";
  WriteFile(path, data);
  auto mapped = MappedIndex::Open(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_NE(mapped.status().message().find("canonical layout"),
            std::string::npos)
      << mapped.status();
}

TEST_F(MappedIndexTest, CraftedHugeTotalEntriesIsRejected) {
  auto [index, hli2] = BuildBoth(150, 7, false, false, "hugetotal");
  std::string data = ReadFile(hli2);
  uint8_t* bytes = reinterpret_cast<uint8_t*>(data.data());
  // total_entries * 4 wraps to a tiny number for 2^62 + 1: a naive
  // bounds check would pass and queries would read far outside the
  // mapping. Re-seal the header checksum so only the overflow guard
  // can reject the file.
  EncodeU64((1ull << 62) + 1, bytes + 24);
  EncodeU64(Fnv1a64(bytes, 64), bytes + 64);
  const std::string path = tmp_->path() + "/hugetotal_bad.hli2";
  WriteFile(path, data);
  auto mapped = MappedIndex::Open(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_NE(mapped.status().message().find("total_entries"),
            std::string::npos)
      << mapped.status();
  // Same for a crafted padded_entries (huge, unaligned, or smaller than
  // total_entries).
  for (const uint64_t bad :
       {(uint64_t{1} << 62) + 16, uint64_t{8}, uint64_t{0}}) {
    std::string crafted = ReadFile(hli2);
    uint8_t* cb = reinterpret_cast<uint8_t*>(crafted.data());
    EncodeU64(bad, cb + 32);
    EncodeU64(Fnv1a64(cb, 64), cb + 64);
    const std::string p =
        tmp_->path() + "/hugepadded_" + std::to_string(bad) + ".hli2";
    WriteFile(p, crafted);
    EXPECT_FALSE(MappedIndex::Open(p).ok()) << bad;
  }
}

TEST_F(MappedIndexTest, BlockSidecarCorruptionIsBoundsSafeAndDetectable) {
  // The block min/max sidecars steer which 64-byte blocks the skip-scan
  // kernels visit. Corrupt sidecars (non-monotone minima, garbage
  // maxima) may mis-answer but must never read out of the mapped
  // arenas, and VerifyArenas must flag the file.
  auto [index, hli2] = BuildBoth(200, 17, false, false, "sidecar");
  std::string data = ReadFile(hli2);
  const V2Layout l = ComputeV2Layout(data);
  ASSERT_LT(l.block_min_off, l.block_max_off);
  // Non-monotone block minima: descending garbage across the section.
  for (uint64_t off = l.block_min_off; off + 4 <= l.block_max_off; off += 4) {
    EncodeU32(static_cast<uint32_t>(0xFFFFFFF0u - off),
              reinterpret_cast<uint8_t*>(data.data()) + off);
  }
  // And a few zeroed maxima, so max < min within single blocks too.
  for (uint64_t off = l.block_max_off; off < l.block_max_off + 32; off += 4) {
    EncodeU32(0, reinterpret_cast<uint8_t*>(data.data()) + off);
  }
  const std::string path = tmp_->path() + "/sidecar_bad.hli2";
  WriteFile(path, data);

  auto mapped = MappedIndex::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  Rng rng(47);
  for (int i = 0; i < 500; ++i) {
    const VertexId s = static_cast<VertexId>(rng.Below(200));
    const VertexId t = static_cast<VertexId>(rng.Below(200));
    (void)mapped->Query(s, t);  // ASan enforces "never OOB"
  }
  EXPECT_FALSE(mapped->VerifyArenas().ok());
  MappedIndex::OpenOptions options;
  options.verify_arenas = true;
  EXPECT_FALSE(MappedIndex::Open(path, options).ok());

  // Truncating inside the sidecar sections must fail cleanly at open.
  for (const uint64_t cut : {l.block_min_off + 2, l.block_max_off + 2}) {
    const std::string p = tmp_->path() + "/cutside" + std::to_string(cut);
    WriteFile(p, data.substr(0, cut));
    EXPECT_FALSE(MappedIndex::Open(p).ok()) << cut;
  }
}

TEST_F(MappedIndexTest, CraftedSlotSizeInconsistencyIsRejected) {
  // v2 stores per-slot real sizes next to padded block offsets; a size
  // that disagrees with its slot's block span (or with total_entries)
  // must be rejected at open — it would let size > padded span walk the
  // kernels past the slot's arena range.
  auto [index, hli2] = BuildBoth(150, 7, false, false, "slotsize");
  std::string data = ReadFile(hli2);
  uint8_t* bytes = reinterpret_cast<uint8_t*>(data.data());
  const V2Layout l = ComputeV2Layout(data);
  const uint32_t size0 = DecodeU32(bytes + l.sizes_off);
  // Bump slot 0's size past its padded block span.
  EncodeU32(size0 + 16, bytes + l.sizes_off);
  // Re-seal the metadata checksum so only the structural check fires.
  uint64_t meta = Fnv1a64(bytes + l.offsets_off, l.pivots_off - l.offsets_off);
  meta ^= Fnv1a64(bytes + l.rank_to_orig_off, l.file_size - l.rank_to_orig_off);
  EncodeU64(meta, bytes + 48);
  EncodeU64(Fnv1a64(bytes, 64), bytes + 64);
  const std::string path = tmp_->path() + "/slotsize_bad.hli2";
  WriteFile(path, data);
  auto mapped = MappedIndex::Open(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_NE(mapped.status().message().find("slot sizes"), std::string::npos)
      << mapped.status();
}

TEST_F(MappedIndexTest, RejectsForeignAndGarbageFiles) {
  auto [index, hli2] = BuildBoth(120, 5, false, false, "foreign");
  // An HLI1 file is not mappable.
  const std::string hli1 = tmp_->path() + "/plain.hopdb";
  ASSERT_TRUE(index.Save(hli1).ok());
  EXPECT_FALSE(MappedIndex::Open(hli1).ok());
  // Nor is garbage, an empty file, or a directory.
  const std::string garbage = tmp_->path() + "/garbage";
  WriteFile(garbage, std::string(4096, 'x'));
  EXPECT_FALSE(MappedIndex::Open(garbage).ok());
  const std::string empty = tmp_->path() + "/empty";
  WriteFile(empty, "");
  EXPECT_FALSE(MappedIndex::Open(empty).ok());
  EXPECT_FALSE(MappedIndex::Open(tmp_->path() + "/missing.hli2").ok());
}

TEST_F(MappedIndexTest, OpensReadOnlyFiles) {
  auto [index, hli2] = BuildBoth(140, 13, false, false, "readonly");
  ASSERT_EQ(chmod(hli2.c_str(), 0444), 0);
  auto mapped = MappedIndex::Open(hli2);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  for (VertexId t = 0; t < 140; ++t) {
    ASSERT_EQ(mapped->Query(0, t), index.Query(0, t)) << "t=" << t;
  }
  // Restore write permission so TempDir cleanup can remove the file.
  chmod(hli2.c_str(), 0644);
}

TEST_F(MappedIndexTest, MutationNotSupportedStatus) {
  const Status status = MappedIndex::MutationNotSupported("AddLabelEntry");
  EXPECT_EQ(status.code(), StatusCode::kUnimplemented);
  EXPECT_NE(status.message().find("read-only"), std::string::npos);
  EXPECT_NE(status.message().find("AddLabelEntry"), std::string::npos);
}

TEST_F(MappedIndexTest, LoadServingSnapshotDispatchesOnMagic) {
  auto [index, hli2] = BuildBoth(160, 19, false, false, "snapdispatch");
  const std::string hli1 = tmp_->path() + "/snapdispatch.hopdb";
  ASSERT_TRUE(index.Save(hli1).ok());

  auto heap_snap = LoadServingSnapshot(hli1, 64);
  ASSERT_TRUE(heap_snap.ok()) << heap_snap.status();
  EXPECT_FALSE((*heap_snap)->mapped());
  EXPECT_STREQ((*heap_snap)->map_mode(), "heap");

  auto mmap_snap = LoadServingSnapshot(hli2, 64);
  ASSERT_TRUE(mmap_snap.ok()) << mmap_snap.status();
  EXPECT_TRUE((*mmap_snap)->mapped());
  EXPECT_STREQ((*mmap_snap)->map_mode(), "mmap");
  EXPECT_GT((*mmap_snap)->ResidentBytes(), 0u);

  // Snapshot-level query dispatch agrees across backings (original ids).
  for (VertexId t = 0; t < 160; t += 3) {
    ASSERT_EQ((*heap_snap)->Query(1, t), (*mmap_snap)->Query(1, t));
    ASSERT_EQ((*heap_snap)->QueryKnn(t, 5), (*mmap_snap)->QueryKnn(t, 5));
  }
  const std::vector<VertexId> targets = {0, 5, 9, 33, 150, 5};
  for (VertexId s = 0; s < 160; s += 31) {
    ASSERT_EQ((*heap_snap)->QueryOneToMany(s, targets),
              (*mmap_snap)->QueryOneToMany(s, targets));
  }
}

TEST_F(MappedIndexTest, SnapshotQueryOutOfRangeIsInfOnBothBackings) {
  for (const bool directed : {false, true}) {
    const VertexId n = 150;
    auto [index, hli2] = BuildBoth(n, 29, directed, directed, "snaprange");
    const ServingSnapshot heap(HopDbIndex(index), "", 0);
    const ServingSnapshot mapped(MappedIndex::Open(hli2).ValueOrDie(), hli2,
                                 0);
    for (const ServingSnapshot* snap : {&heap, &mapped}) {
      SCOPED_TRACE(std::string(snap->map_mode()) +
                   (directed ? " directed" : " undirected"));
      for (const VertexId bad : {n, n + 1, kInvalidVertex - 1}) {
        EXPECT_EQ(snap->Query(bad, 0), kInfDistance);
        EXPECT_EQ(snap->Query(0, bad), kInfDistance);
        EXPECT_EQ(snap->Query(bad, bad), kInfDistance);
        EXPECT_FALSE(snap->QueryReach(bad, 0, kInfDistance - 1));
        EXPECT_FALSE(snap->QueryReach(0, bad, kInfDistance - 1));
      }
      for (VertexId s = 0; s < n; s += 7) {
        for (VertexId t = 0; t < n; t += 5) {
          ASSERT_EQ(snap->Query(s, t), index.Query(s, t))
              << "s=" << s << " t=" << t;
        }
      }
    }
  }
}

TEST_F(MappedIndexTest, BarabasiAlbertDirectedRoundTrip) {
  BaOptions ba;
  ba.num_vertices = 220;
  ba.edges_per_vertex = 3;
  ba.seed = 77;
  EdgeList undirected = GenerateBarabasiAlbert(ba).ValueOrDie();
  EdgeList edges(undirected.num_vertices(), true);
  for (const Edge& e : undirected.edges()) edges.Add(e.src, e.dst);
  edges.Normalize();
  HopDbIndex index = HopDbIndex::Build(edges).ValueOrDie();
  const std::string hli2 = tmp_->path() + "/ba.hli2";
  ASSERT_TRUE(
      MappedIndex::Write(index.label_index(), index.ranking(), hli2).ok());
  MappedIndex mapped = MappedIndex::Open(hli2).ValueOrDie();
  Rng rng(123);
  for (int i = 0; i < 4000; ++i) {
    const VertexId s = static_cast<VertexId>(rng.Below(220));
    const VertexId t = static_cast<VertexId>(rng.Below(220));
    ASSERT_EQ(mapped.Query(s, t), index.Query(s, t));
  }
}

}  // namespace
}  // namespace hopdb
