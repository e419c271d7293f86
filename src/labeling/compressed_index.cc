#include "labeling/compressed_index.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "labeling/query_kernel.h"
#include "util/serde.h"

namespace hopdb {

namespace {

constexpr uint32_t kMagic = 0x31434c48;  // "HLC1" little-endian

/// Streaming decoder over one compressed label: yields (pivot, dist) pairs
/// in increasing pivot order.
class LabelCursor {
 public:
  LabelCursor(const uint8_t* payload, size_t begin, size_t end)
      : payload_(payload), pos_(begin), end_(end) {}

  /// Advances to the next entry; false at end (corruption is impossible
  /// here because encode/Load validated the payload).
  bool Next(VertexId* pivot, Distance* dist) {
    if (pos_ >= end_) return false;
    uint64_t delta = 0, d = 0;
    if (!GetVarint64(payload_, end_, &pos_, &delta)) return false;
    if (!GetVarint64(payload_, end_, &pos_, &d)) return false;
    prev_ += delta;  // first delta is prev_(-1 start) + delta
    *pivot = static_cast<VertexId>(prev_ - 1);
    *dist = static_cast<Distance>(d);
    return true;
  }

 private:
  const uint8_t* payload_;
  size_t pos_;
  size_t end_;
  /// 1 + previous pivot, so the first entry's delta is pivot + 1 (delta 0
  /// never occurs: pivots strictly increase).
  uint64_t prev_ = 0;
};

void EncodeLabel(std::span<const LabelEntry> label, std::string* payload) {
  uint64_t prev = 0;
  for (const LabelEntry& e : label) {
    const uint64_t key = static_cast<uint64_t>(e.pivot) + 1;
    PutVarint64(payload, key - prev);
    PutVarint64(payload, e.dist);
    prev = key;
  }
}

}  // namespace

Result<CompressedIndex> CompressedIndex::FromIndex(const TwoHopIndex& index) {
  if (index.num_vertices() == 0) {
    return Status::InvalidArgument("cannot compress an empty index");
  }
  CompressedIndex out;
  out.directed_ = index.directed();
  out.num_vertices_ = index.num_vertices();
  const size_t num_labels =
      out.directed_ ? 2 * static_cast<size_t>(out.num_vertices_)
                    : out.num_vertices_;
  out.offsets_.reserve(num_labels + 1);
  out.offsets_.push_back(0);
  for (VertexId v = 0; v < out.num_vertices_; ++v) {
    EncodeLabel(index.OutLabel(v), &out.payload_);
    if (out.payload_.size() > UINT32_MAX) {
      return Status::ResourceExhausted("compressed payload exceeds 4 GiB");
    }
    out.offsets_.push_back(static_cast<uint32_t>(out.payload_.size()));
  }
  if (out.directed_) {
    for (VertexId v = 0; v < out.num_vertices_; ++v) {
      EncodeLabel(index.InLabel(v), &out.payload_);
      if (out.payload_.size() > UINT32_MAX) {
        return Status::ResourceExhausted("compressed payload exceeds 4 GiB");
      }
      out.offsets_.push_back(static_cast<uint32_t>(out.payload_.size()));
    }
  }
  return out;
}

Result<TwoHopIndex> CompressedIndex::Decompress() const {
  const auto* payload = reinterpret_cast<const uint8_t*>(payload_.data());
  auto decode_slot = [&](size_t slot) -> LabelVector {
    LabelVector label;
    LabelCursor cursor(payload, offsets_[slot], offsets_[slot + 1]);
    VertexId pivot;
    Distance dist;
    while (cursor.Next(&pivot, &dist)) label.push_back({pivot, dist});
    return label;
  };

  std::vector<LabelVector> outs(num_vertices_), ins;
  for (VertexId v = 0; v < num_vertices_; ++v) {
    outs[v] = decode_slot(SlotOut(v));
  }
  if (directed_) {
    ins.resize(num_vertices_);
    for (VertexId v = 0; v < num_vertices_; ++v) {
      ins[v] = decode_slot(SlotIn(v));
    }
  }
  return TwoHopIndex(std::move(outs), std::move(ins), directed_);
}

Distance CompressedIndex::Query(VertexId s, VertexId t) const {
  if (s >= num_vertices_ || t >= num_vertices_) return kInfDistance;
  if (s == t) return 0;
  // The kernel's stream leg (one scalar merge shared by every kernel)
  // merges the two delta-varint payloads directly, with no
  // decompression pass. The trivial pivots (t in Lout(s), s in Lin(t))
  // are its direct probes.
  const auto* payload = reinterpret_cast<const uint8_t*>(payload_.data());
  const uint32_t a_off = offsets_[SlotOut(s)];
  const uint32_t b_off = offsets_[SlotIn(t)];
  return ActiveQueryKernel().intersect_stream(
      payload + a_off, offsets_[SlotOut(s) + 1] - a_off, payload + b_off,
      offsets_[SlotIn(t) + 1] - b_off,
      /*direct_a=*/t, /*direct_b=*/s);
}

uint64_t CompressedIndex::SizeBytes() const {
  return payload_.size() + offsets_.size() * sizeof(uint32_t) + 9;
}

Status CompressedIndex::Save(const std::string& path) const {
  std::string blob;
  blob.reserve(SizeBytes() + 8);
  PutU32(&blob, kMagic);
  PutU8(&blob, directed_ ? 1 : 0);
  PutU32(&blob, num_vertices_);
  for (const uint32_t off : offsets_) PutU32(&blob, off);
  blob.append(payload_);
  PutU64(&blob, Fnv1a64(blob.data(), blob.size()));
  return WriteStringToFile(path, blob);
}

Result<CompressedIndex> CompressedIndex::Load(const std::string& path) {
  std::string blob;
  HOPDB_RETURN_NOT_OK(ReadFileToString(path, &blob));
  if (blob.size() < 17) {
    return Status::IOError("compressed index file too small: " + path);
  }
  const uint64_t stored = DecodeU64(
      reinterpret_cast<const uint8_t*>(blob.data()) + blob.size() - 8);
  const uint64_t actual = Fnv1a64(blob.data(), blob.size() - 8);
  if (stored != actual) {
    return Status::IOError("compressed index checksum mismatch: " + path);
  }

  ByteReader reader(reinterpret_cast<const uint8_t*>(blob.data()),
                    blob.size() - 8);
  uint32_t magic;
  HOPDB_RETURN_NOT_OK(reader.ReadU32(&magic));
  if (magic != kMagic) {
    return Status::IOError("not a compressed index (bad magic): " + path);
  }
  CompressedIndex out;
  uint8_t flags;
  HOPDB_RETURN_NOT_OK(reader.ReadU8(&flags));
  out.directed_ = (flags & 1) != 0;
  HOPDB_RETURN_NOT_OK(reader.ReadU32(&out.num_vertices_));
  const size_t num_labels =
      out.directed_ ? 2 * static_cast<size_t>(out.num_vertices_)
                    : out.num_vertices_;
  if (reader.remaining() < (num_labels + 1) * 4) {
    return Status::IOError("compressed index offsets truncated: " + path);
  }
  out.offsets_.resize(num_labels + 1);
  for (auto& off : out.offsets_) {
    HOPDB_RETURN_NOT_OK(reader.ReadU32(&off));
  }
  if (out.offsets_.front() != 0) {
    return Status::IOError("compressed index offsets must start at 0");
  }
  for (size_t i = 1; i < out.offsets_.size(); ++i) {
    if (out.offsets_[i] < out.offsets_[i - 1]) {
      return Status::IOError("compressed index offsets not monotone");
    }
  }
  if (out.offsets_.back() != reader.remaining()) {
    return Status::IOError("compressed index payload size mismatch");
  }
  out.payload_.resize(reader.remaining());
  HOPDB_RETURN_NOT_OK(
      reader.ReadBytes(out.payload_.data(), out.payload_.size()));
  return out;
}

}  // namespace hopdb
