// Copyright 2026 The QPGC Authors.

#include "storage/codec.h"

#include <cstdint>
#include <cstring>

namespace qpgc::storage {
namespace {

size_t NumAnchors(size_t count) {
  return (count + kDeltaBlock - 1) / kDeltaBlock;
}

void AppendBytes(std::vector<std::byte>* out, const void* data, size_t n) {
  if (n == 0) return;  // `data` may be an empty span's null pointer
  const size_t at = out->size();
  out->resize(at + n);
  std::memcpy(out->data() + at, data, n);
}

/// LEB128; at most 5 bytes for a u32.
void AppendVarint(std::vector<std::byte>* out, uint32_t value) {
  while (value >= 0x80u) {
    out->push_back(static_cast<std::byte>((value & 0x7Fu) | 0x80u));
    value >>= 7;
  }
  out->push_back(static_cast<std::byte>(value));
}

/// Decodes one varint; false on truncation or >32-bit overflow.
bool ReadVarint(std::span<const std::byte> bytes, size_t* at,
                uint32_t* value) {
  uint32_t v = 0;
  for (int shift = 0; shift < 35; shift += 7) {
    if (*at >= bytes.size()) return false;
    const uint32_t b = static_cast<uint32_t>(bytes[(*at)++]);
    if (shift == 28 && (b & 0x7Fu) > 0x0Fu) return false;  // overflows u32
    v |= (b & 0x7Fu) << shift;
    if ((b & 0x80u) == 0) {
      *value = v;
      return true;
    }
  }
  return false;
}

}  // namespace

SectionEncoding ChooseOffsetEncoding(std::span<const uint64_t> offsets) {
  if (offsets.empty()) return SectionEncoding::kRaw64;
  bool delta_ok = true;
  uint64_t anchor = 0;
  for (size_t i = 0; i < offsets.size(); ++i) {
    if (i % kDeltaBlock == 0) anchor = offsets[i];
    QPGC_DCHECK(offsets[i] >= anchor);
    if (offsets[i] - anchor > 0xFFFFull) {
      delta_ok = false;
      break;
    }
  }
  if (delta_ok) return SectionEncoding::kDelta16;
  if (offsets.back() <= 0xFFFFFFFFull) return SectionEncoding::kRaw32;
  return SectionEncoding::kRaw64;
}

EncodedSection EncodeOffsets(std::span<const uint64_t> offsets,
                             SectionEncoding enc) {
  EncodedSection out;
  out.encoding = enc;
  out.element_count = offsets.size();
  switch (enc) {
    case SectionEncoding::kRaw64:
      AppendBytes(&out.bytes, offsets.data(), offsets.size_bytes());
      break;
    case SectionEncoding::kRaw32: {
      out.bytes.reserve(4 * offsets.size());
      for (const uint64_t o : offsets) {
        QPGC_CHECK(o <= 0xFFFFFFFFull);
        const uint32_t v = static_cast<uint32_t>(o);
        AppendBytes(&out.bytes, &v, sizeof(v));
      }
      break;
    }
    case SectionEncoding::kDelta16: {
      const size_t anchors = NumAnchors(offsets.size());
      out.bytes.reserve(8 * anchors + 2 * offsets.size());
      for (size_t a = 0; a < anchors; ++a) {
        const uint64_t anchor = offsets[a * kDeltaBlock];
        AppendBytes(&out.bytes, &anchor, sizeof(anchor));
      }
      for (size_t i = 0; i < offsets.size(); ++i) {
        const uint64_t anchor = offsets[(i / kDeltaBlock) * kDeltaBlock];
        const uint64_t d = offsets[i] - anchor;
        QPGC_CHECK(d <= 0xFFFFull);
        const uint16_t v = static_cast<uint16_t>(d);
        AppendBytes(&out.bytes, &v, sizeof(v));
      }
      break;
    }
    default:
      QPGC_CHECK(false);  // not an offsets encoding
  }
  return out;
}

Result<OffsetsView> OffsetsView::Make(SectionEncoding enc,
                                      std::span<const std::byte> bytes,
                                      size_t element_count) {
  OffsetsView view;
  view.enc_ = enc;
  view.count_ = element_count;
  // Every offsets encoding stores >= 2 bytes per element, so a count larger
  // than the byte length is corrupt; checking first keeps the size
  // arithmetic below overflow-free on hostile inputs.
  if (element_count > bytes.size()) {
    return Status::CorruptData("offsets section count exceeds stored bytes");
  }
  switch (enc) {
    case SectionEncoding::kRaw64:
      if (bytes.size() != 8 * element_count) {
        return Status::CorruptData("raw64 offsets section length mismatch");
      }
      view.raw64_ = reinterpret_cast<const uint64_t*>(bytes.data());
      break;
    case SectionEncoding::kRaw32:
      if (bytes.size() != 4 * element_count) {
        return Status::CorruptData("raw32 offsets section length mismatch");
      }
      view.raw32_ = reinterpret_cast<const uint32_t*>(bytes.data());
      break;
    case SectionEncoding::kDelta16: {
      const size_t anchors = NumAnchors(element_count);
      if (bytes.size() != 8 * anchors + 2 * element_count) {
        return Status::CorruptData("delta16 offsets section length mismatch");
      }
      view.anchors_ = reinterpret_cast<const uint64_t*>(bytes.data());
      view.deltas_ =
          reinterpret_cast<const uint16_t*>(bytes.data() + 8 * anchors);
      break;
    }
    default:
      return Status::CorruptData("unknown offsets encoding");
  }
  if (reinterpret_cast<uintptr_t>(bytes.data()) % kSectionAlign != 0) {
    return Status::CorruptData("misaligned offsets section");
  }
  return view;
}

EncodedSection EncodeU32(std::span<const uint32_t> values) {
  EncodedSection out;
  out.element_count = values.size();
  bool all_equal = !values.empty();
  for (const uint32_t v : values) {
    if (v != values.front()) {
      all_equal = false;
      break;
    }
  }
  if (all_equal) {
    out.encoding = SectionEncoding::kConstU32;
    AppendBytes(&out.bytes, &values.front(), sizeof(uint32_t));
  } else {
    out.encoding = SectionEncoding::kRaw32;
    AppendBytes(&out.bytes, values.data(), values.size_bytes());
  }
  return out;
}

Result<U32View> U32View::Make(SectionEncoding enc,
                              std::span<const std::byte> bytes,
                              size_t element_count) {
  U32View view;
  view.count_ = element_count;
  switch (enc) {
    case SectionEncoding::kRaw32:
      if (element_count > bytes.size() || bytes.size() != 4 * element_count) {
        return Status::CorruptData("raw32 section length mismatch");
      }
      if (reinterpret_cast<uintptr_t>(bytes.data()) % alignof(uint32_t) !=
          0) {
        return Status::CorruptData("misaligned u32 section");
      }
      view.data_ = reinterpret_cast<const uint32_t*>(bytes.data());
      break;
    case SectionEncoding::kConstU32:
      if (bytes.size() != 4 || element_count == 0) {
        return Status::CorruptData("const-u32 section length mismatch");
      }
      std::memcpy(&view.constant_, bytes.data(), sizeof(uint32_t));
      break;
    default:
      return Status::CorruptData("unknown u32 section encoding");
  }
  return view;
}

EncodedSection EncodeVarintTargets(std::span<const uint64_t> offsets,
                                   std::span<const NodeId> targets) {
  EncodedSection out;
  out.encoding = SectionEncoding::kVarint;
  out.element_count = targets.size();
  QPGC_CHECK(!offsets.empty() && offsets.back() == targets.size());
  for (size_t r = 0; r + 1 < offsets.size(); ++r) {
    NodeId prev = 0;
    for (uint64_t e = offsets[r]; e < offsets[r + 1]; ++e) {
      const NodeId t = targets[e];
      if (e == offsets[r]) {
        AppendVarint(&out.bytes, t);
      } else {
        QPGC_CHECK(t > prev);  // CSR runs are strictly ascending
        AppendVarint(&out.bytes, t - prev);
      }
      prev = t;
    }
  }
  return out;
}

Status DecodeVarintTargets(std::span<const std::byte> bytes,
                           const OffsetsView& offsets, size_t element_count,
                           NodeId num_nodes, std::vector<NodeId>* out) {
  out->clear();
  // Every element stores at least one byte — bounds the reserve below on
  // hostile counts.
  if (element_count > bytes.size()) {
    return Status::CorruptData("varint section count exceeds stored bytes");
  }
  out->reserve(element_count);
  if (offsets.size() == 0 || offsets.back() != element_count) {
    return Status::CorruptData("varint targets disagree with offsets");
  }
  size_t at = 0;
  for (size_t r = 0; r + 1 < offsets.size(); ++r) {
    const uint64_t begin = offsets[r];
    const uint64_t end = offsets[r + 1];
    if (begin > end || end > element_count) {
      return Status::CorruptData("varint run offsets not monotone");
    }
    NodeId prev = 0;
    for (uint64_t e = begin; e < end; ++e) {
      uint32_t v = 0;
      if (!ReadVarint(bytes, &at, &v)) {
        return Status::CorruptData("truncated varint targets section");
      }
      NodeId t;
      if (e == begin) {
        t = v;
      } else {
        if (v == 0 || v > num_nodes - prev) {
          return Status::CorruptData("varint target gap out of range");
        }
        t = prev + v;
      }
      if (t >= num_nodes) {
        return Status::CorruptData("varint target out of range");
      }
      out->push_back(t);
      prev = t;
    }
  }
  if (at != bytes.size()) {
    return Status::CorruptData("trailing bytes in varint targets section");
  }
  return Status::Ok();
}

}  // namespace qpgc::storage
