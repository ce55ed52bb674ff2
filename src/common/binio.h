#ifndef FELA_COMMON_BINIO_H_
#define FELA_COMMON_BINIO_H_

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

namespace fela::common {

/// Byte-level little-endian append/read helpers for the compact binary
/// trace and transcript formats. Explicit shifts (not memcpy of host
/// structs) so the encoded bytes are identical on every platform and
/// never depend on struct padding — a prerequisite for hashing the
/// binary form in determinism checks.
///
/// Store* write one value at `p` and return the byte past it, so a
/// fixed-width record is laid out in a stack buffer and appended whole.
/// Append* store one value in a local buffer and append it in one call,
/// never one byte at a time; writers that know their output size
/// reserve it up front.

inline char* StoreU8(char* p, uint8_t v) {
  *p = static_cast<char>(v);
  return p + 1;
}

inline char* StoreU32(char* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  return p + 4;
}

inline char* StoreU64(char* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  return p + 8;
}

inline char* StoreI32(char* p, int32_t v) {
  return StoreU32(p, static_cast<uint32_t>(v));
}

inline char* StoreF64(char* p, double v) {
  return StoreU64(p, std::bit_cast<uint64_t>(v));
}

inline void AppendU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void AppendU32(std::string* out, uint32_t v) {
  char bytes[4];
  StoreU32(bytes, v);
  out->append(bytes, sizeof(bytes));
}

inline void AppendU64(std::string* out, uint64_t v) {
  char bytes[8];
  StoreU64(bytes, v);
  out->append(bytes, sizeof(bytes));
}

inline void AppendI32(std::string* out, int32_t v) {
  AppendU32(out, static_cast<uint32_t>(v));
}

inline void AppendF64(std::string* out, double v) {
  AppendU64(out, std::bit_cast<uint64_t>(v));
}

/// Readers advance `*pos` past the consumed bytes; a false return means
/// the input ended mid-value (`*pos` is left unchanged), which callers
/// surface as a truncated stream.
inline bool ReadU8(std::string_view in, size_t* pos, uint8_t* v) {
  if (*pos + 1 > in.size()) return false;
  *v = static_cast<uint8_t>(in[*pos]);
  *pos += 1;
  return true;
}

inline bool ReadU32(std::string_view in, size_t* pos, uint32_t* v) {
  if (*pos + 4 > in.size()) return false;
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(static_cast<uint8_t>(in[*pos + i]))
           << (8 * i);
  }
  *v = out;
  *pos += 4;
  return true;
}

inline bool ReadU64(std::string_view in, size_t* pos, uint64_t* v) {
  if (*pos + 8 > in.size()) return false;
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(static_cast<uint8_t>(in[*pos + i]))
           << (8 * i);
  }
  *v = out;
  *pos += 8;
  return true;
}

inline bool ReadI32(std::string_view in, size_t* pos, int32_t* v) {
  uint32_t raw = 0;
  if (!ReadU32(in, pos, &raw)) return false;
  *v = static_cast<int32_t>(raw);
  return true;
}

inline bool ReadF64(std::string_view in, size_t* pos, double* v) {
  uint64_t raw = 0;
  if (!ReadU64(in, pos, &raw)) return false;
  *v = std::bit_cast<double>(raw);
  return true;
}

}  // namespace fela::common

#endif  // FELA_COMMON_BINIO_H_
