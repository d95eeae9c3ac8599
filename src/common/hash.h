// Content hashing for the stage cache: FNV-1a over canonical serialized
// stage inputs. FNV is not cryptographic — the cache key doubles it into a
// 128-bit digest (two independent seeds), which makes an accidental
// collision across the lifetime of a serving process vanishingly unlikely
// while keeping hashing a few cycles per byte with zero dependencies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <streambuf>
#include <string>
#include <string_view>

namespace tqec {

inline constexpr std::uint64_t kFnv1aOffset = 14695981039346656037ull;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ull;

/// FNV-1a 64-bit hash of `s`, chainable via the seed parameter:
/// fnv1a64(b, fnv1a64(a)) == hash of the concatenation a+b.
inline std::uint64_t fnv1a64(std::string_view s,
                             std::uint64_t seed = kFnv1aOffset) {
  std::uint64_t h = seed;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnv1aPrime;
  }
  return h;
}

/// 128-bit content digest: two FNV-1a streams with decorrelated seeds.
/// Incremental — update() chunks hash identically to one concatenated call.
struct Digest128 {
  std::uint64_t lo = kFnv1aOffset;
  // Second stream seeded by hashing a domain-separation tag so the two
  // halves never agree byte-for-byte.
  std::uint64_t hi = fnv1a64("tqec.digest128.hi");

  void update(std::string_view s) {
    lo = fnv1a64(s, lo);
    hi = fnv1a64(s, hi);
  }

  /// 32 lowercase hex digits, lo then hi (shard checkpoint file names and
  /// the tqec_serve access log use this text).
  std::string hex() const {
    static constexpr char kHex[] = "0123456789abcdef";
    std::string out(32, '0');
    for (int i = 0; i < 16; ++i) {
      out[static_cast<std::size_t>(15 - i)] = kHex[(lo >> (4 * i)) & 0xf];
      out[static_cast<std::size_t>(31 - i)] = kHex[(hi >> (4 * i)) & 0xf];
    }
    return out;
  }

  friend bool operator==(const Digest128&, const Digest128&) = default;
};

/// std::streambuf that folds everything written through it into a
/// Digest128 via a fixed-size buffer. Lets a serializer stream straight
/// into a content hash — `write_x(thing, stream)` hashes identically to
/// `digest.update(to_x_text(thing))` (FNV-1a is chunking-invariant) while
/// peak memory stays O(buffer) instead of O(serialized text).
class DigestStreambuf : public std::streambuf {
 public:
  explicit DigestStreambuf(Digest128 init = {}) : digest_(init) {
    setp(buf_, buf_ + sizeof(buf_));
  }

  /// Digest of every byte written so far (flushes the pending buffer).
  Digest128 digest() {
    drain();
    return digest_;
  }

 protected:
  int overflow(int ch) override {
    drain();
    if (ch != traits_type::eof()) {
      buf_[0] = static_cast<char>(ch);
      pbump(1);
    }
    return ch;
  }
  int sync() override {
    drain();
    return 0;
  }

 private:
  void drain() {
    if (pptr() != pbase()) {
      digest_.update(std::string_view(
          pbase(), static_cast<std::size_t>(pptr() - pbase())));
      setp(buf_, buf_ + sizeof(buf_));
    }
  }

  Digest128 digest_;
  char buf_[4096];
};

}  // namespace tqec
