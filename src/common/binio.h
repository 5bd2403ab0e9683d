// Minimal binary stream (de)serialization substrate for the snapshot
// formats (nn weight checkpoints, service session snapshots).
//
// Encoding rules, chosen for exactness and portability across runs:
//   * integers are fixed-width little-endian;
//   * doubles are the raw IEEE-754 bit pattern (as a little-endian
//     u64) — round-trips are bit-exact by construction, which the
//     snapshot/restore bit-identity guarantee rests on;
//   * strings and arrays are length-prefixed (u64 count, then payload);
//   * every versioned section starts with Header(tag, version) so a
//     reader can reject foreign or future files with a typed error
//     instead of misparsing them.
#ifndef CAROL_COMMON_BINIO_H_
#define CAROL_COMMON_BINIO_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace carol::common {

// Thrown on any malformed/truncated/foreign input during binary reads.
class BinaryFormatError : public std::runtime_error {
 public:
  explicit BinaryFormatError(const std::string& what)
      : std::runtime_error("BinaryFormatError: " + what) {}
};

class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream& out) : out_(&out) {}

  void U8(std::uint8_t v) { Raw(&v, 1); }
  void U32(std::uint32_t v) { Fixed<std::uint32_t>(v); }
  void U64(std::uint64_t v) { Fixed<std::uint64_t>(v); }
  void I32(std::int32_t v) { Fixed<std::uint32_t>(static_cast<std::uint32_t>(v)); }
  void I64(std::int64_t v) { Fixed<std::uint64_t>(static_cast<std::uint64_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  // Raw IEEE-754 bit pattern: the round-trip is bit-exact.
  void F64(double v) { Fixed<std::uint64_t>(std::bit_cast<std::uint64_t>(v)); }

  void String(const std::string& s) {
    U64(s.size());
    Raw(s.data(), s.size());
  }
  void Doubles(std::span<const double> values) {
    U64(values.size());
    for (double v : values) F64(v);
  }
  template <typename Int>
  void Ints(const std::vector<Int>& values) {
    U64(values.size());
    for (Int v : values) I64(static_cast<std::int64_t>(v));
  }
  void Bools(const std::vector<bool>& values) {
    U64(values.size());
    for (bool v : values) Bool(v);
  }

  // Versioned section header: magic tag + format version.
  void Header(const std::string& tag, std::uint32_t version) {
    String(tag);
    U32(version);
  }

  void CheckOk(const std::string& context) const {
    if (!*out_) throw std::runtime_error(context + ": write failed");
  }

 private:
  template <typename Uint>
  void Fixed(Uint v) {
    std::uint8_t bytes[sizeof(Uint)];
    for (std::size_t i = 0; i < sizeof(Uint); ++i) {
      bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    Raw(bytes, sizeof(Uint));
  }
  void Raw(const void* data, std::size_t n) {
    out_->write(static_cast<const char*>(data),
                static_cast<std::streamsize>(n));
  }

  std::ostream* out_;
};

class BinaryReader {
 public:
  explicit BinaryReader(std::istream& in) : in_(&in) {}

  std::uint8_t U8() {
    std::uint8_t v = 0;
    Raw(&v, 1);
    return v;
  }
  std::uint32_t U32() { return Fixed<std::uint32_t>(); }
  std::uint64_t U64() { return Fixed<std::uint64_t>(); }
  std::int32_t I32() { return static_cast<std::int32_t>(Fixed<std::uint32_t>()); }
  std::int64_t I64() { return static_cast<std::int64_t>(Fixed<std::uint64_t>()); }
  bool Bool() { return U8() != 0; }
  double F64() { return std::bit_cast<double>(Fixed<std::uint64_t>()); }

  std::string String() {
    return Sequence<std::string>(
        [this] { return static_cast<char>(U8()); });
  }
  std::vector<double> Doubles() {
    return Sequence<std::vector<double>>([this] { return F64(); });
  }
  template <typename Int>
  std::vector<Int> Ints() {
    return Sequence<std::vector<Int>>(
        [this] { return static_cast<Int>(I64()); });
  }
  std::vector<bool> Bools() {
    return Sequence<std::vector<bool>>([this] { return Bool(); });
  }

  // Reads a section header; throws BinaryFormatError unless the tag
  // matches and the version is in [1, max_version]. Returns the version
  // so readers can branch on older formats.
  std::uint32_t Header(const std::string& tag, std::uint32_t max_version) {
    const std::string got = String();
    if (got != tag) {
      throw BinaryFormatError("expected section '" + tag + "', found '" +
                              got + "'");
    }
    const std::uint32_t version = U32();
    if (version < 1 || version > max_version) {
      throw BinaryFormatError("section '" + tag + "': unsupported version " +
                              std::to_string(version));
    }
    return version;
  }

 private:
  template <typename Uint>
  Uint Fixed() {
    std::uint8_t bytes[sizeof(Uint)];
    Raw(bytes, sizeof(Uint));
    Uint v = 0;
    for (std::size_t i = 0; i < sizeof(Uint); ++i) {
      v |= static_cast<Uint>(bytes[i]) << (8 * i);
    }
    return v;
  }
  void Raw(void* data, std::size_t n) {
    in_->read(static_cast<char*>(data), static_cast<std::streamsize>(n));
    if (static_cast<std::size_t>(in_->gcount()) != n) {
      throw BinaryFormatError("truncated input");
    }
  }
  // Sanity bound on length prefixes.
  static std::uint64_t BoundedCount(std::uint64_t n) {
    if (n > (1ull << 32)) {
      throw BinaryFormatError("implausible element count " +
                              std::to_string(n));
    }
    return n;
  }
  // Reads a length-prefixed sequence. The buffer grows 64 Ki elements at
  // a time as elements arrive, so a corrupt count hits the truncation
  // check after at most one chunk instead of allocating the whole
  // claimed size first.
  template <typename Seq, typename ReadOne>
  Seq Sequence(ReadOne read_one) {
    const std::uint64_t n = BoundedCount(U64());
    Seq values;
    while (values.size() < n) {
      const std::size_t start = values.size();
      values.resize(static_cast<std::size_t>(
          std::min<std::uint64_t>(n, start + (1ull << 16))));
      for (std::size_t i = start; i < values.size(); ++i) {
        values[i] = read_one();
      }
    }
    return values;
  }

  std::istream* in_;
};

}  // namespace carol::common

#endif  // CAROL_COMMON_BINIO_H_
