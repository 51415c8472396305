// Arbitrary-width bit vectors with unsigned/two's-complement arithmetic.
//
// BitVec is the value type of the simulator (src/sim): library cells and
// generic components are evaluated bit-true on BitVec operands, which lets
// the test suite check that a technology-mapped netlist is functionally
// equivalent to the generic component it implements.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bridge {

/// Fixed-width vector of bits (width >= 1, no upper bound). All arithmetic
/// wraps modulo 2^width, matching hardware semantics. Two-valued logic:
/// every bit is 0 or 1 (data-book RTL cells are simulated without X/Z).
class BitVec {
 public:
  /// Zero-valued vector of the given width.
  explicit BitVec(int width = 1);

  /// Vector of `width` bits holding `value` mod 2^width.
  BitVec(int width, std::uint64_t value);

  /// Parse from a binary string, e.g. "1011" (MSB first). Width = length.
  static BitVec from_binary(const std::string& bits);

  /// All-ones vector of the given width.
  static BitVec ones(int width);

  int width() const { return width_; }

  /// Bit access; index 0 is the least-significant bit.
  bool bit(int i) const;
  void set_bit(int i, bool v);

  /// Bits [lo, lo+len) as an integer, 1 <= len <= 64. Word-level: one or
  /// two shifts and a mask (the simulator's packed bit store uses this).
  std::uint64_t field(int lo, int len) const;
  /// Overwrite bits [lo, lo+len) with the low `len` bits of `value`,
  /// 1 <= len <= 64.
  void set_field(int lo, int len, std::uint64_t value);

  /// Low 64 bits as an unsigned integer (bits above 63 ignored).
  std::uint64_t to_uint64() const;

  /// Value as a signed integer (two's complement), width <= 64 required.
  std::int64_t to_int64() const;

  /// Resize, zero-extending or truncating at the MSB end.
  BitVec zext(int new_width) const;
  /// Resize, sign-extending or truncating at the MSB end.
  BitVec sext(int new_width) const;

  /// Slice [lo, lo+len) into a new vector of width len.
  BitVec slice(int lo, int len) const;

  /// Concatenate: `hi` occupies the most-significant bits of the result.
  static BitVec concat(const BitVec& hi, const BitVec& lo);

  // --- bitwise (widths must match) -------------------------------------
  BitVec operator~() const;
  BitVec operator&(const BitVec& o) const;
  BitVec operator|(const BitVec& o) const;
  BitVec operator^(const BitVec& o) const;

  // --- arithmetic, modulo 2^width (widths must match) -------------------
  BitVec operator+(const BitVec& o) const;
  BitVec operator-(const BitVec& o) const;
  /// Full add with carry-in; carry_out receives the bit carried out of
  /// the MSB (i.e. unsigned overflow).
  BitVec add_with_carry(const BitVec& o, bool carry_in, bool* carry_out) const;
  /// Product truncated to `out_width` bits (defaults to width()+o.width()).
  BitVec mul(const BitVec& o, int out_width = -1) const;
  /// Unsigned division / remainder; divisor must be nonzero.
  BitVec udiv(const BitVec& o) const;
  BitVec urem(const BitVec& o) const;

  // --- shifts ------------------------------------------------------------
  BitVec shl(int amount) const;
  BitVec lshr(int amount) const;
  BitVec ashr(int amount) const;
  BitVec rotl(int amount) const;
  BitVec rotr(int amount) const;

  // --- comparisons (unsigned; widths must match) --------------------------
  bool operator==(const BitVec& o) const;
  bool operator!=(const BitVec& o) const { return !(*this == o); }
  bool ult(const BitVec& o) const;
  bool ugt(const BitVec& o) const { return o.ult(*this); }
  bool is_zero() const;

  /// MSB-first binary string, e.g. "01101".
  std::string to_binary() const;
  /// Hex string (no prefix), MSB-first, width rounded up to nibbles.
  std::string to_hex() const;

 private:
  static constexpr int kWordBits = 64;
  int words() const { return static_cast<int>(data_.size()); }
  /// Clear any bits above width_ in the top word (class invariant).
  void mask_top();
  static void require_same_width(const BitVec& a, const BitVec& b);

  int width_;
  std::vector<std::uint64_t> data_;
};

}  // namespace bridge
