#include "base/bitvec.h"

#include "base/diag.h"

namespace bridge {

BitVec::BitVec(int width) : width_(width) {
  BRIDGE_CHECK(width >= 1, "BitVec width must be >= 1, got " << width);
  data_.assign((width + kWordBits - 1) / kWordBits, 0);
}

BitVec::BitVec(int width, std::uint64_t value) : BitVec(width) {
  data_[0] = value;
  mask_top();
}

BitVec BitVec::from_binary(const std::string& bits) {
  BRIDGE_CHECK(!bits.empty(), "empty binary literal");
  BitVec v(static_cast<int>(bits.size()));
  for (size_t i = 0; i < bits.size(); ++i) {
    char c = bits[bits.size() - 1 - i];
    BRIDGE_CHECK(c == '0' || c == '1', "bad binary digit '" << c << "'");
    v.set_bit(static_cast<int>(i), c == '1');
  }
  return v;
}

BitVec BitVec::ones(int width) {
  BitVec v(width);
  for (auto& w : v.data_) w = ~0ULL;
  v.mask_top();
  return v;
}

bool BitVec::bit(int i) const {
  BRIDGE_CHECK(i >= 0 && i < width_, "bit index " << i << " out of width "
                                                  << width_);
  return (data_[i / kWordBits] >> (i % kWordBits)) & 1ULL;
}

void BitVec::set_bit(int i, bool v) {
  BRIDGE_CHECK(i >= 0 && i < width_, "bit index " << i << " out of width "
                                                  << width_);
  std::uint64_t mask = 1ULL << (i % kWordBits);
  if (v) {
    data_[i / kWordBits] |= mask;
  } else {
    data_[i / kWordBits] &= ~mask;
  }
}

namespace {

std::uint64_t low_mask(int len) {
  return len == 64 ? ~0ULL : (1ULL << len) - 1;
}

void check_field(int lo, int len, int width) {
  BRIDGE_CHECK(len >= 1 && len <= 64 && lo >= 0 && lo + len <= width,
               "field [" << lo << ", " << lo + len << ") out of width "
                         << width);
}

}  // namespace

std::uint64_t BitVec::field(int lo, int len) const {
  check_field(lo, len, width_);
  const int w = lo / kWordBits;
  const int s = lo % kWordBits;
  std::uint64_t v = data_[w] >> s;
  if (s + len > kWordBits) v |= data_[w + 1] << (kWordBits - s);
  return v & low_mask(len);
}

void BitVec::set_field(int lo, int len, std::uint64_t value) {
  check_field(lo, len, width_);
  const std::uint64_t mask = low_mask(len);
  value &= mask;
  const int w = lo / kWordBits;
  const int s = lo % kWordBits;
  data_[w] = (data_[w] & ~(mask << s)) | (value << s);
  if (s + len > kWordBits) {
    const int done = kWordBits - s;  // bits that landed in word w
    data_[w + 1] = (data_[w + 1] & ~(mask >> done)) | (value >> done);
  }
}

std::uint64_t BitVec::to_uint64() const { return data_[0]; }

std::int64_t BitVec::to_int64() const {
  BRIDGE_CHECK(width_ <= 64, "to_int64 requires width <= 64");
  std::uint64_t raw = data_[0];
  if (width_ < 64 && bit(width_ - 1)) {
    raw |= ~0ULL << width_;  // sign extend
  }
  return static_cast<std::int64_t>(raw);
}

BitVec BitVec::zext(int new_width) const {
  BitVec out(new_width);
  int n = std::min(width_, new_width);
  for (int i = 0; i < n; ++i) out.set_bit(i, bit(i));
  return out;
}

BitVec BitVec::sext(int new_width) const {
  BitVec out = zext(new_width);
  if (new_width > width_ && bit(width_ - 1)) {
    for (int i = width_; i < new_width; ++i) out.set_bit(i, true);
  }
  return out;
}

BitVec BitVec::slice(int lo, int len) const {
  BRIDGE_CHECK(lo >= 0 && len >= 1 && lo + len <= width_,
               "slice [" << lo << ", " << lo + len << ") out of width "
                         << width_);
  BitVec out(len);
  for (int i = 0; i < len; ++i) out.set_bit(i, bit(lo + i));
  return out;
}

BitVec BitVec::concat(const BitVec& hi, const BitVec& lo) {
  BitVec out(hi.width_ + lo.width_);
  for (int i = 0; i < lo.width_; ++i) out.set_bit(i, lo.bit(i));
  for (int i = 0; i < hi.width_; ++i) out.set_bit(lo.width_ + i, hi.bit(i));
  return out;
}

BitVec BitVec::operator~() const {
  BitVec out(width_);
  for (int w = 0; w < words(); ++w) out.data_[w] = ~data_[w];
  out.mask_top();
  return out;
}

BitVec BitVec::operator&(const BitVec& o) const {
  require_same_width(*this, o);
  BitVec out(width_);
  for (int w = 0; w < words(); ++w) out.data_[w] = data_[w] & o.data_[w];
  return out;
}

BitVec BitVec::operator|(const BitVec& o) const {
  require_same_width(*this, o);
  BitVec out(width_);
  for (int w = 0; w < words(); ++w) out.data_[w] = data_[w] | o.data_[w];
  return out;
}

BitVec BitVec::operator^(const BitVec& o) const {
  require_same_width(*this, o);
  BitVec out(width_);
  for (int w = 0; w < words(); ++w) out.data_[w] = data_[w] ^ o.data_[w];
  return out;
}

BitVec BitVec::operator+(const BitVec& o) const {
  bool carry_out = false;
  return add_with_carry(o, false, &carry_out);
}

BitVec BitVec::operator-(const BitVec& o) const {
  bool carry_out = false;
  return add_with_carry(~o, true, &carry_out);
}

BitVec BitVec::add_with_carry(const BitVec& o, bool carry_in,
                              bool* carry_out) const {
  require_same_width(*this, o);
  BitVec out(width_);
  bool carry = carry_in;
  for (int i = 0; i < width_; ++i) {
    bool a = bit(i);
    bool b = o.bit(i);
    out.set_bit(i, a ^ b ^ carry);
    carry = (a && b) || (a && carry) || (b && carry);
  }
  *carry_out = carry;
  return out;
}

BitVec BitVec::mul(const BitVec& o, int out_width) const {
  if (out_width < 0) out_width = width_ + o.width_;
  BitVec acc(out_width);
  BitVec a = zext(out_width);
  for (int i = 0; i < o.width_ && i < out_width; ++i) {
    if (o.bit(i)) acc = acc + a.shl(i);
  }
  return acc;
}

BitVec BitVec::udiv(const BitVec& o) const {
  require_same_width(*this, o);
  BRIDGE_CHECK(!o.is_zero(), "division by zero");
  // Schoolbook restoring division, MSB first.
  BitVec quotient(width_);
  BitVec rem(width_);
  for (int i = width_ - 1; i >= 0; --i) {
    rem = rem.shl(1);
    rem.set_bit(0, bit(i));
    if (!rem.ult(o)) {
      rem = rem - o;
      quotient.set_bit(i, true);
    }
  }
  return quotient;
}

BitVec BitVec::urem(const BitVec& o) const {
  BitVec q = udiv(o);
  return *this - q.mul(o, width_);
}

BitVec BitVec::shl(int amount) const {
  BRIDGE_CHECK(amount >= 0, "negative shift");
  BitVec out(width_);
  for (int i = width_ - 1; i >= amount; --i) out.set_bit(i, bit(i - amount));
  return out;
}

BitVec BitVec::lshr(int amount) const {
  BRIDGE_CHECK(amount >= 0, "negative shift");
  BitVec out(width_);
  for (int i = 0; i + amount < width_; ++i) out.set_bit(i, bit(i + amount));
  return out;
}

BitVec BitVec::ashr(int amount) const {
  BitVec out = lshr(amount);
  if (bit(width_ - 1)) {
    for (int i = std::max(0, width_ - amount); i < width_; ++i) {
      out.set_bit(i, true);
    }
  }
  return out;
}

BitVec BitVec::rotl(int amount) const {
  BRIDGE_CHECK(amount >= 0, "negative rotate");
  amount %= width_;
  BitVec out(width_);
  for (int i = 0; i < width_; ++i) out.set_bit((i + amount) % width_, bit(i));
  return out;
}

BitVec BitVec::rotr(int amount) const {
  amount %= width_;
  return rotl(width_ - amount);
}

bool BitVec::operator==(const BitVec& o) const {
  return width_ == o.width_ && data_ == o.data_;
}

bool BitVec::ult(const BitVec& o) const {
  require_same_width(*this, o);
  for (int w = words() - 1; w >= 0; --w) {
    if (data_[w] != o.data_[w]) return data_[w] < o.data_[w];
  }
  return false;
}

bool BitVec::is_zero() const {
  for (auto w : data_) {
    if (w != 0) return false;
  }
  return true;
}

std::string BitVec::to_binary() const {
  std::string s;
  s.reserve(width_);
  for (int i = width_ - 1; i >= 0; --i) s.push_back(bit(i) ? '1' : '0');
  return s;
}

std::string BitVec::to_hex() const {
  static const char* digits = "0123456789abcdef";
  int nibbles = (width_ + 3) / 4;
  std::string s;
  s.reserve(nibbles);
  for (int n = nibbles - 1; n >= 0; --n) {
    int v = 0;
    for (int b = 3; b >= 0; --b) {
      int i = n * 4 + b;
      v = (v << 1) | ((i < width_ && bit(i)) ? 1 : 0);
    }
    s.push_back(digits[v]);
  }
  return s;
}

void BitVec::mask_top() {
  int used = width_ % kWordBits;
  if (used != 0) {
    data_.back() &= (~0ULL >> (kWordBits - used));
  }
}

void BitVec::require_same_width(const BitVec& a, const BitVec& b) {
  BRIDGE_CHECK(a.width_ == b.width_, "width mismatch: " << a.width_ << " vs "
                                                        << b.width_);
}

}  // namespace bridge
