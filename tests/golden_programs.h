// Shared by the golden-fixture tests: the seeded behavioral programs
// whose FSMDs and controllers they record, and small rendering helpers.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace bridge::golden {

/// A behavioral program template: `@` stands for the datapath width.
struct Program {
  const char* name;
  const char* text;
  /// Inputs drawn small (1..small) instead of full-width random.
  std::vector<std::string> small_inputs;
  int small = 0;
};

inline std::vector<Program> programs() {
  return {
      {"gcd",
       R"(design gcd;
input a : @; input b : @; output r : @; var x : @; var y : @;
begin
  x = a; y = b;
  while (x != y) { if (x > y) { x = x - y; } else { y = y - x; } }
  r = x;
end)",
       {"a", "b"},
       15},
      {"count_down",
       R"(design count_down;
input a : @; input n : @; output r : @; var i : @; var acc : @;
begin
  acc = 0; i = n;
  while (i != 0) { acc = acc + a; i = i - 1; }
  r = acc;
end)",
       {"n"},
       9},
      {"count_up",
       R"(design count_up;
input a : @; input n : @; output r : @; var i : @; var acc : @;
begin
  acc = a; i = 0;
  while (i < n) { acc = acc ^ (a + i); i = i + 1; }
  r = acc;
end)",
       {"n"},
       7},
      {"nested",
       R"(design nested;
input a : @; input n : @; input m : @; output r : @; output s : @;
var i : @; var j : @; var acc : @;
begin
  acc = a; i = n;
  while (i != 0) {
    j = m;
    while (j != 0) { acc = acc + i; j = j - 1; }
    i = i - 1;
  }
  r = acc; s = acc & a;
end)",
       {"n", "m"},
       4},
      {"shifts",
       R"(design shifts;
input a : @; input b : @; output r : @; output s : @; var x : @; var k : @;
begin
  x = a; k = 0;
  while (x != 0) { x = x >> 1; k = k + 1; }
  r = (b << 3) ^ k;
  s = (a >> 2) | (b << 1);
end)",
       {},
       0},
      {"if_else",
       R"(design if_else;
input a : @; input b : @; output r : @; output s : @; var x : @;
begin
  if (a < b) { x = b - a; } else { x = a - b; }
  if (x == 0) { x = 1; }
  if (a >= b) { r = x | a; } else { r = x & b; }
  if (a <= b) { s = ~a; } else { if (a != b) { s = a ^ b; } }
end)",
       {},
       0},
  };
}

inline std::string with_width(const char* text, int width) {
  std::string out;
  for (const char* c = text; *c != '\0'; ++c) {
    if (*c == '@') {
      out += std::to_string(width);
    } else {
      out += *c;
    }
  }
  return out;
}

inline std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace bridge::golden
