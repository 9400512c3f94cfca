#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t i = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double tail_quantile(size_t n) {
  if (n <= 10) return 0.5;
  return std::max(0.5, std::min(0.99, 1.0 - 10.0 / static_cast<double>(n)));
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
