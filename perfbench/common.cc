#include "common.h"

#include <sys/resource.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr std::int64_t kExactLimit = std::int64_t{1} << 24;

std::int64_t exactInt(float v) {
  const double d = static_cast<double>(v);
  if (std::floor(d) != d || std::fabs(d) >= static_cast<double>(kExactLimit)) {
    throw std::runtime_error("reference: operand " + std::to_string(v) +
                             " is not a small integer");
  }
  return static_cast<std::int64_t>(d);
}

float exactFloat(std::int64_t acc) {
  if (acc <= -kExactLimit || acc >= kExactLimit) {
    throw std::runtime_error("reference: sum " + std::to_string(acc) +
                             " is not exact in float");
  }
  return static_cast<float>(acc);
}

void jsonString(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

/// Length of the leading "t<digits>." tile prefix of `s`, or 0.
std::size_t tilePrefix(std::string_view s) {
  if (s.size() < 3 || s[0] != 't') return 0;
  std::size_t i = 1;
  while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
  return (i > 1 && i < s.size() && s[i] == '.') ? i + 1 : 0;
}

}  // namespace

std::map<std::string, Spans::Totals> Spans::totals() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Totals& t = out[s.name];
    ++t.count;
    t.total_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    t.self_s += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
  }
  return out;
}

double Spans::selfSeconds(const std::string& name) const {
  const auto all = totals();
  const auto it = all.find(name);
  return it == all.end() ? 0.0 : it->second.self_s;
}

bool Spans::write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "  {\"id\": " << i << ", \"name\": ";
    jsonString(os, s.name);
    os << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
       << ", \"parent\": " << s.parent << ", \"request\": " << s.request
       << (i + 1 == spans_.size() ? "}\n" : "},\n");
  }
  os << "]}\n";
  return static_cast<bool>(os);
}

sparse::DenseVector exactSpmv(const sparse::CsrMatrix& m,
                              const sparse::DenseVector& v) {
  std::vector<std::int64_t> x(v.size());
  for (hht::sim::Index i = 0; i < v.size(); ++i) x[i] = exactInt(v.at(i));
  const auto& ptr = m.rowPtr();
  const auto& cols = m.cols();
  const auto& vals = m.vals();
  sparse::DenseVector y(m.numRows());
  for (hht::sim::Index r = 0; r < m.numRows(); ++r) {
    std::int64_t acc = 0;
    for (auto k = ptr[r]; k < ptr[r + 1]; ++k) {
      acc += exactInt(vals[k]) * x.at(cols[k]);
    }
    y.at(r) = exactFloat(acc);
  }
  return y;
}

sparse::DenseVector exactSpmspv(const sparse::CsrMatrix& m,
                                const sparse::SparseVector& v) {
  // Scatter the sparse operand; a column it does not store contributes 0.
  std::vector<std::int64_t> x(v.size(), 0);
  for (std::size_t k = 0; k < v.indices().size(); ++k) {
    x.at(v.indices()[k]) = exactInt(v.vals()[k]);
  }
  const auto& ptr = m.rowPtr();
  const auto& cols = m.cols();
  const auto& vals = m.vals();
  sparse::DenseVector y(m.numRows());
  for (hht::sim::Index r = 0; r < m.numRows(); ++r) {
    std::int64_t acc = 0;
    for (auto k = ptr[r]; k < ptr[r + 1]; ++k) {
      acc += exactInt(vals[k]) * x.at(cols[k]);
    }
    y.at(r) = exactFloat(acc);
  }
  return y;
}

bool sameBits(const sparse::DenseVector& a, const sparse::DenseVector& b) {
  if (a.size() != b.size()) return false;
  for (hht::sim::Index i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(a.at(i)) !=
        std::bit_cast<std::uint32_t>(b.at(i))) {
      return false;
    }
  }
  return true;
}

std::uint64_t fnv1a(const sparse::DenseVector& y) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (hht::sim::Index i = 0; i < y.size(); ++i) {
    const std::uint32_t bits = std::bit_cast<std::uint32_t>(y.at(i));
    for (int shift = 0; shift < 32; shift += 8) {
      h ^= (bits >> shift) & 0xFFu;
      h *= 0x100000001B3ull;
    }
  }
  return h;
}

std::map<std::string, std::uint64_t> foldTiles(const hht::sim::StatSet& s) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : s.all()) {
    const std::string_view n = name;
    std::string key;
    if (const std::size_t p = tilePrefix(n); p != 0) {
      key = std::string(n.substr(p));
    } else if (n.starts_with("mem.")) {
      const std::size_t q = tilePrefix(n.substr(4));
      key = q != 0 ? "mem." + std::string(n.substr(4 + q)) : name;
    } else {
      key = name;
    }
    out[key] += value;
  }
  return out;
}

std::optional<std::string> checkGrants(
    const std::map<std::string, std::uint64_t>& folded) {
  const auto get = [&](const char* k) {
    const auto it = folded.find(k);
    return it == folded.end() ? std::uint64_t{0} : it->second;
  };
  const std::uint64_t total = get("mem.grants");
  const std::uint64_t parts = get("mem.cpu.grants") + get("mem.hht.grants");
  if (total == parts) return std::nullopt;
  return "mem.grants " + std::to_string(total) +
         " != mem.cpu.grants + mem.hht.grants " + std::to_string(parts);
}

std::uint64_t percentile(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace perfbench
