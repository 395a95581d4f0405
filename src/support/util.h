// Miscellaneous numeric and string helpers shared across modules.
#ifndef ANSOR_SRC_SUPPORT_UTIL_H_
#define ANSOR_SRC_SUPPORT_UTIL_H_

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace ansor {

// All divisors of n in increasing order. n must be positive.
std::vector<int64_t> Divisors(int64_t n);

// ceil(a / b) for positive b.
inline int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

// Combines a hash value into a seed (boost::hash_combine recipe).
inline void HashCombine(uint64_t* seed, uint64_t value) {
  *seed ^= value + 0x9e3779b97f4a7c15ULL + (*seed << 6) + (*seed >> 2);
}

// Joins container elements with a separator, using operator<< per element.
template <typename Container>
std::string Join(const Container& items, const std::string& sep) {
  std::ostringstream os;
  bool first = true;
  for (const auto& item : items) {
    if (!first) {
      os << sep;
    }
    first = false;
    os << item;
  }
  return os.str();
}

// Geometric mean of positive values; returns 0 for an empty input.
double GeometricMean(const std::vector<double>& values);

// Median of values; returns 0 for an empty input.
double Median(std::vector<double> values);

double Mean(const std::vector<double>& values);

// Formats a double with the given precision (for table output).
std::string FormatDouble(double v, int precision = 3);

// Environment variable helper with a default.
double EnvDouble(const char* name, double default_value);

// The one way the library puts a file on disk. Writes `bytes` to
// "<path>.tmp" in the same directory, fsyncs and closes it, renames it over
// `path`, then fsyncs the directory. Guarantee: after a crash at any point,
// `path` holds either its old bytes or the new ones, never a mix or a
// prefix. Returns false on any failure; a failure before the rename removes
// the temp file and leaves `path` untouched (a failed directory fsync comes
// after the rename: `path` then holds the new bytes, not known durable).
// Concurrent writers to one path are not supported: they share the temp
// file.
bool WriteFileAtomic(const std::string& path, const std::string& bytes);

// The one way the library reads a file back: replaces *bytes with the whole
// content of `path`. False when it cannot be opened or read in full, or is
// not a regular file.
bool ReadFile(const std::string& path, std::string* bytes);

}  // namespace ansor

#endif  // ANSOR_SRC_SUPPORT_UTIL_H_
