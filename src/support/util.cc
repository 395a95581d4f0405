#include "src/support/util.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>

#include "src/support/logging.h"

namespace ansor {

std::vector<int64_t> Divisors(int64_t n) {
  CHECK_GT(n, 0);
  std::vector<int64_t> small;
  std::vector<int64_t> large;
  for (int64_t d = 1; d * d <= n; ++d) {
    if (n % d == 0) {
      small.push_back(d);
      if (d != n / d) {
        large.push_back(n / d);
      }
    }
  }
  small.insert(small.end(), large.rbegin(), large.rend());
  return small;
}

double GeometricMean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double log_sum = 0.0;
  for (double v : values) {
    CHECK_GT(v, 0.0);
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) {
    return values[mid];
  }
  double hi = values[mid];
  double lo = *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lo + hi);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

std::string FormatDouble(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

double EnvDouble(const char* name, double default_value) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') {
    return default_value;
  }
  return std::atof(env);
}

namespace {

// write(2) until every byte is out, retrying short writes and EINTR.
bool WriteAll(int fd, const std::string& bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

// fsync of the directory holding `path`, which makes a rename into it durable.
bool SyncParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return false;
  }
  bool ok = ::fsync(fd) == 0;
  return ::close(fd) == 0 && ok;
}

}  // namespace

bool WriteFileAtomic(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) {
    return false;
  }
  bool ok = WriteAll(fd, bytes) && ::fsync(fd) == 0;
  ok = ::close(fd) == 0 && ok;
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return SyncParentDir(path);
}

bool ReadFile(const std::string& path, std::string* bytes) {
  // Sized up front and read in one call: a stream-to-stream copy of a
  // multi-megabyte store costs several times the read itself.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  std::streamoff size = in.tellg();  // -1 when the open failed
  if (size < 0 || static_cast<uint64_t>(size) > bytes->max_size()) {
    return false;  // a directory's end offset is no size (ext4 reports 2^63 - 1)
  }
  bytes->resize(static_cast<size_t>(size));
  return in.seekg(0) && in.read(bytes->data(), size);
}

}  // namespace ansor
