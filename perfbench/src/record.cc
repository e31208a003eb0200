#include "record.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>

#include "matrix/dense_matrix.h"

namespace perfbench {

double Now() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

int32_t SpanLog::Begin(int64_t request, const char* name, int32_t parent) {
  const double now = Now();
  return Add(request, name, parent, now, now);
}

void SpanLog::End(int32_t index) {
  spans_[static_cast<size_t>(index)].end = Now();
}

int32_t SpanLog::Add(int64_t request, const char* name, int32_t parent,
                     double start, double end) {
  spans_.push_back(Span{request, name, parent, start, end});
  return static_cast<int32_t>(spans_.size() - 1);
}

uint64_t Fingerprint(const hadad::matrix::Matrix& m) {
  const hadad::matrix::DenseMatrix dense_copy =
      m.is_dense() ? hadad::matrix::DenseMatrix() : m.ToDense();
  const hadad::matrix::DenseMatrix& d = m.is_dense() ? m.dense() : dense_copy;
  constexpr uint64_t kPrime = 0x100000001b3ull;
  // Four independent lanes keep the multiply chain off the critical path.
  uint64_t lane[4] = {0xcbf29ce484222325ull ^ static_cast<uint64_t>(m.rows()),
                      0x84222325cbf29ce4ull ^ static_cast<uint64_t>(m.cols()),
                      0x9e3779b97f4a7c15ull, 0xbf58476d1ce4e5b9ull};
  const double* data = d.data();
  const size_t n = static_cast<size_t>(m.rows()) * static_cast<size_t>(m.cols());
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (int l = 0; l < 4; ++l) {
      uint64_t bits = 0;
      std::memcpy(&bits, data + i + static_cast<size_t>(l), sizeof(bits));
      lane[l] = (lane[l] ^ bits) * kPrime;
    }
  }
  for (; i < n; ++i) {
    uint64_t bits = 0;
    std::memcpy(&bits, data + i, sizeof(bits));
    lane[0] = (lane[0] ^ bits) * kPrime;
  }
  uint64_t h = 0;
  for (uint64_t l : lane) h = (h ^ l) * kPrime + (h >> 29);
  return h;
}

double RelativeError(const hadad::matrix::Matrix& a,
                     const hadad::matrix::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return std::numeric_limits<double>::infinity();
  }
  const hadad::matrix::DenseMatrix da = a.ToDense();
  const hadad::matrix::DenseMatrix db = b.ToDense();
  const size_t n = static_cast<size_t>(a.rows()) * static_cast<size_t>(a.cols());
  double max_diff = 0.0;
  double scale = 1.0;
  for (size_t i = 0; i < n; ++i) {
    const double x = da.data()[i];
    const double y = db.data()[i];
    if (std::isnan(x) != std::isnan(y)) {
      return std::numeric_limits<double>::infinity();
    }
    if (std::isnan(x)) continue;
    max_diff = std::max(max_diff, std::fabs(x - y));
    scale = std::max(scale, std::fabs(y));
  }
  return max_diff / scale;
}

void JsonWriter::Separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!has_element_.empty()) {
    if (has_element_.back()) out_ += ',';
    has_element_.back() = true;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  Separate();
  out_ += '{';
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_ += '}';
  has_element_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  Separate();
  out_ += '[';
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_ += ']';
  has_element_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Key(const std::string& key) {
  String(key);
  out_ += ':';
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::Number(double value) {
  Separate();
  if (!std::isfinite(value)) {
    out_ += "null";
    return *this;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  Separate();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::String(const std::string& value) {
  Separate();
  out_ += '"';
  for (char c : value) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out_ += buf;
    } else {
      out_ += c;
    }
  }
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  Separate();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Numbers(const std::vector<double>& values) {
  BeginArray();
  for (double v : values) Number(v);
  return EndArray();
}

bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.close();
  return static_cast<bool>(clear_refs);
}

int64_t PeakRssKib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atoll(line.c_str() + 6);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<int64_t>(usage.ru_maxrss);
}

}  // namespace perfbench
