// Measurement plumbing for the repository benchmark: one steady clock, an
// in-memory span log (one per client thread, merged when the run ends), a
// result fingerprint for bit-identity checks, and a minimal JSON writer for
// the raw run document perfbench/run.py turns into metrics.

#ifndef HADAD_PERFBENCH_RECORD_H_
#define HADAD_PERFBENCH_RECORD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "matrix/matrix.h"

namespace perfbench {

// Seconds on std::chrono::steady_clock since the first call in the process.
double Now();

// One timed call into a layer. `parent` indexes the same SpanLog (-1 for a
// request's root span); every span of one request shares `request`.
struct Span {
  int64_t request = 0;
  const char* name = "";
  int32_t parent = -1;
  double start = 0.0;
  double end = 0.0;
};

// Spans of one client thread. Not thread-safe: each thread owns its log.
class SpanLog {
 public:
  // Opens a span starting now; returns its index for End() and children.
  int32_t Begin(int64_t request, const char* name, int32_t parent = -1);
  void End(int32_t index);
  // Records an already-measured interval.
  int32_t Add(int64_t request, const char* name, int32_t parent, double start,
              double end);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// 64-bit fingerprint of a result's shape and every cell's bit pattern (a
// sparse result hashes as its dense image, so representation does not
// matter). Equal fingerprints stand for bit-identical results.
uint64_t Fingerprint(const hadad::matrix::Matrix& m);

// max |a - b| over all cells divided by max(1, max |b|); +inf when the
// shapes differ. The benchmark's tolerance checks compare against this.
double RelativeError(const hadad::matrix::Matrix& a,
                     const hadad::matrix::Matrix& b);

// Streaming JSON writer with automatic commas. Numbers print with 17
// significant digits so every measured digit survives.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(const std::string& key);
  JsonWriter& Number(double value);
  JsonWriter& Int(int64_t value);
  JsonWriter& String(const std::string& value);
  JsonWriter& Bool(bool value);
  JsonWriter& Numbers(const std::vector<double>& values);

  const std::string& text() const { return out_; }

 private:
  void Separate();

  std::string out_;
  // Per open container: whether it already holds an element.
  std::vector<bool> has_element_;
  bool after_key_ = false;
};

// Starts a peak-RSS measurement: returns freed heap memory to the system
// (malloc_trim) and resets the kernel's high-water mark to the current
// resident set (Linux /proc/self/clear_refs). Returns false where the reset
// is not possible; PeakRssKib then reports the peak of the whole process.
bool ResetPeakRss();

// Peak resident set size, in KiB, since the last successful ResetPeakRss().
int64_t PeakRssKib();

}  // namespace perfbench

#endif  // HADAD_PERFBENCH_RECORD_H_
