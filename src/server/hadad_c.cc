#include "server/hadad_c.h"

#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>

#include "api/session.h"
#include "matrix/matrix.h"
#include "server/server.h"

namespace {

using hadad::Result;
using hadad::Status;
using hadad::StatusCode;

// Per-thread error slot: no locking, no cross-thread clobbering, and the
// pointer stays valid until the thread's next failing call.
thread_local std::string t_last_error = "";

hadad_code CodeFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return HADAD_OK;
    case StatusCode::kInvalidArgument:
    case StatusCode::kDimensionMismatch:
    case StatusCode::kOutOfRange:
      return HADAD_ERR_INVALID;
    case StatusCode::kNotFound:
      return HADAD_ERR_NOT_FOUND;
    case StatusCode::kOverloaded:
      return HADAD_ERR_OVERLOADED;
    case StatusCode::kDeadlineExceeded:
      return HADAD_ERR_DEADLINE_EXCEEDED;
    case StatusCode::kCancelled:
      return HADAD_ERR_CANCELLED;
    default:
      return HADAD_ERR_OTHER;
  }
}

hadad_code Fail(const Status& status) {
  t_last_error = status.ToString();
  return CodeFor(status);
}

// malloc-backed copy so C callers pair it with free() via
// hadad_string_free regardless of how the C++ side was built.
char* MallocString(const std::string& s) {
  char* out = static_cast<char*>(std::malloc(s.size() + 1));
  if (out == nullptr) return nullptr;
  std::memcpy(out, s.c_str(), s.size() + 1);
  return out;
}

}  // namespace

// Opaque handle bodies: thin ownership shims over the C++ objects.
struct hadad_server {
  std::shared_ptr<hadad::server::Server> server;
};
struct hadad_request {
  hadad::server::RequestHandle request;
};

extern "C" {

hadad_server* hadad_server_open(int threads, int max_in_flight,
                                int max_queue) {
  hadad::obs::TraceOptions tracing;
  tracing.ring_capacity = size_t{1} << 16;  // Bounded memory, newest spans.
  auto session = hadad::api::SessionBuilder()
                     .Threads(threads)
                     .Tracing(tracing)
                     .Build();
  if (!session.ok()) {
    (void)Fail(session.status());
    return nullptr;
  }
  hadad::server::ServerOptions options;
  options.max_in_flight = max_in_flight;
  options.max_queue = max_queue;
  auto server = hadad::server::Server::Create(std::move(*session), options);
  if (!server.ok()) {
    (void)Fail(server.status());
    return nullptr;
  }
  auto* handle = new hadad_server();
  handle->server = std::move(*server);
  return handle;
}

void hadad_server_close(hadad_server* server) {
  if (server == nullptr) return;
  server->server->Shutdown();
  delete server;
}

hadad_code hadad_register_matrix(hadad_server* server, const char* name,
                                 const double* data, int64_t rows,
                                 int64_t cols) {
  if (server == nullptr || name == nullptr || data == nullptr || rows < 1 ||
      cols < 1) {
    return Fail(Status::InvalidArgument(
        "hadad_register_matrix: null handle/name/data or non-positive dims"));
  }
  // `data` holds rows * cols doubles, so a shape whose byte count overflows
  // describes no buffer (and would abort in the allocation below).
  if (cols > std::numeric_limits<int64_t>::max() /
                 static_cast<int64_t>(sizeof(double)) / rows) {
    return Fail(Status::InvalidArgument(
        "hadad_register_matrix: shape " + std::to_string(rows) + "x" +
        std::to_string(cols) + " is too large (rows * cols doubles overflow)"));
  }
  hadad::matrix::DenseMatrix m(rows, cols);
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      m.At(i, j) = data[i * cols + j];
    }
  }
  Status put = server->server->session().Put(
      name, hadad::matrix::Matrix(std::move(m)));
  if (!put.ok()) return Fail(put);
  return HADAD_OK;
}

hadad_request* hadad_submit(hadad_server* server, const char* client,
                            const char* text, int64_t deadline_ms) {
  if (server == nullptr || client == nullptr || text == nullptr) {
    (void)Fail(Status::InvalidArgument(
        "hadad_submit: null server/client/text"));
    return nullptr;
  }
  hadad::server::RequestOptions options;
  if (deadline_ms > 0) {
    options.deadline = std::chrono::milliseconds(deadline_ms);
  }
  auto submitted = server->server->Submit(client, text, options);
  if (!submitted.ok()) {
    (void)Fail(submitted.status());
    return nullptr;
  }
  auto* handle = new hadad_request();
  handle->request = std::move(*submitted);
  return handle;
}

int hadad_request_done(const hadad_request* request) {
  return request != nullptr && request->request->done() ? 1 : 0;
}

hadad_code hadad_request_wait(hadad_request* request) {
  if (request == nullptr) {
    return Fail(Status::InvalidArgument("hadad_request_wait: null request"));
  }
  const Result<hadad::matrix::Matrix>& outcome = request->request->result();
  if (!outcome.ok()) return Fail(outcome.status());
  return HADAD_OK;
}

void hadad_request_cancel(hadad_request* request) {
  if (request != nullptr) request->request->Cancel();
}

hadad_code hadad_result_dims(hadad_request* request, int64_t* rows,
                             int64_t* cols) {
  if (request == nullptr || rows == nullptr || cols == nullptr) {
    return Fail(
        Status::InvalidArgument("hadad_result_dims: null request/out"));
  }
  const Result<hadad::matrix::Matrix>& outcome = request->request->result();
  if (!outcome.ok()) return Fail(outcome.status());
  *rows = outcome->rows();
  *cols = outcome->cols();
  return HADAD_OK;
}

hadad_code hadad_result_copy(hadad_request* request, double* out,
                             size_t capacity) {
  if (request == nullptr || out == nullptr) {
    return Fail(
        Status::InvalidArgument("hadad_result_copy: null request/out"));
  }
  const Result<hadad::matrix::Matrix>& outcome = request->request->result();
  if (!outcome.ok()) return Fail(outcome.status());
  const int64_t rows = outcome->rows();
  const int64_t cols = outcome->cols();
  if (capacity < static_cast<size_t>(rows) * static_cast<size_t>(cols)) {
    return Fail(Status::InvalidArgument(
        "hadad_result_copy: capacity " + std::to_string(capacity) +
        " < " + std::to_string(rows * cols) + " result elements"));
  }
  const hadad::matrix::DenseMatrix dense = outcome->ToDense();
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      out[i * cols + j] = dense.At(i, j);
    }
  }
  return HADAD_OK;
}

void hadad_request_free(hadad_request* request) { delete request; }

char* hadad_metrics(hadad_server* server) {
  if (server == nullptr) {
    (void)Fail(Status::InvalidArgument("hadad_metrics: null server"));
    return nullptr;
  }
  return MallocString(server->server->session().MetricsText());
}

char* hadad_trace_json(hadad_server* server) {
  if (server == nullptr) {
    (void)Fail(Status::InvalidArgument("hadad_trace_json: null server"));
    return nullptr;
  }
  const hadad::obs::TraceRecorder* recorder =
      server->server->session().trace();
  if (recorder == nullptr) {
    (void)Fail(Status::InvalidArgument(
        "hadad_trace_json: server was opened without tracing"));
    return nullptr;
  }
  std::ostringstream out;
  recorder->WriteChromeTrace(out);
  return MallocString(out.str());
}

void hadad_string_free(char* s) { std::free(s); }

const char* hadad_last_error(void) { return t_last_error.c_str(); }

}  // extern "C"
