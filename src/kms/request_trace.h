#ifndef MLDS_KMS_REQUEST_TRACE_H_
#define MLDS_KMS_REQUEST_TRACE_H_

#include <string>
#include <utility>
#include <vector>

#include "abdl/request.h"

namespace mlds::kms {

/// The ABDL requests a machine issued for its current statement, kept as
/// issued and rendered in the thesis's notation only when read: only
/// tests, the examples and local_shell's `.trace` read them. Each machine
/// clears its trace when a statement starts, so a session holds one
/// statement's requests at most.
class RequestTrace {
 public:
  void Add(abdl::Request request) {
    requests_.push_back(std::move(request));
    rendered_ = false;
  }
  void clear() {
    requests_.clear();
    rendered_ = false;
  }
  size_t size() const { return requests_.size(); }

  /// The requests' text, rendered when a request came or went since the
  /// last call; valid until the trace next changes.
  const std::vector<std::string>& Render() const {
    if (!rendered_) {
      text_.clear();
      text_.reserve(requests_.size());
      for (const abdl::Request& request : requests_) {
        text_.push_back(abdl::ToString(request));
      }
      rendered_ = true;
    }
    return text_;
  }

 private:
  std::vector<abdl::Request> requests_;
  mutable std::vector<std::string> text_;
  mutable bool rendered_ = true;
};

}  // namespace mlds::kms

#endif  // MLDS_KMS_REQUEST_TRACE_H_
