#include "capture/dataset.hpp"

#include <algorithm>
#include <tuple>

namespace ytcdn::capture {

void Dataset::sort_by_time() {
    std::sort(records.begin(), records.end(),
              [](const FlowRecord& a, const FlowRecord& b) {
                  return std::tie(a.start, a.end, a.client_ip, a.server_ip) <
                         std::tie(b.start, b.end, b.client_ip, b.server_ip);
              });
}

}  // namespace ytcdn::capture
