#include "capture/dataset.hpp"

#include <algorithm>
#include <tuple>

namespace ytcdn::capture {

bool flow_time_less(const FlowRecord& a, const FlowRecord& b) noexcept {
    return std::tie(a.start, a.end, a.client_ip, a.server_ip) <
           std::tie(b.start, b.end, b.client_ip, b.server_ip);
}

void Dataset::sort_by_time() {
    std::sort(records.begin(), records.end(), flow_time_less);
}

}  // namespace ytcdn::capture
