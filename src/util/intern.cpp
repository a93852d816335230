#include "util/intern.hpp"

namespace ytcdn::util {

Interner::Id Interner::intern(std::string_view s) {
    const auto it = index_.find(s);
    if (it != index_.end()) return it->second;
    const char* copy = arena_.copy(s.data(), s.size());
    const std::string_view stable{copy, s.size()};
    const Id id = static_cast<Id>(by_id_.size());
    by_id_.push_back(stable);
    index_.emplace(stable, id);
    return id;
}

Interner::Id Interner::find(std::string_view s) const noexcept {
    const auto it = index_.find(s);
    return it == index_.end() ? kInvalidId : it->second;
}

}  // namespace ytcdn::util
