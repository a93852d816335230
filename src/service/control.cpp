#include "service/control.hpp"

#include <sstream>

namespace ytcdn::service {

namespace {

ControlCommand fail(std::string message) {
    ControlCommand cmd;
    cmd.error = std::move(message);
    return cmd;
}

ControlCommand make(ControlVerb verb, std::vector<std::string> args = {}) {
    ControlCommand cmd;
    cmd.verb = verb;
    cmd.args = std::move(args);
    return cmd;
}

/// The help text listing every verb (the `err unknown command` reply).
std::string control_grammar_summary() {
    return "commands: ping | stats | render | snapshot | shutdown | "
           "faults (clear|<spec>)";
}

}  // namespace

ControlCommand parse_control_line(std::string_view line) {
    std::istringstream tokens{std::string(line)};
    std::string verb;
    if (!(tokens >> verb)) return fail("empty command");

    std::vector<std::string> words;
    std::string word;
    while (tokens >> word) words.push_back(word);

    const auto want = [&](std::size_t n,
                          std::string_view usage) -> const char* {
        return words.size() == n ? nullptr : usage.data();
    };

    if (verb == "ping") {
        if (const char* usage = want(0, "usage: ping")) return fail(usage);
        return make(ControlVerb::Ping);
    }
    if (verb == "stats") {
        if (const char* usage = want(0, "usage: stats")) return fail(usage);
        return make(ControlVerb::Stats);
    }
    if (verb == "render") {
        if (const char* usage = want(0, "usage: render")) return fail(usage);
        return make(ControlVerb::Render);
    }
    if (verb == "snapshot") {
        if (const char* usage = want(0, "usage: snapshot")) return fail(usage);
        return make(ControlVerb::Snapshot);
    }
    if (verb == "shutdown") {
        if (const char* usage = want(0, "usage: shutdown")) return fail(usage);
        return make(ControlVerb::Shutdown);
    }
    if (verb == "faults") {
        if (words.empty()) {
            return fail("usage: faults (clear | <plan spec, ';' for newlines>)");
        }
        if (words.size() == 1 && words[0] == "clear") {
            return make(ControlVerb::FaultsClear);
        }
        // The spec is the remainder of the line verbatim (it contains
        // spaces); re-derive it from the original text.
        const std::size_t at = line.find("faults");
        std::string spec{line.substr(at + 6)};
        const std::size_t start = spec.find_first_not_of(" \t");
        spec = start == std::string::npos ? std::string() : spec.substr(start);
        return make(ControlVerb::Faults, {std::move(spec)});
    }
    return fail("unknown command '" + verb + "'\n" +
                control_grammar_summary());
}

}  // namespace ytcdn::service
