#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace ytcdn::service {

/// ytcdnd's line-protocol control endpoint (DESIGN.md §15). One command per
/// connection: the client sends a single '\n'-terminated line, the daemon
/// answers with "ok[ detail]\n[body]" or "err <reason>\n" and closes. The
/// grammar, one production per verb:
///
///   command     = ping | stats | render | snapshot | shutdown | faults-cmd
///   ping        = "ping"
///   stats       = "stats"                      ; util::metrics snapshot
///   render      = "render"                     ; aggregates, on demand
///   snapshot    = "snapshot"                   ; checkpoint + manifest now
///   shutdown    = "shutdown"                   ; graceful quiesce + exit
///   faults-cmd  = "faults" ("clear" | spec)    ; spec = FaultPlan text,
///                                              ; ';' for newlines
enum class ControlVerb {
    Ping,
    Stats,
    Render,
    Snapshot,
    Shutdown,
    Faults,
    FaultsClear,
    Unknown,
};

struct ControlCommand {
    ControlVerb verb = ControlVerb::Unknown;
    std::vector<std::string> args;  // verb-specific operands
    std::string error;              // parse failure, when verb == Unknown
};

/// Parses one protocol line. Never fails hard: malformed input yields
/// verb == Unknown with `error` set, which the daemon answers with "err";
/// an unknown verb's error lists every verb.
[[nodiscard]] ControlCommand parse_control_line(std::string_view line);

}  // namespace ytcdn::service
