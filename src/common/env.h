// The process-environment gateway.
//
// Every READDUO_* integer knob goes through parse_env_u64 (the strict
// parse_uint of common/parse.h) so a typo like READDUO_INSTR=6e6 fails
// loudly instead of silently running the default configuration.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <string>

#include "common/parse.h"

namespace rd {

/// The single audited gateway to the process environment. Every READDUO_*
/// read goes through here (readduo_lint bans raw getenv elsewhere), so the
/// full set of knobs a build responds to is grep-able from one choke point.
inline const char* env_cstr(const char* name) { return std::getenv(name); }

/// Parse `value` (the content of env var `name`) with parse_uint; the
/// diagnostic names the variable as "env <name>".
inline std::uint64_t parse_env_u64(const char* name, const char* value) {
  return parse_uint(std::string("env ") + name, value != nullptr ? value : "");
}

}  // namespace rd
