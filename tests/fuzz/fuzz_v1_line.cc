// Fuzz target for the v1 line parser (ParseRequest), which runs on the
// I/O thread that also answers DIST for every connection it owns.
// Inputs are split into lines the way the event loop splits a read
// buffer (on '\n', one trailing '\r' dropped, blank lines skipped).
// Properties checked on every line:
//   - the parser never reads out of bounds / crashes (sanitizers);
//   - an accepted line re-rendered by FormatRequestV1 parses to the
//     same request;
//   - a rejection always carries a client-safe message.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fuzz_common.h"
#include "server/protocol.h"
#include "util/string_util.h"

namespace {

bool SameRequest(const hopdb::Request& a, const hopdb::Request& b) {
  return a.kind == b.kind && a.src == b.src && a.targets == b.targets &&
         a.k == b.k && a.path == b.path && a.index_name == b.index_name;
}

void CheckLine(const std::string& line) {
  const hopdb::Result<hopdb::Request> parsed = hopdb::ParseRequest(line);
  if (!parsed.ok()) {
    if (parsed.status().message().empty()) __builtin_trap();
    return;
  }
  const hopdb::Result<hopdb::Request> again =
      hopdb::ParseRequest(hopdb::FormatRequestV1(*parsed));
  if (!again.ok() || !SameRequest(*parsed, *again)) {
    __builtin_trap();  // the canonical rendering must round-trip
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string input(reinterpret_cast<const char*>(data), size);
  size_t off = 0;
  while (off <= input.size()) {
    size_t end = input.find('\n', off);
    if (end == std::string::npos) end = input.size();
    std::string line = input.substr(off, end - off);
    off = end + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (hopdb::TrimString(line).empty()) continue;
    CheckLine(line);
  }
  return 0;
}

namespace hopdb_fuzz {

std::vector<std::string> SeedInputs() {
  return {
      "DIST 3 17",
      "BATCH 3 1 2 3 4",
      "KNN 7 5",
      "WITHIN 7 3",
      "REACH 7 23 4",
      "PATH 7 23",
      "RELOAD",
      "RELOAD /tmp/road.hli",
      "ADDEDGE 3 17",
      "ADDEDGE 3 17 5",
      "DELEDGE 3 17",
      "COMMIT",
      "ATTACH road /tmp/road.hli",
      "DETACH road",
      "STATS",
      "METRICS",
      "TRACE LAST 8",
      "PING",
      "USE road DIST 3 17",
      "USE road BATCH 3 1 2",
      "USE road KNN 7 5",
      "USE road WITHIN 7 3",
      "USE road REACH 7 23 4",
      "USE road PATH 7 23",
      "USE road RELOAD /tmp/road.hli",
      "USE road ADDEDGE 3 17 2",
      "USE road DELEDGE 3 17",
      "USE road COMMIT",
      "DIST 1 2\r\nPING\n\nUSE road KNN 4 2\n",
  };
}

}  // namespace hopdb_fuzz
