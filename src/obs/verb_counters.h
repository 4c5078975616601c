// Per-verb request counters for the serving front-ends.
//
// One relaxed atomic per protocol verb, bumped when a request's response
// has been produced (after Handle returns / after the inline fast path
// answers) — so at quiescence the sum over verbs equals the server's
// `served` counter, which ci/check_metrics.py asserts. Load-shed busy
// replies are deliberately *not* bumped (they are counted by `shed`, and
// `served` excludes them on the scheduler side... see net/server.cc).
//
// The verb -> index dispatch is a first-character switch with at most four
// short compares, so the inline cache-hit path pays a few nanoseconds.
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>

namespace parhc {
namespace obs {

class VerbCounters {
 public:
  /// Sorted, fixed verb set; unknown verbs land on "other". The protocol
  /// resolves its verbs through this table (net::VerbId in
  /// net/protocol.h).
  static constexpr const char* kVerbs[] = {
      "clusters", "dbscan",  "delete",    "drop",    "dyn",   "emst",
      "frame",    "gen",     "geninsert", "hdbscan", "help",  "insert",
      "list",     "load",    "metrics",   "other",   "reach", "save",
      "slink",    "slowlog", "stats",     "trace"};
  static constexpr int kNumVerbs =
      static_cast<int>(sizeof(kVerbs) / sizeof(kVerbs[0]));
  static constexpr int kOther = 15;  // index of "other" above

  /// Front-end span names ("request:<verb>"), indexed like kVerbs — static
  /// literals so the hot path records spans without interning.
  static constexpr const char* kRequestSpanNames[] = {
      "request:clusters", "request:dbscan",  "request:delete",
      "request:drop",     "request:dyn",     "request:emst",
      "request:frame",    "request:gen",     "request:geninsert",
      "request:hdbscan",  "request:help",    "request:insert",
      "request:list",     "request:load",    "request:metrics",
      "request:other",    "request:reach",   "request:save",
      "request:slink",    "request:slowlog", "request:stats",
      "request:trace"};

  static constexpr int IndexOf(std::string_view verb) {
    if (verb.empty()) return kOther;
    switch (verb[0]) {
      case 'c': return verb == "clusters" ? 0 : kOther;
      case 'd':
        if (verb == "dbscan") return 1;
        if (verb == "delete") return 2;
        if (verb == "drop") return 3;
        if (verb == "dyn") return 4;
        return kOther;
      case 'e': return verb == "emst" ? 5 : kOther;
      case 'f': return verb == "frame" ? 6 : kOther;
      case 'g':
        if (verb == "gen") return 7;
        if (verb == "geninsert") return 8;
        return kOther;
      case 'h':
        if (verb == "hdbscan") return 9;
        if (verb == "help") return 10;
        return kOther;
      case 'i': return verb == "insert" ? 11 : kOther;
      case 'l':
        if (verb == "list") return 12;
        if (verb == "load") return 13;
        return kOther;
      case 'm': return verb == "metrics" ? 14 : kOther;
      case 'r': return verb == "reach" ? 16 : kOther;
      case 's':
        if (verb == "save") return 17;
        if (verb == "slink") return 18;
        if (verb == "slowlog") return 19;
        if (verb == "stats") return 20;
        return kOther;
      case 't': return verb == "trace" ? 21 : kOther;
      default: return kOther;
    }
  }

  void Bump(std::string_view verb) {
    counts_[IndexOf(verb)].fetch_add(1, std::memory_order_relaxed);
  }

  /// Bump by a precomputed IndexOf result (callers that already resolved
  /// the verb for a RequestTag).
  void BumpIndex(int index) {
    counts_[index].fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t Count(int index) const {
    return counts_[index].load(std::memory_order_relaxed);
  }

  uint64_t Total() const {
    uint64_t total = 0;
    for (int i = 0; i < kNumVerbs; ++i) total += Count(i);
    return total;
  }

 private:
  std::atomic<uint64_t> counts_[kNumVerbs] = {};
};

}  // namespace obs
}  // namespace parhc
