// The serving layer's one request language: its grammar, its parser and
// the engine-side executor.
//
// Every front-end parses a request once, in one place, into a typed
// Command: the stdin REPL and the TCP server's workers (ProtocolSession),
// the server's inline cache-hit path (TryHandleCachedQuery) and the router
// tier (src/cluster/router.h) all call ParseLine for text lines and the
// Decode*Frame functions for request frames, and differ only in how they
// execute the result — engine calls on a worker; forward, broadcast or
// sharded fan-out on the router. The verbs both front-ends serve alike
// (quit/exit, help, hello, metrics, trace, slowlog) are answered by
// HandleCommonVerb. The REPL's batch output is byte-identical to the
// pre-split implementation (tests/protocol_golden_test.cc), and the
// loopback integration test holds the TCP path to the same bytes.
//
// Text verbs (one request per line; responses are '\n'-terminated lines):
//   gen <name> <dim> <uniform|varden|levy|gauss|embed> <n> [seed]
//   load <name> <csv|bin|snap> <path>
//   save <name> <dir>
//   dyn <name> <dim>
//   insert <name> <coords...>
//   geninsert <name> <dim> <kind> <n> [seed]
//   delete <name> <gid> [gid ...]
//   list | drop <name>
//   emst <name> [eps <e>] | slink <name> <k> | hdbscan <name> <minPts>
//     (emst eps: partitioned high-dim path with (1+eps) cross-pair
//      pruning — eps 0 is the exact distance decomposition; the response
//      carries eps=<e> partitions=<p> cross_pruned=<c>)
//   dbscan <name> <minPts> <eps> | reach <name> <minPts>
//   clusters <name> <minPts> <minClusterSize>
//   stats | help | hello | quit | exit      (router only: cluster)
// Integer fields: dim and minPts are ints; n, seed, k, minClusterSize, gid
// and the slowlog threshold are unsigned. Double fields: eps, e and the
// insert coordinates.
//
// Token rules, the same on every path:
//   * Tokens are split on the six stream-whitespace characters (space,
//     \t, \n, \v, \f, \r). An empty line or one starting with '#' is
//     ignored.
//   * An integer is an optional sign plus decimal digits that fill the
//     whole token, with a value in range for its field. Unsigned fields
//     take no sign.
//   * A double is a decimal number that fills the whole token — no hex,
//     inf or nan — and whose value is finite (an underflow reads as the
//     rounded value).
//   * A token that is present must parse, optional ones (the seed of gen
//     and geninsert) included. Extra trailing tokens are ignored.
// A request that breaks a rule gets its verb's err line (the six query
// verbs share one, naming the verb). Checks that need the dataset
// (unknown dataset, its dim, read-only replicas) run in the executors
// after the parse, in a fixed order: `insert` reports an unknown dataset
// before a malformed coordinate.
//
// Observability verbs (require ProtocolOptions::obs except `trace`, which
// drives the process-wide tracer; none appear in `help`, whose output is
// golden-pinned):
//   metrics        -> Prometheus text exposition lines, then "ok metrics"
//   metrics json   -> one JSON line: {"metrics":[...]}
//   trace on|off|status|clear
//   trace dump <file>  -> writes Chrome trace_event JSON (chrome://tracing
//                         or Perfetto), replies "ok trace dump <file>
//                         spans=<n>"
//   slowlog        -> one "slow kind=... verb=... queue_us=..." line per
//                     record (oldest first), then "ok slowlog n=<k>
//                     threshold_us=<t>"
//   slowlog clear | slowlog threshold <us>
//
// Binary requests (TCP only; see frame.h for the frame layout) reuse the
// same execution paths: kOpInsertPoints answers with the text `insert`
// verb's line, kOpGetLabels answers with a kOpLabelsReply frame.
//
// Thread-safety: a ProtocolSession holds only a reference to the (thread-
// safe) engine plus immutable options, so distinct sessions may execute
// on distinct threads concurrently. One session must not be driven from
// two threads at once (the TCP scheduler runs at most one request per
// connection at a time, which also keeps responses in request order).
// Verbs that issue parallel scheduler work outside the engine (the data
// generators behind gen/geninsert) run through
// ClusteringEngine::RunExternal, which admits them into the engine's
// build executor and runs them inside a TaskArena worker group like any
// artifact build.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "engine/engine.h"
#include "net/frame.h"
#include "net/stats.h"
#include "obs/observability.h"
#include "obs/verb_counters.h"

namespace parhc {
namespace net {

/// Spoken protocol revision, reported by the `hello` handshake and the
/// netserver banner. Bump on any incompatible change to the request
/// language or frame payloads; the router refuses upstreams whose hello
/// reports a different version (src/cluster/upstream.h).
inline constexpr int kProtocolVersion = 2;

// ---- The parser (parse.cc) ----

/// Splits a line into tokens on the six stream-whitespace characters.
class Tokenizer {
 public:
  explicit Tokenizer(std::string_view line) : rest_(line) {}
  /// The next token; empty once the line is used up.
  std::string_view Next();

 private:
  std::string_view rest_;
};

/// A verb's id: its obs::VerbCounters index, or for the verbs that table
/// counts as "other" but a front-end serves, one of the ids after it;
/// VerbCounters::kOther for unknown verbs. Constant-evaluable, so
/// executors switch on VerbId("emst").
constexpr int VerbId(std::string_view verb) {
  using VC = obs::VerbCounters;
  int i = VC::IndexOf(verb);
  if (i != VC::kOther) return i;
  if (verb == "hello") return VC::kNumVerbs;
  if (verb == "cluster") return VC::kNumVerbs + 1;
  if (verb == "quit" || verb == "exit") return VC::kNumVerbs + 2;
  return VC::kOther;
}

/// True for the six query verbs (emst, slink, hdbscan, dbscan, reach,
/// clusters), whose Command carries an EngineRequest.
bool IsQueryVerb(int verb_id);

/// One parsed text request. Views point into the parsed line, which must
/// outlive the command.
struct Command {
  int verb = obs::VerbCounters::kOther;  ///< VerbId(verb_text)
  std::string_view verb_text;  ///< the first token, echoed by err lines
  std::string_view line;       ///< the whole line, for verbatim forwarding
  /// Dataset argument of the non-query verbs ("" when absent); the query
  /// verbs carry theirs in query.dataset.
  std::string name;
  EngineRequest query;          ///< the six query verbs
  std::vector<double> coords;   ///< insert: every coordinate, flat
  std::vector<uint32_t> gids;   ///< delete
  int dim = 0;                  ///< gen, geninsert, dyn
  std::string kind;             ///< gen/geninsert generator; load format
  size_t n = 0;                 ///< gen, geninsert
  uint64_t seed = 1;            ///< gen, geninsert
  std::string path;             ///< load path, save dir, trace dump file
  std::string sub;              ///< metrics/trace/slowlog sub-command
  uint64_t threshold_us = 0;    ///< slowlog threshold <us>
  /// insert: a coordinate broke the token rules (reported after the
  /// dataset checks); slowlog threshold: <us> is missing or malformed
  /// (reported after the front-end's slow-query-log check).
  bool bad_token = false;
};

/// Parses one text request line (without its terminator). Returns false
/// with *err set to the verb's err line when the request breaks the
/// grammar; else fills *cmd. Unknown verbs parse (cmd->verb ==
/// VerbCounters::kOther): HandleCommonVerb answers them.
bool ParseLine(std::string_view line, Command* cmd, std::string* err);

/// kOpInsertPoints payload. Decode*Frame return "" on success, else the
/// frame's `malformed frame payload` err line.
struct InsertFrame {
  std::string name;
  int dim = 0;
  std::vector<std::vector<double>> rows;
};
std::string DecodeInsertFrame(const std::string& payload, InsertFrame* out);

/// kOpGetLabels payload: a kDbscanStarAt or kStableClusters request.
std::string DecodeLabelsFrame(const std::string& payload, EngineRequest* out);

/// kOpKnnQuery payload.
struct KnnFrame {
  std::string name;
  uint32_t k = 0;
  int dim = 0;
  uint32_t count = 0;
  std::vector<double> coords;  ///< count*dim, row-major
};
std::string DecodeKnnFrame(const std::string& payload, KnnFrame* out);

/// A complete kOpLabelsReply frame.
std::string EncodeLabelsReply(const std::vector<int32_t>& labels);

// ---- Execution ----

struct ProtocolOptions {
  /// Appends " secs=<wall clock>" to query responses (the REPL's historical
  /// format). Off in tests/benches that compare transcripts across runs.
  bool show_timing = true;
  /// Server counters for the `stats` verb; null (the REPL) reports engine
  /// counters only.
  const ServerStatsSource* stats_source = nullptr;
  /// Metrics registry + slow-query log behind the `metrics` and `slowlog`
  /// verbs; null front-ends answer those verbs with an err line. Not owned.
  obs::Observability* obs = nullptr;
};

/// Result of executing one request: the exact bytes to write back (every
/// line '\n'-terminated; empty for blank/comment input) and whether the
/// client asked to end the session.
struct ProtocolResult {
  std::string out;
  bool quit = false;
};

/// Parses `line` and runs `execute` on the command; a parse error answers
/// its err line and an exception "err <verb>: <what>". Standalone
/// front-ends (the REPL, in-process test drivers) have no scheduler
/// minting trace ids, so this gives each request its own id and
/// `request:<verb>` span, joining a propagated " trace=<id>" suffix; TCP
/// workers arrive with the suffix stripped and an id installed.
ProtocolResult ExecuteLine(
    const std::string& line,
    const std::function<ProtocolResult(const Command&)>& execute);

/// Answers the verbs every front-end serves alike: quit/exit, help,
/// hello (naming `role`), metrics, trace and slowlog; any other verb gets
/// `err unknown command`.
ProtocolResult HandleCommonVerb(const Command& cmd,
                                const ProtocolOptions& opts,
                                const char* role);

/// What the TCP server needs from a session: execute one wire message,
/// optionally answer warm reads inline on the event loop. Implemented by
/// ProtocolSession (engine worker) and cluster::RouterSession (router
/// tier); NetServer accepts any implementation through a SessionFactory
/// (server.h).
class SessionHandler {
 public:
  virtual ~SessionHandler() = default;

  /// Executes one decoded wire message (text line or binary frame).
  virtual ProtocolResult Handle(const WireMessage& msg) = 0;

  /// Inline fast path for the event loop: when the line can be answered
  /// without blocking, sets *out to the exact bytes Handle would produce
  /// and returns true. Default: nothing is inline-answerable.
  virtual bool TryHandleInline(const std::string& line, std::string* out) {
    (void)line;
    (void)out;
    return false;
  }
};

class ProtocolSession : public SessionHandler {
 public:
  explicit ProtocolSession(ClusteringEngine& engine,
                           ProtocolOptions opts = {})
      : engine_(engine), opts_(opts) {}

  /// Executes one text request line (without its '\n').
  ProtocolResult HandleLine(const std::string& line);

  /// Zero-dispatch fast path for the event loop: if `line` is a query verb
  /// (emst/slink/hdbscan/dbscan/reach/clusters) that parses, and the
  /// engine can answer it from cache without blocking
  /// (ClusteringEngine::TryRunCached), sets *out to the exact bytes
  /// HandleLine would produce and returns true. Returns false for
  /// everything else — the caller must then route the line through
  /// HandleLine (on a worker). Callers may only use this when no earlier
  /// request of the same client is still pending, or responses would
  /// reorder.
  bool TryHandleCachedQuery(const std::string& line, std::string* out);

  /// Executes one binary frame. The returned bytes are either an encoded
  /// reply frame or a text err line.
  ProtocolResult HandleFrame(uint8_t opcode, const std::string& payload);

  /// Dispatches a decoded wire message to HandleLine/HandleFrame.
  ProtocolResult Handle(const WireMessage& msg) override {
    return msg.binary ? HandleFrame(msg.opcode, msg.payload)
                      : HandleLine(msg.text);
  }

  bool TryHandleInline(const std::string& line, std::string* out) override {
    return TryHandleCachedQuery(line, out);
  }

 private:
  ProtocolResult Execute(const Command& cmd);

  /// Shared tail of the text and binary insert paths; returns the reply
  /// line.
  std::string DoInsert(const std::string& name,
                       const std::vector<std::vector<double>>& rows);

  ClusteringEngine& engine_;
  ProtocolOptions opts_;
};

/// First token of a text line ("frame" for binary messages) — the verb
/// named in `err busy <verb>` load-shed replies.
std::string VerbOf(const WireMessage& msg);

// ---- Helpers shared with the router tier (src/cluster/) ----

/// snprintf into a std::string.
std::string StrPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Formats a query response line ("ok <what> <name> mst_edges=... ..."),
/// byte-identical to what the single-node verbs print (golden-pinned).
/// The router formats its merged answers through this so a sharded
/// response's numeric fields match a single-node engine bit for bit.
std::string FormatQueryResponse(const std::string& what,
                                const std::string& name,
                                const EngineResponse& r, bool show_timing);

/// The `insert` verb's checks against the target dataset's `dim`, run
/// after the dataset lookup: returns the err line, or "" with *rows set.
std::string InsertRows(const Command& cmd, int dim,
                       std::vector<std::vector<double>>* rows);

/// Strips a trailing " trace=<id>" suffix from a request line and returns
/// the id (0 when absent/malformed, line untouched). The router appends
/// this suffix on router→worker hops so worker spans join the client's
/// trace; stripping is unconditional so untraced workers still parse
/// forwarded lines. (A dataset literally named "trace=<digits>" as the
/// final token would be eaten — accepted, documented quirk.)
uint64_t ExtractTraceSuffix(std::string* line);

/// Generated points as runtime rows (the `gen`/`geninsert` generators);
/// empty when the kind or dim is unknown. Callers that issue this from a
/// serving path should wrap it in ClusteringEngine::RunExternal — the
/// generators issue parallel scheduler work.
std::vector<std::vector<double>> GenerateRows(int dim,
                                              const std::string& kind,
                                              size_t n, uint64_t seed);

}  // namespace net
}  // namespace parhc
