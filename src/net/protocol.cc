// Verb implementations of the serving protocol (see protocol.h).
//
// Ported verbatim from the pre-PR examples/parhc_server.cpp REPL loop:
// every response is formatted with the same format strings so the REPL's
// batch output stays byte-identical (tests/protocol_golden_test.cc pins
// this against a transcript captured from the original implementation).
#include "net/protocol.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "data/generators.h"
#include "data/io.h"
#include "obs/trace.h"

namespace parhc {
namespace net {
namespace {

std::string JoinKeys(const std::vector<std::string>& keys) {
  std::string out = "[";
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i) out += ',';
    out += keys[i];
  }
  return out + "]";
}

template <int D>
std::vector<Point<D>> GenTyped(const std::string& kind, size_t n,
                               uint64_t seed) {
  if (kind == "uniform") return UniformFill<D>(n, seed);
  if (kind == "varden") return SeedSpreaderVarden<D>(n, seed);
  if (kind == "levy") return SkewedLevy<D>(n, seed);
  if (kind == "gauss") return ClusteredGaussians<D>(n, seed);
  if (kind == "embed") return GaussianEmbeddings<D>(n, seed);
  return {};
}

template <int D>
std::vector<std::vector<double>> RowsFrom(const std::vector<Point<D>>& pts) {
  std::vector<std::vector<double>> rows(pts.size(), std::vector<double>(D));
  for (size_t i = 0; i < pts.size(); ++i) {
    for (int d = 0; d < D; ++d) rows[i][d] = pts[i][d];
  }
  return rows;
}

/// Registers the generated set; ParseLine has checked dim and kind.
void Generate(DatasetRegistry& reg, const std::string& name, int dim,
              const std::string& kind, size_t n, uint64_t seed) {
  switch (dim) {
#define PARHC_GEN_CASE(D)                      \
  case D:                                      \
    reg.Add(name, GenTyped<D>(kind, n, seed)); \
    break;
    PARHC_FOR_EACH_DIM(PARHC_GEN_CASE)
#undef PARHC_GEN_CASE
    default: break;  // unreachable: SupportedDim checked by ParseLine
  }
}

// `stats` is deliberately absent below: the REPL's batch output (including
// `help`) is pinned byte-for-byte to the pre-refactor implementation by
// tests/protocol_golden_test.cc. The verb is documented in README
// "Network serving" and protocol.h. `hello` and `cluster` are likewise
// absent for the same reason.
std::string HelpText() {
  return
      "commands:\n"
      "  gen <name> <dim> <uniform|varden|levy|gauss|embed> <n> [seed]\n"
      "  load <name> <csv|bin|snap> <path>\n"
      "  save <name> <dir>\n"
      "  dyn <name> <dim>\n"
      "  insert <name> <coords...>\n"
      "  geninsert <name> <dim> <kind> <n> [seed]\n"
      "  delete <name> <gid> [gid ...]\n"
      "  list | drop <name>\n"
      "  emst <name> [eps <e>]\n"
      "  slink <name> <k>\n"
      "  hdbscan <name> <minPts>\n"
      "  dbscan <name> <minPts> <eps>\n"
      "  reach <name> <minPts>\n"
      "  clusters <name> <minPts> <minClusterSize>\n"
      "  help | quit\n";
}

/// Comma-joined registry-hosted dimensions (the hello dim caps).
std::string ProtocolDims() {
  std::string out;
#define PARHC_DIM_ITEM(D)            \
  if (!out.empty()) out += ',';      \
  out += std::to_string(D);
  PARHC_FOR_EACH_DIM(PARHC_DIM_ITEM)
#undef PARHC_DIM_ITEM
  return out;
}

std::string TraceVerb(const Command& cmd) {
  obs::Tracer& tracer = obs::Tracer::Get();
  if (cmd.sub == "on") {
    tracer.Enable();
    return "ok trace on\n";
  }
  if (cmd.sub == "off") {
    tracer.Disable();
    return "ok trace off\n";
  }
  if (cmd.sub == "status") {
    return StrPrintf(
        "ok trace status enabled=%d spans=%llu dropped=%llu\n",
        tracer.enabled() ? 1 : 0,
        static_cast<unsigned long long>(tracer.spans_recorded()),
        static_cast<unsigned long long>(tracer.spans_dropped()));
  }
  if (cmd.sub == "clear") {
    tracer.Clear();
    return "ok trace clear\n";
  }
  if (cmd.sub != "dump") {
    return "err trace: usage: trace on|off|status|clear|dump <file>\n";
  }
  if (cmd.path.empty()) return "err trace: usage: trace dump <file>\n";
  size_t spans = 0;
  if (!tracer.DumpJsonToFile(cmd.path, &spans)) {
    return StrPrintf("err trace dump %s: cannot write\n", cmd.path.c_str());
  }
  return StrPrintf("ok trace dump %s spans=%zu\n", cmd.path.c_str(), spans);
}

std::string SlowlogVerb(const Command& cmd, obs::Observability* obs) {
  if (obs == nullptr) {
    return "err slowlog: no slow-query log in this front-end\n";
  }
  if (cmd.sub == "clear") {
    obs->slowlog.Clear();
    return "ok slowlog clear\n";
  }
  if (cmd.sub == "threshold") {
    if (cmd.bad_token) return "err slowlog: usage: slowlog threshold <us>\n";
    obs->slowlog.set_threshold_us(cmd.threshold_us);
    return StrPrintf("ok slowlog threshold_us=%llu\n",
                     static_cast<unsigned long long>(cmd.threshold_us));
  }
  if (!cmd.sub.empty()) {
    return "err slowlog: usage: slowlog [clear|threshold <us>]\n";
  }
  std::string out;
  std::vector<obs::SlowLogRecord> entries = obs->slowlog.Entries();
  for (const obs::SlowLogRecord& e : entries) {
    out += e.Format();
    out += '\n';
  }
  out += StrPrintf(
      "ok slowlog n=%zu threshold_us=%llu\n", entries.size(),
      static_cast<unsigned long long>(obs->slowlog.threshold_us()));
  return out;
}

ProtocolResult ParseAndExecute(
    const std::string& line,
    const std::function<ProtocolResult(const Command&)>& execute) {
  ProtocolResult res;
  if (line.empty() || line[0] == '#') return res;
  Command cmd;
  try {
    if (!ParseLine(line, &cmd, &res.out)) return res;
    return execute(cmd);
  } catch (const std::exception& e) {
    res.out = StrPrintf("err %.*s: %s\n",
                        static_cast<int>(cmd.verb_text.size()),
                        cmd.verb_text.data(), e.what());
  }
  return res;
}

}  // namespace

std::string StrPrintf(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  char buf[512];
  int n = vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  if (n < 0) return {};
  if (static_cast<size_t>(n) < sizeof buf) return std::string(buf, n);
  std::string big(static_cast<size_t>(n) + 1, '\0');
  va_start(ap, fmt);
  vsnprintf(&big[0], big.size(), fmt, ap);
  va_end(ap);
  big.resize(static_cast<size_t>(n));
  return big;
}

std::vector<std::vector<double>> GenerateRows(int dim,
                                              const std::string& kind,
                                              size_t n, uint64_t seed) {
  switch (dim) {
#define PARHC_GEN_CASE(D) \
  case D:                 \
    return RowsFrom(GenTyped<D>(kind, n, seed));
    PARHC_FOR_EACH_DIM(PARHC_GEN_CASE)
#undef PARHC_GEN_CASE
    default: return {};
  }
}

uint64_t ExtractTraceSuffix(std::string* line) {
  size_t pos = line->rfind(" trace=");
  if (pos == std::string::npos) return 0;
  size_t digits = pos + 7;
  if (digits >= line->size() || line->size() - digits > 20) return 0;
  uint64_t id = 0;
  for (size_t i = digits; i < line->size(); ++i) {
    char c = (*line)[i];
    if (c < '0' || c > '9') return 0;  // not the final token: keep the line
    id = id * 10 + static_cast<uint64_t>(c - '0');
  }
  if (id == 0) return 0;
  line->erase(pos);
  return id;
}

// Hot path under pipelined load: snprintf into a stack buffer, no
// ostringstream. `%.6g` is byte-identical to `ostream << double` at the
// default precision (what the original REPL printed through
// ostringstream) — pinned by tests/protocol_golden_test.cc.
std::string FormatQueryResponse(const std::string& what,
                                const std::string& name,
                                const EngineResponse& r, bool show_timing) {
  if (!r.ok) {
    return StrPrintf("err %s %s: %s\n", what.c_str(), name.c_str(),
                     r.error.c_str());
  }
  char body[256];
  body[0] = '\0';
  size_t off = 0;
  auto put = [&body, &off](const char* fmt, auto... args) {
    if (off >= sizeof body) return;
    int n = snprintf(body + off, sizeof body - off, fmt, args...);
    if (n > 0) off = std::min(off + static_cast<size_t>(n), sizeof body);
  };
  if (r.mst) {
    put(" mst_edges=%zu mst_weight=%.6g", r.mst->size(), r.mst_weight);
  }
  if (r.approx_eps >= 0) {
    // High-dim EMST path: surface the approximation contract (eps bound,
    // decomposition width, how many cross pairs took the eps shortcut).
    put(" eps=%.6g partitions=%d cross_pruned=%zu", r.approx_eps,
        r.partitions, r.cross_pruned);
  }
  if (!r.labels.empty()) {
    put(" clusters=%d noise=%zu", r.num_clusters, r.num_noise);
  }
  if (r.plot) put(" plot_points=%zu", r.plot->order.size());
  if (r.dendrogram && !r.plot && r.labels.empty()) {
    put(" dendro_root_height=%.6g",
        r.dendrogram->num_points() > 1
            ? r.dendrogram->Height(r.dendrogram->root())
            : 0.0);
  }
  char tail[32];
  tail[0] = '\0';
  if (show_timing) snprintf(tail, sizeof tail, " secs=%.4f", r.seconds);
  return StrPrintf("ok %s %s%s built=%s reused=%s%s\n", what.c_str(),
                   name.c_str(), body, JoinKeys(r.built).c_str(),
                   JoinKeys(r.reused).c_str(), tail);
}

std::string InsertRows(const Command& cmd, int dim,
                       std::vector<std::vector<double>>* rows) {
  // A malformed token must not silently truncate the batch and print "ok".
  if (cmd.bad_token) {
    return StrPrintf("err insert %s: malformed coordinate\n",
                     cmd.name.c_str());
  }
  const std::vector<double>& vals = cmd.coords;
  if (vals.empty() || vals.size() % static_cast<size_t>(dim) != 0) {
    return StrPrintf("err insert %s: need a multiple of %d coordinates\n",
                     cmd.name.c_str(), dim);
  }
  rows->resize(vals.size() / dim);
  for (size_t i = 0; i < rows->size(); ++i) {
    (*rows)[i].assign(vals.begin() + i * dim, vals.begin() + (i + 1) * dim);
  }
  return "";
}

ProtocolResult ExecuteLine(
    const std::string& line,
    const std::function<ProtocolResult(const Command&)>& execute) {
  obs::Tracer& tracer = obs::Tracer::Get();
  if (obs::CurrentTraceId() != 0) return ParseAndExecute(line, execute);
  // Strip unconditionally, so untraced front-ends still parse forwarded
  // lines.
  std::string stripped = line;
  uint64_t propagated = ExtractTraceSuffix(&stripped);
  if (propagated == 0 && !tracer.enabled()) {
    return ParseAndExecute(stripped, execute);
  }
  obs::TraceContext ctx(propagated ? propagated : tracer.MintTraceId());
  using VC = obs::VerbCounters;
  obs::Span span(
      VC::kRequestSpanNames[VC::IndexOf(Tokenizer(stripped).Next())], "net");
  return ParseAndExecute(stripped, execute);
}

ProtocolResult HandleCommonVerb(const Command& cmd,
                                const ProtocolOptions& opts,
                                const char* role) {
  ProtocolResult res;
  switch (cmd.verb) {
    case VerbId("quit"):
      res.quit = true;
      break;
    case VerbId("help"):
      res.out = HelpText();
      break;
    case VerbId("hello"):
      res.out = StrPrintf("ok hello proto=%d role=%s dims=%s\n",
                          kProtocolVersion, role, ProtocolDims().c_str());
      break;
    case VerbId("metrics"):
      if (opts.obs == nullptr) {
        res.out = "err metrics: no metrics registry in this front-end\n";
      } else if (cmd.sub == "json") {
        res.out = opts.obs->metrics.Json();
        res.out += '\n';
      } else if (!cmd.sub.empty()) {
        res.out = "err metrics: usage: metrics [json]\n";
      } else {
        res.out = opts.obs->metrics.PrometheusText();
        res.out += "ok metrics\n";
      }
      break;
    case VerbId("trace"):
      res.out = TraceVerb(cmd);
      break;
    case VerbId("slowlog"):
      res.out = SlowlogVerb(cmd, opts.obs);
      break;
    default:
      res.out = StrPrintf("err unknown command: %.*s (try help)\n",
                          static_cast<int>(cmd.verb_text.size()),
                          cmd.verb_text.data());
  }
  return res;
}

bool ProtocolSession::TryHandleCachedQuery(const std::string& line,
                                           std::string* out) {
  // The verb decides first, so a long non-query line (an insert batch) is
  // not parsed on the event loop only to be declined.
  if (!IsQueryVerb(VerbId(Tokenizer(line).Next()))) return false;
  Command cmd;
  std::string err;
  if (!ParseLine(line, &cmd, &err)) return false;
  EngineResponse r;
  if (!engine_.TryRunCached(cmd.query, &r)) return false;
  *out = FormatQueryResponse(std::string(cmd.verb_text), cmd.query.dataset, r,
                             opts_.show_timing);
  return true;
}

std::string VerbOf(const WireMessage& msg) {
  if (msg.binary) return "frame";
  return std::string(Tokenizer(msg.text).Next());
}

ProtocolResult ProtocolSession::HandleLine(const std::string& line) {
  return ExecuteLine(line, [this](const Command& cmd) { return Execute(cmd); });
}

ProtocolResult ProtocolSession::Execute(const Command& cmd) {
  ProtocolResult res;
  std::string& out = res.out;
  const std::string& name = cmd.name;
  switch (cmd.verb) {
    case VerbId("stats"):
      out = "ok stats ";
      if (opts_.stats_source) {
        out += opts_.stats_source->Stats().Format();
        out += ' ';
      }
      out += engine_.counters().Format();
      out += ' ';
      out += engine_.executor().stats().Format();
      out += '\n';
      break;
    case VerbId("gen"):
      // Generators issue parallel scheduler work, so they run as an
      // executor task inside a worker group (see engine.h::RunExternal).
      engine_.RunExternal([&] {
        Generate(engine_.registry(), name, cmd.dim, cmd.kind, cmd.n, cmd.seed);
      });
      out = StrPrintf("ok gen %s dim=%d n=%zu kind=%s\n", name.c_str(),
                      cmd.dim, cmd.n, cmd.kind.c_str());
      break;
    case VerbId("load"): {
      const std::string& fmt = cmd.kind;
      std::string err;
      if (fmt == "snap") {
        // Snapshot problems (missing, truncated, corrupt, or
        // version-mismatched files) come back as typed errors turned
        // into strings — never aborts.
        err = engine_.LoadDataset(name, cmd.path);
      } else {
        if (std::ifstream probe(cmd.path); !probe.good()) {
          out = StrPrintf("err load %s: cannot open %s\n", name.c_str(),
                          cmd.path.c_str());
          break;
        }
        // Both loaders surface bad data as errors (CSV parse failures
        // and malformed binary files throw; caught by ExecuteLine), never
        // aborts.
        err = fmt == "csv"
                  ? engine_.registry().TryAddRows(name, ReadPointsCsv(cmd.path))
                  : engine_.registry().TryAddBin(name, cmd.path);
      }
      if (!err.empty()) {
        out = StrPrintf("err load %s: %s\n", name.c_str(), err.c_str());
        break;
      }
      auto entry = engine_.registry().Find(name);
      out = StrPrintf("ok load %s dim=%d n=%zu%s\n", name.c_str(),
                      entry->dim(), entry->num_points(),
                      fmt == "snap" ? " warm" : "");
      break;
    }
    case VerbId("save"): {
      std::string err = engine_.SaveDataset(name, cmd.path);
      out = err.empty()
                ? StrPrintf("ok save %s dir=%s\n", name.c_str(),
                            cmd.path.c_str())
                : StrPrintf("err save %s: %s\n", name.c_str(), err.c_str());
      break;
    }
    case VerbId("dyn"): {
      std::string err = engine_.registry().TryAddDynamic(name, cmd.dim);
      out = err.empty()
                ? StrPrintf("ok dyn %s dim=%d\n", name.c_str(), cmd.dim)
                : StrPrintf("err dyn %s: %s\n", name.c_str(), err.c_str());
      break;
    }
    case VerbId("insert"): {
      auto entry = engine_.registry().Find(name);
      if (!entry) {
        out = StrPrintf("err insert %s: unknown dataset\n", name.c_str());
        break;
      }
      std::vector<std::vector<double>> rows;
      out = InsertRows(cmd, entry->dim(), &rows);
      if (out.empty()) out = DoInsert(name, rows);
      break;
    }
    case VerbId("geninsert"): {
      // ParseLine checked the generator kind, so a typo never reaches the
      // create-if-absent side effect below. (Executor task: generators
      // issue parallel work; see `gen` above.)
      std::vector<std::vector<double>> rows = engine_.RunExternal(
          [&] { return GenerateRows(cmd.dim, cmd.kind, cmd.n, cmd.seed); });
      if (!engine_.registry().Find(name)) {
        engine_.registry().TryAddDynamic(name, cmd.dim);
      }
      uint32_t first = 0;
      std::string err = engine_.InsertBatch(name, rows, &first);
      out = err.empty() ? StrPrintf("ok geninsert %s n=%zu gids=[%u,%u)\n",
                                    name.c_str(), cmd.n, first,
                                    first + static_cast<uint32_t>(cmd.n))
                        : StrPrintf("err geninsert %s: %s\n", name.c_str(),
                                    err.c_str());
      break;
    }
    case VerbId("delete"): {
      size_t deleted = 0;
      std::string err = engine_.DeleteBatch(name, cmd.gids, &deleted);
      out = err.empty()
                ? StrPrintf("ok delete %s deleted=%zu\n", name.c_str(),
                            deleted)
                : StrPrintf("err delete %s: %s\n", name.c_str(), err.c_str());
      break;
    }
    case VerbId("list"):
      for (const DatasetInfo& info : engine_.registry().List()) {
        std::string extra;
        if (info.dynamic) {
          extra = " dynamic shards=" + std::to_string(info.num_shards);
        }
        out += StrPrintf("dataset %s dim=%d n=%zu knn_k=%zu cached=%zu%s\n",
                         info.name.c_str(), info.dim, info.num_points,
                         info.knn_k, info.cached_clusterings, extra.c_str());
      }
      out += "ok list\n";
      break;
    case VerbId("drop"):
      out = StrPrintf(engine_.registry().Remove(name)
                          ? "ok drop %s\n"
                          : "err drop %s: unknown\n",
                      name.c_str());
      break;
    case VerbId("emst"):
    case VerbId("slink"):
    case VerbId("hdbscan"):
    case VerbId("dbscan"):
    case VerbId("reach"):
    case VerbId("clusters"):
      out = FormatQueryResponse(std::string(cmd.verb_text), cmd.query.dataset,
                                engine_.Run(cmd.query), opts_.show_timing);
      break;
    default:
      return HandleCommonVerb(cmd, opts_, "engine");
  }
  return res;
}

ProtocolResult ProtocolSession::HandleFrame(uint8_t opcode,
                                            const std::string& payload) {
  ProtocolResult res;
  std::string& out = res.out;
  try {
    PayloadReader rd(payload);
    if (opcode == kOpInsertPoints) {
      InsertFrame f;
      out = DecodeInsertFrame(payload, &f);
      if (!out.empty()) return res;
      auto entry = engine_.registry().Find(f.name);
      if (!entry) {
        out = StrPrintf("err insert %s: unknown dataset\n", f.name.c_str());
      } else if (entry->dim() != f.dim) {
        out = StrPrintf("err insert %s: frame dim %d != dataset dim %d\n",
                        f.name.c_str(), f.dim, entry->dim());
      } else {
        out = DoInsert(f.name, f.rows);
      }
    } else if (opcode == kOpGetLabels) {
      EngineRequest req;
      out = DecodeLabelsFrame(payload, &req);
      if (!out.empty()) return res;
      EngineResponse r = engine_.Run(req);
      out = r.ok ? EncodeLabelsReply(r.labels)
                 : StrPrintf("err labels %s: %s\n", req.dataset.c_str(),
                             r.error.c_str());
    } else if (opcode == kOpExportPoints) {
      std::string name = rd.GetBytes(rd.GetU16());
      if (!rd.ok() || name.empty() || rd.remaining() != 0) {
        out = "err export: malformed frame payload\n";
        return res;
      }
      int dim = 0;
      std::vector<uint32_t> gids;
      std::vector<double> coords;
      std::string err = engine_.ExportDataset(name, &dim, &gids, &coords);
      if (!err.empty()) {
        out = StrPrintf("err export %s: %s\n", name.c_str(), err.c_str());
        return res;
      }
      std::string reply;
      reply.reserve(6 + gids.size() * 4 + coords.size() * 8);
      PutU16(&reply, static_cast<uint16_t>(dim));
      PutU32(&reply, static_cast<uint32_t>(gids.size()));
      for (uint32_t g : gids) PutU32(&reply, g);
      for (double v : coords) PutF64(&reply, v);
      out = EncodeFrame(kOpPointsReply, reply);
    } else if (opcode == kOpExportMst) {
      std::string name = rd.GetBytes(rd.GetU16());
      if (!rd.ok() || name.empty() || rd.remaining() != 0) {
        out = "err export: malformed frame payload\n";
        return res;
      }
      EngineRequest req;
      req.type = QueryType::kEmst;
      req.dataset = name;
      EngineResponse r = engine_.Run(req);
      if (!r.ok) {
        out = StrPrintf("err export %s: %s\n", name.c_str(), r.error.c_str());
        return res;
      }
      // MST endpoints are dense point indices; rewrite to global ids, which
      // stay valid across mutations (point_ids is null for static
      // datasets, where dense index == gid).
      size_t count = r.mst ? r.mst->size() : 0;
      std::string reply;
      reply.reserve(4 + count * 16);
      PutU32(&reply, static_cast<uint32_t>(count));
      for (size_t i = 0; i < count; ++i) {
        const WeightedEdge& e = (*r.mst)[i];
        PutU32(&reply, r.point_ids ? (*r.point_ids)[e.u] : e.u);
        PutU32(&reply, r.point_ids ? (*r.point_ids)[e.v] : e.v);
        PutF64(&reply, e.w);
      }
      out = EncodeFrame(kOpEdgesReply, reply);
    } else if (opcode == kOpKnnQuery) {
      KnnFrame f;
      out = DecodeKnnFrame(payload, &f);
      if (!out.empty()) return res;
      std::vector<double> rows;
      std::string err =
          engine_.KnnForQueries(f.name, f.k, f.coords, f.count, &rows);
      if (!err.empty()) {
        out = StrPrintf("err knn %s: %s\n", f.name.c_str(), err.c_str());
        return res;
      }
      std::string reply;
      reply.reserve(8 + rows.size() * 8);
      PutU32(&reply, f.count);
      PutU32(&reply, f.k);
      for (double v : rows) PutF64(&reply, v);
      out = EncodeFrame(kOpKnnReply, reply);
    } else {
      out = StrPrintf("err frame: unknown opcode 0x%02x\n", opcode);
    }
  } catch (const std::exception& e) {
    out = StrPrintf("err frame: %s\n", e.what());
  }
  return res;
}

std::string ProtocolSession::DoInsert(
    const std::string& name, const std::vector<std::vector<double>>& rows) {
  uint32_t first = 0;
  std::string err = engine_.InsertBatch(name, rows, &first);
  if (!err.empty()) {
    return StrPrintf("err insert %s: %s\n", name.c_str(), err.c_str());
  }
  return StrPrintf("ok insert %s n=%zu gids=[%u,%u)\n", name.c_str(),
                   rows.size(), first,
                   first + static_cast<uint32_t>(rows.size()));
}

}  // namespace net
}  // namespace parhc
