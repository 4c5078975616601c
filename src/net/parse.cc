// The request parser: text lines and request frames to typed commands,
// under the token rules stated once in protocol.h.
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <type_traits>

#include "net/protocol.h"

namespace parhc {
namespace net {
namespace {

bool IsStreamSpace(char ch) {
  return ch == ' ' || ch == '\t' || ch == '\n' || ch == '\v' || ch == '\f' ||
         ch == '\r';
}

/// An optional sign (signed T only) plus decimal digits filling the
/// token, in range for T.
template <typename T>
bool ParseInt(std::string_view tok, T* out) {
  bool neg = false;
  if (std::is_signed_v<T> && !tok.empty() && (tok[0] == '+' || tok[0] == '-')) {
    neg = tok[0] == '-';
    tok.remove_prefix(1);
  }
  // Digits only from here: from_chars on an unsigned type takes no sign.
  uint64_t mag = 0;
  const char* end = tok.data() + tok.size();
  auto [stop, ec] = std::from_chars(tok.data(), end, mag);
  if (ec != std::errc() || stop != end ||
      mag > static_cast<uint64_t>(std::numeric_limits<T>::max()) + neg) {
    return false;
  }
  *out = neg ? static_cast<T>(-static_cast<int64_t>(mag)) : static_cast<T>(mag);
  return true;
}

/// A decimal number filling the token — [+-] (d+[.d*] | .d+) [(e|E)[+-]d+]
/// — with a finite value. strtod rounds exactly as stream extraction
/// does, so a well-formed value reads the same bits on every path.
bool ParseDouble(std::string_view tok, double* out) {
  size_t i = 0;
  auto sign = [&] {
    if (i < tok.size() && (tok[i] == '+' || tok[i] == '-')) ++i;
  };
  auto digits = [&] {
    size_t b = i;
    while (i < tok.size() && tok[i] >= '0' && tok[i] <= '9') ++i;
    return i - b;
  };
  sign();
  size_t mantissa = digits();
  if (i < tok.size() && tok[i] == '.') {
    ++i;
    mantissa += digits();
  }
  if (mantissa == 0) return false;
  if (i < tok.size() && (tok[i] == 'e' || tok[i] == 'E')) {
    ++i;
    sign();
    if (digits() == 0) return false;
  }
  if (i != tok.size()) return false;
  std::string terminated(tok);
  double v = std::strtod(terminated.c_str(), nullptr);
  if (!std::isfinite(v)) return false;
  *out = v;
  return true;
}

bool IsGeneratorKind(std::string_view kind) {
  return kind == "uniform" || kind == "varden" || kind == "levy" ||
         kind == "gauss" || kind == "embed";
}

/// The six query verbs; false with *err set when the line breaks the
/// grammar.
bool ParseQuery(Tokenizer& tok, Command* cmd, std::string* err) {
  EngineRequest& q = cmd->query;
  q.dataset = tok.Next();
  bool ok = !q.dataset.empty();
  switch (cmd->verb) {
    case VerbId("emst"):
      q.type = QueryType::kEmst;
      // Optional `eps <e>` suffix routes to the partitioned
      // high-dimensional path (emst/emst_highdim.h); eps 0 is the exact
      // distance decomposition.
      if (std::string_view sub = tok.Next(); !sub.empty()) {
        if (sub != "eps" || !ParseDouble(tok.Next(), &q.emst_eps) ||
            q.emst_eps < 0) {
          *err = "err emst: usage: emst <name> [eps <e>]\n";
          return false;
        }
      }
      break;
    case VerbId("slink"):
      q.type = QueryType::kSingleLinkage;
      ok = ok && ParseInt(tok.Next(), &q.k);
      break;
    case VerbId("hdbscan"):
      q.type = QueryType::kHdbscan;
      ok = ok && ParseInt(tok.Next(), &q.min_pts);
      break;
    case VerbId("dbscan"):
      q.type = QueryType::kDbscanStarAt;
      ok = ok && ParseInt(tok.Next(), &q.min_pts) &&
           ParseDouble(tok.Next(), &q.eps);
      break;
    case VerbId("reach"):
      q.type = QueryType::kReachability;
      ok = ok && ParseInt(tok.Next(), &q.min_pts);
      break;
    default:
      q.type = QueryType::kStableClusters;
      ok = ok && ParseInt(tok.Next(), &q.min_pts) &&
           ParseInt(tok.Next(), &q.min_cluster_size);
  }
  // A missing or malformed argument must not silently fall back to a
  // default parameterization and print "ok".
  if (!ok) {
    *err = StrPrintf("err %.*s: missing or malformed arguments (try help)\n",
                     static_cast<int>(cmd->verb_text.size()),
                     cmd->verb_text.data());
  }
  return ok;
}

}  // namespace

std::string_view Tokenizer::Next() {
  size_t b = 0;
  while (b < rest_.size() && IsStreamSpace(rest_[b])) ++b;
  size_t e = b;
  while (e < rest_.size() && !IsStreamSpace(rest_[e])) ++e;
  std::string_view tok = rest_.substr(b, e - b);
  rest_.remove_prefix(e);
  return tok;
}

bool IsQueryVerb(int verb_id) {
  switch (verb_id) {
    case VerbId("emst"):
    case VerbId("slink"):
    case VerbId("hdbscan"):
    case VerbId("dbscan"):
    case VerbId("reach"):
    case VerbId("clusters"):
      return true;
    default:
      return false;
  }
}

bool ParseLine(std::string_view line, Command* cmd, std::string* err) {
  Tokenizer tok(line);
  cmd->line = line;
  cmd->verb_text = tok.Next();
  cmd->verb = VerbId(cmd->verb_text);
  if (IsQueryVerb(cmd->verb)) return ParseQuery(tok, cmd, err);
  if (cmd->verb == VerbId("metrics") || cmd->verb == VerbId("trace") ||
      cmd->verb == VerbId("slowlog")) {
    // Sub-commands are checked by HandleCommonVerb, after the front-end
    // checks that come first.
    cmd->sub = tok.Next();
    if (cmd->sub == "threshold") {
      cmd->bad_token = !ParseInt(tok.Next(), &cmd->threshold_us);
    } else {
      cmd->path = tok.Next();
    }
    return true;
  }
  cmd->name = tok.Next();
  switch (cmd->verb) {
    case VerbId("gen"):
    case VerbId("geninsert"): {
      bool gen = cmd->verb == VerbId("gen");
      bool ok = !cmd->name.empty() && ParseInt(tok.Next(), &cmd->dim) &&
                DatasetRegistry::SupportedDim(cmd->dim);
      cmd->kind = tok.Next();
      ok = ok && !cmd->kind.empty() && ParseInt(tok.Next(), &cmd->n) &&
           cmd->n != 0;
      if (std::string_view seed = tok.Next(); !seed.empty()) {
        ok = ok && ParseInt(seed, &cmd->seed);
      }
      if (ok && !IsGeneratorKind(cmd->kind)) {
        if (!gen) {
          *err = StrPrintf("err geninsert: unknown kind %s\n",
                           cmd->kind.c_str());
          return false;
        }
        ok = false;
      }
      if (!ok) {
        *err = gen ? "err gen: usage/unsupported dim or kind\n"
                   : "err geninsert: usage/unsupported dim\n";
      }
      return ok;
    }
    case VerbId("load"):
      cmd->kind = tok.Next();
      cmd->path = tok.Next();
      if (cmd->kind != "csv" && cmd->kind != "bin" && cmd->kind != "snap") {
        *err = "err load: format must be csv, bin, or snap\n";
        return false;
      }
      return true;
    case VerbId("save"):
      cmd->path = tok.Next();
      if (cmd->name.empty() || cmd->path.empty()) {
        *err = "err save: usage: save <name> <dir>\n";
        return false;
      }
      return true;
    case VerbId("dyn"):
      if (cmd->name.empty() || !ParseInt(tok.Next(), &cmd->dim)) {
        *err = "err dyn: usage: dyn <name> <dim>\n";
        return false;
      }
      return true;
    case VerbId("insert"):
      // A malformed coordinate is reported after the dataset lookup
      // (InsertRows), so an unknown dataset still answers first.
      for (std::string_view t = tok.Next(); !t.empty(); t = tok.Next()) {
        double v = 0;
        if (!ParseDouble(t, &v)) {
          cmd->bad_token = true;
          break;
        }
        cmd->coords.push_back(v);
      }
      return true;
    case VerbId("delete"):
      for (std::string_view t = tok.Next(); !t.empty(); t = tok.Next()) {
        uint32_t gid = 0;
        if (!ParseInt(t, &gid)) {
          *err = StrPrintf("err delete %s: malformed gid\n", cmd->name.c_str());
          return false;
        }
        cmd->gids.push_back(gid);
      }
      if (cmd->name.empty() || cmd->gids.empty()) {
        *err = "err delete: usage: delete <name> <gid> [gid ...]\n";
        return false;
      }
      return true;
    default:
      return true;  // the remaining verbs read at most `name`
  }
}

std::string DecodeInsertFrame(const std::string& payload, InsertFrame* out) {
  PayloadReader rd(payload);
  out->name = rd.GetBytes(rd.GetU16());
  out->dim = static_cast<int>(rd.GetU16());
  uint32_t count = rd.GetU32();
  if (!rd.ok() || out->name.empty() || out->dim <= 0 || count == 0 ||
      rd.remaining() !=
          static_cast<size_t>(count) * out->dim * sizeof(double)) {
    return "err insert: malformed frame payload\n";
  }
  out->rows.assign(count, std::vector<double>(out->dim));
  for (auto& row : out->rows) {
    for (double& v : row) v = rd.GetF64();
  }
  return "";
}

std::string DecodeLabelsFrame(const std::string& payload, EngineRequest* out) {
  PayloadReader rd(payload);
  out->dataset = rd.GetBytes(rd.GetU16());
  uint8_t kind = rd.GetU8();
  out->min_pts = static_cast<int>(rd.GetU32());
  if (kind == 0) {
    out->type = QueryType::kDbscanStarAt;
    out->eps = rd.GetF64();
  } else {
    out->type = QueryType::kStableClusters;
    out->min_cluster_size = static_cast<size_t>(rd.GetU64());
  }
  if (!rd.ok() || out->dataset.empty() || kind > 1 || rd.remaining() != 0) {
    return "err labels: malformed frame payload\n";
  }
  return "";
}

std::string DecodeKnnFrame(const std::string& payload, KnnFrame* out) {
  PayloadReader rd(payload);
  out->name = rd.GetBytes(rd.GetU16());
  out->k = rd.GetU32();
  out->dim = static_cast<int>(rd.GetU16());
  out->count = rd.GetU32();
  if (!rd.ok() || out->name.empty() || out->k == 0 || out->dim <= 0 ||
      out->count == 0 ||
      rd.remaining() !=
          static_cast<size_t>(out->count) * out->dim * sizeof(double)) {
    return "err knn: malformed frame payload\n";
  }
  out->coords.resize(static_cast<size_t>(out->count) * out->dim);
  for (double& v : out->coords) v = rd.GetF64();
  return "";
}

std::string EncodeLabelsReply(const std::vector<int32_t>& labels) {
  std::string reply;
  reply.reserve(4 + labels.size() * 4);
  PutU32(&reply, static_cast<uint32_t>(labels.size()));
  for (int32_t l : labels) PutU32(&reply, static_cast<uint32_t>(l));
  return EncodeFrame(kOpLabelsReply, reply);
}

}  // namespace net
}  // namespace parhc
