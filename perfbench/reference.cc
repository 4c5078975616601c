// Seeded inputs and the in-process reference answers.
#include <algorithm>
#include <cstdio>
#include <random>

#include "bench.h"
#include "net/protocol.h"
#include "obs/trace.h"
#include "parhc.h"
#include "wire.h"

namespace perfbench {

using namespace parhc;  // NOLINT — benchmark client only

Inputs MakeInputs(size_t n, uint64_t seed) {
  Inputs in;
  in.pts2 = SeedSpreaderVarden<2>(n, seed);
  for (int d = 0; d < kCold3Draws; ++d) {
    in.pts3.push_back(UniformFill<3>(n, seed + 1000003ull * d));
  }
  // The dynamic set and its insert stream are one varden draw, shuffled, so
  // inserted points follow the seeded points' distribution.
  std::vector<Point<2>> pool = SeedSpreaderVarden<2>(2 * n, seed + 7919);
  std::mt19937_64 rng(seed);
  std::shuffle(pool.begin(), pool.end(), rng);
  in.dyn_seed.assign(pool.begin(), pool.begin() + n);
  in.dyn_stream.assign(pool.begin() + n, pool.end());
  return in;
}

bool Tally::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (first_failures.size() < 8) first_failures.push_back(what);
  }
  return ok;
}

std::vector<ColdStep> ColdSequence(int dim) {
  std::string mp = std::to_string(kMinPts);
  std::vector<ColdStep> seq = {{"hdbscan", mp},
                               {"clusters", mp + " " + std::to_string(kMinClusterSize)},
                               {"reach", mp},
                               {"emst", ""}};
  if (dim == 2) {
    for (int m : kSweep) seq.push_back({"hdbscan", std::to_string(m)});
  }
  return seq;
}

std::string Line(const ColdStep& step, const std::string& dataset) {
  std::string line = step.verb + " " + dataset;
  if (!step.args.empty()) line += " " + step.args;
  return line + "\n";
}

std::string RenameDataset(const std::string& reply, const std::string& to) {
  size_t a = reply.find(' ');
  if (a != std::string::npos) a = reply.find(' ', a + 1);
  if (a == std::string::npos) return reply;
  size_t b = reply.find_first_of(" :\n", a + 1);
  if (b == std::string::npos) return reply;
  return reply.substr(0, a + 1) + to + reply.substr(b);
}

bool EdgeReplyWeights(const std::string& frame, std::vector<double>* w) {
  if (frame.size() < net::kFrameHeaderBytes ||
      static_cast<uint8_t>(frame[1]) != net::kOpEdgesReply) {
    return false;
  }
  std::string payload = frame.substr(net::kFrameHeaderBytes);
  net::PayloadReader rd(payload);
  uint32_t count = rd.GetU32();
  w->clear();
  w->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    rd.GetU32();
    rd.GetU32();
    w->push_back(rd.GetF64());
  }
  std::sort(w->begin(), w->end());
  return rd.ok() && rd.remaining() == 0;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

namespace {

std::vector<double> SortedWeights(const std::vector<WeightedEdge>& edges) {
  std::vector<double> w;
  w.reserve(edges.size());
  for (const WeightedEdge& e : edges) w.push_back(e.w);
  std::sort(w.begin(), w.end());
  return w;
}

std::string LabelsFrame(int kind, double eps) {
  std::string payload;
  net::PutU16(&payload, 1);
  payload += "w";
  payload.push_back(static_cast<char>(kind));
  net::PutU32(&payload, kMinPts);
  if (kind == 0) {
    net::PutF64(&payload, eps);
  } else {
    net::PutU64(&payload, kMinClusterSize);
  }
  return net::EncodeFrame(net::kOpGetLabels, payload);
}

EngineRequest Request(QueryType type, const std::string& dataset) {
  EngineRequest req;
  req.type = type;
  req.dataset = dataset;
  req.min_pts = kMinPts;
  return req;
}

/// One-shot library MSTs must equal the engine's cached ones bit for bit.
template <int D>
void CheckOneShot(ClusteringEngine& engine, const std::string& name,
                  const std::vector<Point<D>>& pts, Tally* tally,
                  std::vector<double>* emst_weights) {
  EngineResponse h = engine.Run(Request(QueryType::kHdbscan, name));
  tally->Check(h.ok && SortedWeights(*h.mst) ==
                           SortedWeights(HdbscanMst(pts, kMinPts).mst),
               "engine hdbscan " + name + " != one-shot HdbscanMst");
  EngineResponse e = engine.Run(Request(QueryType::kEmst, name));
  *emst_weights = SortedWeights(EmstMemoGfk(pts));
  tally->Check(e.ok && SortedWeights(*e.mst) == *emst_weights,
               "engine emst " + name + " != one-shot EmstMemoGfk");
}

/// Median wall time in microseconds of `reps` calls of `fn`, each inside a
/// bench span named `span`.
template <typename Fn>
double MedianCallUs(const char* span, int reps, Fn&& fn) {
  std::vector<double> us;
  us.reserve(reps);
  for (int i = 0; i < reps; ++i) {
    double t0 = NowSeconds();
    {
      obs::Span s(span, "bench");
      fn(i);
    }
    us.push_back((NowSeconds() - t0) * 1e6);
  }
  return Median(us);
}

}  // namespace

Reference BuildReference(const Inputs& in, Tally* tally, Metrics* layers) {
  Reference ref;
  ClusteringEngine engine;
  engine.registry().Add("w", in.pts2);
  engine.registry().Add("c3", in.pts3[0]);
  net::ProtocolOptions popts;
  popts.show_timing = false;
  net::ProtocolSession session(engine, popts);
  auto answer = [&](const std::string& line) {
    std::string out = session.HandleLine(line.substr(0, line.size() - 1)).out;
    tally->Check(out.compare(0, 3, "ok ") == 0, "reference: " + out);
    return out;
  };
  for (const ColdStep& step : ColdSequence(2)) {
    ref.cold2.push_back(answer(Line(step, "w")));
  }
  ref.cold3.resize(in.pts3.size());
  for (size_t d = 0; d < in.pts3.size(); ++d) {
    const std::string name = d == 0 ? "c3" : "c3_" + std::to_string(d);
    if (d > 0) engine.registry().Add(name, in.pts3[d]);
    for (const ColdStep& step : ColdSequence(3)) {
      ref.cold3[d].push_back(RenameDataset(answer(Line(step, name)), "c3"));
    }
  }
  CheckOneShot(engine, "w", in.pts2, tally, &ref.emst2);
  CheckOneShot(engine, "c3", in.pts3[0], tally, &ref.emst3);

  const std::string mp = std::to_string(kMinPts);
  for (std::string line : {"hdbscan w " + mp, std::string("emst w"),
                           "reach w " + mp}) {
    line += "\n";
    ref.summary.emplace_back(line, answer(line));
  }
  // DBSCAN* cut heights at quantiles of the HDBSCAN* MST's edge weights:
  // mostly-noise, mid and coarse cuts of the same hierarchy.
  EngineResponse h = engine.Run(Request(QueryType::kHdbscan, "w"));
  std::vector<double> mst_w = SortedWeights(*h.mst);
  std::vector<double> eps;
  for (double q : {0.5, 0.9, 0.99}) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", Quantile(mst_w, q));
    eps.push_back(std::strtod(buf, nullptr));
    std::string line = "dbscan w " + mp + " " + buf + "\n";
    ref.labels.emplace_back(line, answer(line));
  }
  std::string clusters =
      "clusters w " + mp + " " + std::to_string(kMinClusterSize) + "\n";
  ref.labels.emplace_back(clusters, answer(clusters));
  for (int kind : {1, 0}) {
    std::string frame = LabelsFrame(kind, eps[1]);
    std::string out =
        session
            .HandleFrame(static_cast<uint8_t>(frame[1]),
                         frame.substr(net::kFrameHeaderBytes))
            .out;
    tally->Check(!out.empty() && static_cast<uint8_t>(out[0]) ==
                                     net::kFrameMagic,
                 "reference labels frame: " + out.substr(0, 80));
    ref.labels.emplace_back(frame, out);
  }

  if (layers != nullptr) {
    // Warm-path layer calls on the same warm engine, at nproc workers.
    constexpr int kReps = 300;
    obs::Tracer::Get().Enable();
    std::string out;
    auto line_of = [&](int i) {
      const std::string& l = ref.summary[i % ref.summary.size()].first;
      return l.substr(0, l.size() - 1);
    };
    double handle = MedianCallUs("layer:net.handle_line", kReps, [&](int i) {
      out = session.HandleLine(line_of(i)).out;
    });
    double inline_us = MedianCallUs("layer:net.try_inline", kReps, [&](int i) {
      session.TryHandleCachedQuery(line_of(i), &out);
    });
    EngineRequest cached = Request(QueryType::kHdbscan, "w");
    double run_us = MedianCallUs("layer:engine.run_cached", kReps, [&](int) {
      engine.Run(cached);
    });
    double labels_us = MedianCallUs("layer:dendrogram.labels", 10, [&](int) {
      ExtractStableClusters(*h.dendrogram, kMinClusterSize);
      DbscanStarLabels(*h.dendrogram, *h.core_dist, eps[1]);
    });
    obs::Tracer::Get().Disable();
    (*layers)["net.handle_line_us"] = {handle, "us"};
    (*layers)["net.try_inline_us"] = {inline_us, "us"};
    (*layers)["engine.run_cached_us"] = {run_us, "us"};
    (*layers)["dendrogram.labels_ms"] = {labels_us / 1e3, "ms"};
  }
  return ref;
}

}  // namespace perfbench
