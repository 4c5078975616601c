#!/usr/bin/env python3
"""Observability scrape smoke: drive a live parhc_netserver and validate
the `metrics`, `slowlog`, and `trace` verbs end to end.

Launches the server on an ephemeral port with tracing on and a zero
slow-query threshold, runs a short query workload over TCP, then checks:

  * the Prometheus exposition is well-formed (every sample line belongs
    to a family with # HELP and # TYPE headers) and every required
    family is present;
  * accounting closes: sum(parhc_server_requests_total{verb=...}) equals
    parhc_server_served_total, and parhc_server_protocol_errors_total
    is 0 (the per-verb counters are bumped only after a response is
    produced, so the two views must agree at quiescence);
  * the latency histogram is internally consistent (cumulative buckets
    monotone, +Inf bucket == _count > 0);
  * the workload's `hdbscan` and `emst` builds moved every algorithm work
    counter: each parhc_algo_*_total is > 0 (a family that exists but reads
    0 is a counter nothing increments), and BCCP point distances are at
    least the BCCP calls that evaluated them;
  * `metrics json` is valid JSON mirroring the same families;
  * `slowlog` holds records (threshold 0 makes every query slow);
  * `trace dump` writes valid Chrome trace_event JSON whose events carry
    the full schema (name/cat/ph/ts/dur/pid/tid/args.trace).

Usage: ci/check_metrics.py [--binary build/parhc_netserver]
"""

import argparse
import json
import os
import re
import socket
import subprocess
import sys
import tempfile

REQUIRED_FAMILIES = [
    "parhc_server_connections",
    "parhc_server_served_total",
    "parhc_server_requests_total",
    "parhc_server_request_latency_us",
    "parhc_server_protocol_errors_total",
    "parhc_engine_queries_total",
    "parhc_engine_builds_total",
    "parhc_executor_workers",
    "parhc_dataset_points",
    "parhc_algo_wspd_pairs_materialized_total",
    "parhc_algo_wspd_pairs_visited_total",
    "parhc_algo_bccp_computed_total",
    "parhc_algo_bccp_point_distances_total",
    "parhc_trace_enabled",
    "parhc_slowlog_records_total",
]


class Client:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.buf = b""

    def read_line(self):
        while b"\n" not in self.buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise EOFError("server closed the connection")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode() + "\n"

    def cmd(self, line):
        """One strict request/response round trip."""
        self.sock.sendall((line + "\n").encode())
        return self.read_line()

    def cmd_multiline(self, line, terminator):
        """Request whose reply is many lines ending with `terminator`."""
        self.sock.sendall((line + "\n").encode())
        lines = []
        while True:
            got = self.read_line()
            lines.append(got)
            if got.startswith(terminator):
                return lines


def fail(msg):
    print(f"check_metrics: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def parse_exposition(lines):
    """Returns (samples, types): samples maps a full sample line's name
    part (with labels) to float value; types maps family -> TYPE."""
    samples, types, helps = {}, {}, {}
    for line in lines:
        line = line.rstrip("\n")
        if not line:
            fail("blank line in exposition")
        if line.startswith("# HELP "):
            helps[line.split(" ", 3)[2]] = True
            continue
        if line.startswith("# TYPE "):
            _, _, fam, kind = line.split(" ", 3)
            types[fam] = kind
            continue
        if line.startswith("#"):
            fail(f"unknown comment line: {line}")
        m = re.fullmatch(r"(\S+?)(\{[^}]*\})? (-?[0-9.eE+naif]+)", line)
        if not m:
            fail(f"unparsable sample line: {line}")
        name = m.group(1) + (m.group(2) or "")
        samples[name] = float(m.group(3))
        fam = re.sub(r"_(bucket|sum|count)$", "", m.group(1))
        if fam not in types and m.group(1) not in types:
            fail(f"sample '{line}' has no # TYPE header")
        if fam not in helps and m.group(1) not in helps:
            fail(f"sample '{line}' has no # HELP header")
    return samples, types


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--binary", default="build/parhc_netserver")
    args = ap.parse_args()

    proc = subprocess.Popen(
        [args.binary, "--port", "0", "--workers", "2", "--no-timing",
         "--slow-us", "0", "--trace"],
        stdout=subprocess.PIPE, text=True)
    try:
        banner = proc.stdout.readline()
        m = re.search(r"listening on \S+?:(\d+)", banner)
        if not m:
            fail(f"cannot parse port from banner: {banner!r}")
        c = Client(int(m.group(1)))

        # Workload: a build, cache hits, a mutation stream, one error.
        for line, want in [
            ("gen d 2 uniform 400 1", "ok gen d"),
            ("hdbscan d 8", "ok hdbscan d"),
            ("hdbscan d 8", "ok hdbscan d"),
            ("emst d", "ok emst d"),
            ("dyn s 2", "ok dyn s"),
            ("insert s 0.5 0.5 1.5 1.5", "ok insert s"),
            ("emst nosuch", "err emst"),
            ("stats", "ok stats"),
        ]:
            got = c.cmd(line)
            if not got.startswith(want):
                fail(f"'{line}' answered {got!r}, expected {want}...")

        # ---- text exposition ----
        reply = c.cmd_multiline("metrics", "ok metrics")
        exposition = reply[:-1]
        samples, types = parse_exposition(exposition)
        for fam in REQUIRED_FAMILIES:
            if fam not in types:
                fail(f"required family missing from exposition: {fam}")

        served = samples.get("parhc_server_served_total")
        if served is None or served < 8:
            fail(f"parhc_server_served_total={served}, expected >= 8")
        by_verb = sum(v for k, v in samples.items()
                      if k.startswith("parhc_server_requests_total{"))
        if by_verb != served:
            fail(f"per-verb sum {by_verb} != served {served}")
        if samples.get("parhc_server_protocol_errors_total") != 0:
            fail("protocol_errors_total != 0")

        # ---- algorithm work counters (hdbscan d 8 / emst d ran) ----
        algo = {k: v for k, v in samples.items()
                if k.startswith("parhc_algo_") and k.endswith("_total")}
        for k, v in sorted(algo.items()):
            if not v > 0:
                fail(f"{k}={v:g} after hdbscan/emst builds, expected > 0")
        dists = algo["parhc_algo_bccp_point_distances_total"]
        calls = algo["parhc_algo_bccp_computed_total"]
        if dists < calls:
            fail(f"bccp_point_distances_total {dists:g} < "
                 f"bccp_computed_total {calls:g}")

        # ---- latency histogram consistency ----
        buckets = [(k, v) for k, v in samples.items()
                   if k.startswith("parhc_server_request_latency_us_bucket")]
        if not buckets:
            fail("latency histogram has no buckets")
        counts = [v for _, v in buckets]
        if counts != sorted(counts):
            fail("histogram cumulative buckets are not monotone")
        hist_count = samples.get("parhc_server_request_latency_us_count")
        inf_key = 'parhc_server_request_latency_us_bucket{le="+Inf"}'
        if samples.get(inf_key) != hist_count or not hist_count:
            fail(f"+Inf bucket {samples.get(inf_key)} != _count {hist_count}")

        # ---- JSON exposition ----
        doc = json.loads(c.cmd("metrics json"))
        json_fams = {mfam["name"] for mfam in doc["metrics"]}
        for fam in REQUIRED_FAMILIES:
            if fam not in json_fams:
                fail(f"family missing from metrics json: {fam}")

        # ---- slowlog (threshold 0: every query is slow) ----
        slow = c.cmd_multiline("slowlog", "ok slowlog")
        m = re.search(r"ok slowlog n=(\d+)", slow[-1])
        if not m or int(m.group(1)) == 0:
            fail(f"slowlog empty under --slow-us 0: {slow[-1]!r}")
        for line in slow[:-1]:
            if not line.startswith("slow kind="):
                fail(f"malformed slowlog line: {line!r}")

        # ---- trace dump ----
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.json")
            got = c.cmd(f"trace dump {path}")
            if not got.startswith("ok trace dump"):
                fail(f"trace dump failed: {got!r}")
            with open(path) as f:
                trace = json.load(f)
            events = trace.get("traceEvents")
            if not events:
                fail("trace dump has no events")
            for e in events:
                for key in ("name", "cat", "ph", "ts", "dur", "pid", "tid",
                            "args"):
                    if key not in e:
                        fail(f"trace event missing '{key}': {e}")
                if e["ph"] != "X" or "trace" not in e["args"]:
                    fail(f"malformed trace event: {e}")
            if not any(e["name"].startswith("request:") for e in events):
                fail("no request:<verb> spans in trace dump")

        # quit answers nothing: the server stops parsing, flushes pending
        # replies, and closes the connection.
        c.sock.sendall(b"quit\n")
        print(f"check_metrics: OK ({len(types)} families, served={served:g}, "
              f"{len(events)} trace events)")
        return 0
    finally:
        proc.terminate()
        proc.wait(timeout=30)


if __name__ == "__main__":
    sys.exit(main())
