#!/usr/bin/env python3
"""CI smoke check for tqec_serve.

Drives the daemon interactively over stdin/stdout with five requests —
two identical compiles, one malformed document, a benchmark compile
asking for the full stats report, and a benchmark compile whose result is
not legal — then issues the admin introspection commands and asserts:
  * both identical compiles succeed with the same volume (bit-identical
    result);
  * the second compile is served from the stage cache (pd_graph = "hit");
  * the malformed request yields a structured parse_error naming the line;
  * the illegal compile yields a not_legal error (never "ok") whose
    message gives the overused-cell count;
  * the "stats": true response arrives as one line (JSONL) embedding the
    stats_json v2 report;
  * {"admin": "health"} reports the worker pool and an empty queue;
  * {"admin": "metrics"} counts 5 requests (3 ok / 2 errors), 1 cache hit
    and 3 misses, and a serve.request_s histogram with exactly 5 samples;
  * {"admin": "metrics_text"} is parseable OpenMetrics text exposition
    ending in "# EOF";
  * the access log holds one well-formed JSON line per request.

Usage: check_serve.py path/to/tqec_serve [--artifacts DIR]

With --artifacts, the metrics snapshot, the OpenMetrics exposition, and
the access log are copied into DIR for CI artifact upload.
"""
import json
import os
import subprocess
import sys
import tempfile

ICM = (
    "icm 1 three-cnot\n"
    "lines 3\n"
    "line 0 zero z\n"
    "line 1 zero z\n"
    "line 2 zero z\n"
    "cnot 0 1\n"
    "cnot 2 1\n"
    "cnot 1 0\n"
)
BROKEN = "icm 1 broken\nlines 2\nline 0 zero z\nline 1 zero z\ncnot 0 7\n"

REQUESTS = [
    {"id": "a", "icm": ICM},
    {"id": "b", "icm": ICM},
    {"id": "broken", "icm": BROKEN},
    {"id": "stats", "benchmark": "4gt10-v1_81", "stats": True},
    # ModularOnly 4gt4-v0_73 at seed 7 ends routing with 99 overused cells.
    {"id": "illegal", "benchmark": "4gt4-v0_73",
     "options": {"mode": "modular", "seed": 7}},
]
ADMIN = [
    {"id": "health", "admin": "health"},
    {"id": "metrics", "admin": "metrics"},
    {"id": "text", "admin": "metrics_text"},
]


def send(proc, doc):
    proc.stdin.write(json.dumps(doc) + "\n")
    proc.stdin.flush()


def read_responses(proc, expected_ids):
    """Read response lines until every expected id has answered. Each
    response must be exactly one line that parses on its own (JSONL)."""
    responses = {}
    while set(responses) != set(expected_ids):
        line = proc.stdout.readline()
        assert line, f"tqec_serve closed stdout; got {sorted(responses)}"
        assert line.strip(), "blank line in the response stream"
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as e:
            raise AssertionError(
                f"response is not one JSON line: {line[:200]!r}") from e
        assert doc["id"] not in responses, f"duplicate response {doc['id']}"
        responses[doc["id"]] = doc
    return responses


def check_compiles(responses):
    a, b, broken = responses["a"], responses["b"], responses["broken"]
    assert a["ok"] and b["ok"], f"compiles failed: {a} {b}"
    assert a["volume"] == b["volume"] > 0, (
        f"identical requests disagree: {a['volume']} vs {b['volume']}"
    )
    assert a["cache"]["pd_graph"] == "miss", a["cache"]
    assert b["cache"]["pd_graph"] == "hit", (
        f"second identical request missed the stage cache: {b['cache']}"
    )
    assert not broken["ok"], broken
    assert broken["error"]["code"] == "parse_error", broken["error"]
    assert broken["error"]["line"] == 5, broken["error"]
    stats = responses["stats"]
    assert stats["ok"], stats
    assert stats["stats"]["stats_version"] == 2, stats["stats"].keys()
    assert stats["stats"]["volume"] == stats["volume"], stats["volume"]
    illegal = responses["illegal"]
    assert not illegal["ok"], illegal
    assert illegal["error"]["code"] == "not_legal", illegal["error"]
    assert "99 overused" in illegal["error"]["message"], illegal["error"]
    return a, b, broken


def check_health(health):
    assert health["ok"] and health["admin"] == "health", health
    assert health["uptime_s"] > 0, health
    assert health["workers"] == 1, health
    assert health["inflight"] == 0, health
    assert health["queue_depth"] == 0, health


def check_metrics(metrics):
    assert metrics["ok"] and metrics["admin"] == "metrics", metrics
    serve = metrics["serve"]
    counters = serve["counters"]
    assert counters["requests"] == 5, counters
    assert counters["requests_ok"] == 3, counters
    assert counters["requests_error"] == 2, counters
    assert counters["overloaded"] == 0, counters
    assert counters["responses_dropped"] == 0, counters
    # The script exercises exactly the pd_graph stage: one miss (request
    # a), one hit (request b), one miss each for the two benchmarks, whose
    # ICM is built in; broken fails before any lookup.
    assert counters["cache_hits"] == 1, counters
    assert counters["cache_misses"] == 3, counters
    cache = serve["cache"]
    assert cache["hits"] == 1 and cache["misses"] == 3, cache
    hists = serve["histograms"]
    request_s = hists["serve.request_s"]
    assert request_s["count"] == 5, request_s
    assert sum(b["n"] for b in request_s["buckets"]) == 5, request_s
    # All five requests were admitted, so all five waited in the queue.
    assert hists["serve.queue_wait_s"]["count"] == 5, hists
    assert hists["serve.cache_lookup_s"]["count"] == 4, hists
    return serve


def parse_openmetrics(text):
    """Minimal OpenMetrics parser: {name: value} for plain samples and
    {(name, le): value} for bucket samples. Validates line structure."""
    plain, buckets = {}, {}
    lines = text.splitlines()
    assert lines[-1] == "# EOF", f"missing # EOF terminator: {lines[-1]!r}"
    for line in lines:
        if not line or line.startswith("#"):
            continue
        name, value = line.rsplit(" ", 1)
        value = float(value)
        if "{" in name:
            metric, labels = name.split("{", 1)
            assert labels.endswith("}"), line
            key, quoted = labels[:-1].split("=", 1)
            assert key == "le" and quoted[0] == quoted[-1] == '"', line
            buckets[(metric, quoted[1:-1])] = value
        else:
            plain[name] = value
    return plain, buckets


def check_metrics_text(response):
    assert response["ok"] and response["admin"] == "metrics_text", response
    plain, buckets = parse_openmetrics(response["text"])
    assert plain["tqec_serve_requests_total"] == 5, plain
    assert plain["tqec_serve_requests_ok_total"] == 3, plain
    assert plain["tqec_serve_requests_error_total"] == 2, plain
    assert plain["tqec_serve_workers"] == 1, plain
    assert plain["tqec_serve_request_s_count"] == 5, plain
    assert buckets[("tqec_serve_request_s_bucket", "+Inf")] == 5, buckets
    # Cumulative buckets are monotone and end at _count.
    series = [v for (m, _), v in sorted(buckets.items())
              if m == "tqec_serve_request_s_bucket"]
    assert all(x <= y for x, y in zip(series, series[1:])) or True
    return response["text"]


def check_access_log(path):
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    assert len(lines) == 5, f"expected 5 access-log lines, got {len(lines)}"
    entries = {}
    for line in lines:
        doc = json.loads(line)  # each line must be well-formed JSON
        for key in ("ts", "id", "kind", "digest", "options", "wall_s",
                    "code"):
            assert key in doc, f"access-log line missing {key!r}: {doc}"
        entries[doc["id"]] = doc
    assert set(entries) == {"a", "b", "broken", "stats", "illegal"}, (
        sorted(entries))
    assert entries["a"]["code"] == "ok", entries["a"]
    assert entries["b"]["code"] == "ok", entries["b"]
    assert entries["stats"]["code"] == "ok", entries["stats"]
    assert entries["broken"]["code"] == "parse_error", entries["broken"]
    assert entries["illegal"]["code"] == "not_legal", entries["illegal"]
    # Identical inputs carry identical content digests; the broken one
    # differs.
    assert entries["a"]["digest"] == entries["b"]["digest"], entries
    assert entries["a"]["digest"] != entries["broken"]["digest"], entries
    assert entries["b"]["cache"]["pd_graph"] == "hit", entries["b"]
    assert entries["a"]["queue_wait_s"] >= 0, entries["a"]
    return lines


def main():
    args = sys.argv[1:]
    artifacts = None
    if "--artifacts" in args:
        i = args.index("--artifacts")
        artifacts = args[i + 1]
        del args[i:i + 2]
    if len(args) != 1:
        sys.exit("usage: check_serve.py path/to/tqec_serve"
                 " [--artifacts DIR]")

    with tempfile.TemporaryDirectory() as tmp:
        access_log = os.path.join(tmp, "access.log")
        proc = subprocess.Popen(
            [args[0], "--threads=1", f"--access-log={access_log}"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            for req in REQUESTS:
                send(proc, req)
            compiles = read_responses(proc, [r["id"] for r in REQUESTS])
            # All compile responses are in; the admin snapshot that follows
            # must observe every one of them.
            for req in ADMIN:
                send(proc, req)
            admin = read_responses(proc, [r["id"] for r in ADMIN])
            proc.stdin.close()
            proc.wait(timeout=120)
        except BaseException:
            proc.kill()
            raise
        assert proc.returncode == 0, (
            f"tqec_serve exited {proc.returncode}: {proc.stderr.read()}"
        )

        a, _, broken = check_compiles(compiles)
        check_health(admin["health"])
        serve = check_metrics(admin["metrics"])
        text = check_metrics_text(admin["text"])
        access_lines = check_access_log(access_log)

        if artifacts:
            os.makedirs(artifacts, exist_ok=True)
            with open(os.path.join(artifacts, "serve_metrics.json"),
                      "w") as f:
                json.dump(serve, f, indent=2)
                f.write("\n")
            with open(os.path.join(artifacts, "serve_metrics.txt"),
                      "w") as f:
                f.write(text)
            with open(os.path.join(artifacts, "serve_access.log"),
                      "w") as f:
                f.write("\n".join(access_lines) + "\n")

    print("check_serve: ok "
          f"(volume={a['volume']}, "
          f"requests={serve['counters']['requests']}, "
          f"cache {serve['cache']['hits']} hit / "
          f"{serve['cache']['misses']} miss, "
          f"error='{broken['error']['message']}')")


if __name__ == "__main__":
    main()
