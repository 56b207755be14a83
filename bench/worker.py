"""One timed pass of the k3seg benchmark.

A fresh interpreter reads the inputs as JSON on stdin, runs one operation per
input, in order, each starting after the previous one returned, and checks
every result. It prints one JSON object on stdout. ``ready`` is the
``time.monotonic()`` reading when the first operation could start, so the
parent can time set-up from the moment it started this process;
``ready_calibration`` is the time of a fixed loop run just after it. Each
operation's ``calibration`` is the mean time of the same loop run just before
and just after it. The parent uses them to take the host's speed out of the
set-up time and of each operation's ``latency``.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import resource
import sys
import time
from fractions import Fraction

import k3seg

import tracer as tracing


# additions of the fixed loop that is timed just before and just after every
# operation
CALIBRATION_STEPS = 300


def calibrate() -> float:
    """Seconds that a fixed loop of Fraction arithmetic, the kind of work the
    exact layers of k3seg do, takes now: how fast the host runs this process
    at the moment. It calls nothing in k3seg. Of the loops tried, it tracked
    the operations' times best when the host's speed changed."""
    start = time.perf_counter()
    x = Fraction(0)
    for i in range(1, CALIBRATION_STEPS):
        x += Fraction(i % 7 + 1, i % 13 + 1) * (x.denominator + i)
    return time.perf_counter() - start


def run_analyze(text: str):
    report = k3seg.analyze(k3seg.parse_family(text))
    body = json.dumps(report.to_dict(), sort_keys=True)
    return body, k3seg.emit_csv(report.density), k3seg.emit_svg(report.density)


def run_oracle(text: str):
    pair = k3seg.parse_family(text)
    return pair, k3seg.oracle_compare(pair)


def run_reject(text: str):
    try:
        k3seg.analyze(k3seg.parse_family(text))
    except k3seg.K3SegError as exc:
        return exc.tag
    return None


OPS = {"analyze": run_analyze, "oracle": run_oracle, "reject": run_reject}


def input_key(item: dict) -> str:
    """Names an input in bench/reference.json: the operation and the text."""
    return hashlib.sha256((item["op"] + "\n" + item["text"]).encode("utf-8")).hexdigest()[:16]


def reflected(breakpoints: list) -> list:
    """DensityFunction.reflected, recomputed on the report's "p/q" strings."""
    pts = [(Fraction(w), Fraction(v)) for w, v in breakpoints]
    hi = pts[-1][0]
    return [[str(-w / hi), str(v / hi)] for w, v in reversed(pts)]


def check_analyze(item: dict, out, bases: dict) -> tuple[list, dict]:
    body, csv, svg = out
    report = json.loads(body)
    problems = []
    if sum(report["charges"]) != 24:
        problems.append("charges sum to %d" % sum(report["charges"]))
    if item.get("label") is not None and report["stable_type"] != item["label"]:
        problems.append("stable type %s, expected %s" % (report["stable_type"], item["label"]))
    if item.get("det") is not None and report["lattice"]["determinant"] != item["det"]:
        problems.append("determinant %s, expected %s"
                        % (report["lattice"]["determinant"], item["det"]))
    if len(csv.splitlines()) != len(report["density"]["unit_breakpoints"]):
        problems.append("CSV rows differ from the unit breakpoints")
    base = item.get("expect") or bases.get(item.get("base"))
    if base is not None:
        want = base["density"]["breakpoints"]
        if item.get("inverted"):
            want = reflected(want)
        if report["density"]["breakpoints"] != want:
            problems.append("density differs from its base family's")
        if report["lattice"]["determinant"] != base["lattice"]["determinant"]:
            problems.append("determinant differs from its base family's")
    if item["id"] in bases:
        bases[item["id"]] = report
    digest = hashlib.sha256(body.encode("utf-8") + b"\0" + csv + b"\0" + svg)
    return problems, {"digest": digest.hexdigest()[:32]}


def check_oracle(item: dict, out, bases: dict) -> tuple[list, dict]:
    _, rep = out
    problems = []
    devs = list(rep.deviations)
    if any(b > a + 1e-12 for a, b in zip(devs, devs[1:])):
        problems.append("deviations grow: %s" % devs)
    if devs[-1] > rep.tolerance:
        problems.append("final deviation %.3g above tolerance" % devs[-1])
    if len(rep.exact_positions) != 24 or any(len(p) != 24 for p in rep.positions):
        problems.append("not 24 positions per sample")
    return problems, {"deviations": devs, "reconstruction": max(rep.reconstruction_errors)}


def check_reject(item: dict, out, bases: dict) -> tuple[list, dict]:
    if out != item["tag"]:
        return ["verdict %s, expected %s" % (out or "a report", item["tag"])], {}
    return [], {}


CHECKS = {"analyze": check_analyze, "oracle": check_oracle, "reject": check_reject}


def main() -> int:
    payload = json.load(sys.stdin)
    ready = time.monotonic()
    inputs = payload["inputs"]
    result: dict = {"ready": ready, "ready_calibration": calibrate()}
    if payload.get("setup_only"):
        json.dump(result, sys.stdout)
        return 0

    tracer = None
    samples = ()
    if payload.get("trace"):
        tracer = tracing.Tracer()
        tracer.install(k3seg)
        samples = inspect.signature(k3seg.oracle.oracle_compare).parameters["t_list"].default

    ops = []
    # reports of the inputs that others are checked against, filled in as they run
    bases: dict = {item["base"]: None for item in inputs if item.get("base")}
    for i, item in enumerate(inputs):
        run = OPS[item["op"]]
        if tracer is not None:
            tracer.op = i
        before = calibrate()
        start = time.perf_counter()
        try:
            out = run(item["text"])
            error = None
        except Exception as exc:  # an unexpected failure is a failed operation
            out, error = None, "%s: %s" % (type(exc).__name__, exc)
        latency = time.perf_counter() - start
        calibration = (before + calibrate()) / 2
        if error is None:
            problems, facts = CHECKS[item["op"]](item, out, bases)
        else:
            problems, facts = [error], {}
        if tracer is not None and item["op"] == "oracle" and error is None:
            for t0 in samples:
                k3seg.roots_at(out[0], t0)
        ops.append({"key": input_key(item), "latency": latency, "calibration": calibration,
                    "problems": problems, **facts})

    result["ops"] = ops
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["trace"] = tracer.aggregate()
        result["installed"] = sorted(tracer.installed)
        if payload.get("spans_path"):
            tracer.write(payload["spans_path"])
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
