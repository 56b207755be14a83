"""Benchmark for k3seg: seeded workloads, checked outputs, end-to-end and
per-layer metrics.

    python3 bench/run.py --workload corpus --seed 1729 --seconds 25 --trace 0

Run from the root of a source checkout. Every operation is a closed loop with
one client: one process, one thread, each operation starting after the
previous one returned. Inputs come from ``bench/inputs.py`` in separate
processes; each timed pass is a fresh interpreter (``bench/worker.py``) that
visits each input once, so a memo keyed on the input cannot turn repetition
into a gain. Operation and set-up times are scaled by a calibration loop
timed next to them (``scaled_latencies``, ``median_setup``). The last line
of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same figures for people, with the run's metadata.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced passes with passes whose calls into k3seg are wrapped
(``bench/tracer.py``) and reports the per-layer metrics.

``--smoke`` runs one input per workload, traced and untraced, and checks that
every metric is emitted and that no operation failed. ``--record-reference``
rewrites ``bench/reference.json`` from the current source at the default
seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
BUILD = ROOT / ".bench_build"

DEFAULT_SEED = 1729
WORKLOADS = ("corpus", "named", "oracle", "nonminimal")
CORPUS_SIZE = 100
# generate_corpus is timed this many times per corpus run, for setup_s
CORPUS_GENERATIONS = 3
ORACLE_CORPUS = 10
NONMINIMAL_COUNT = 300
# about the seconds of one pass over a workload's inputs, on the shared 2-CPU
# virtual machine the benchmark was written on, at the commit that introduced
# it. A run makes round(seconds / PASS_S) passes, at least one. Fixing the
# count keeps the measured work the same however fast the host happens to
# be: letting a fast moment buy an extra pass made the figures bimodal.
PASS_S = {"corpus": 5.5, "named": 4.0, "oracle": 7.0, "nonminimal": 14.0}
# seconds of the worker's calibration loop on the machine the benchmark was
# written on; latencies are reported as if every operation ran at that speed
CALIBRATION_S = 0.002
# set-up is timed at least this many times per run; the median is reported
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0
ORACLE_DEVIATION_TOL = 1e-9

END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# name, unit, how it is computed, the span keys it sums
PER_LAYER = (
    ("symalg.discriminant24.ms", "ms", "self_ms", ("symalg.discriminant24",)),
    ("symalg.discriminant24.calls", "count", "calls", ("symalg.discriminant24",)),
    ("symalg.minimality_check.ms", "ms", "self_ms", ("symalg.minimality_check",)),
    ("symalg.parse_family.ms", "ms", "self_ms", ("symalg.parse_family",)),
    ("symalg.normalized.ms", "ms", "self_ms", ("symalg.normalized",)),
    ("symalg.extract_cusp_quartic.ms", "ms", "self_ms", ("symalg.extract_cusp_quartic",)),
    ("density.density_cuspidal.ms", "ms", "self_ms", ("density.density_cuspidal",)),
    ("tropics.end_exponents.ms", "ms", "self_ms", ("tropics.end_exponents",)),
    ("tropics.end_exponents.calls", "count", "calls", ("tropics.end_exponents",)),
    ("tropics.newton_polygon.ms", "ms", "self_ms", ("tropics.newton_polygon",)),
    ("tropics.newton_polygon.calls", "count", "calls", ("tropics.newton_polygon",)),
    ("tropics.root_valuations.calls", "count", "calls", ("tropics.root_valuations",)),
    ("classify.end_surface_data.ms", "ms", "self_ms", ("classify.end_surface_data",)),
    ("density.density_profile.ms", "ms", "self_ms", ("density.density_profile",)),
    ("density.cut_positions.ms", "ms", "self_ms", ("density.cut_positions",)),
    ("density.density_from_positions.ms", "ms", "self_ms", ("density.density_from_positions",)),
    ("density.emit.ms", "ms", "self_ms", ("density.emit_csv", "density.emit_svg")),
    ("classify.cusp_type.ms", "ms", "self_ms", ("classify.cusp_type",)),
    ("classify.stable_type.ms", "ms", "self_ms", ("classify.stable_type",)),
    ("lattices.stable_type_lattice.ms", "ms", "self_ms", ("lattices.stable_type_lattice",)),
    ("lattices.determinant.ms", "ms", "self_ms", ("lattices.determinant",)),
    ("report.to_dict.ms", "ms", "self_ms", ("report.to_dict",)),
    ("report.analyze.self_ms", "ms", "self_ms", ("report.analyze",)),
    ("oracle.roots_at.t1e-3.ms", "ms", "self_ms", ("oracle.roots_at.t1e-3",)),
    ("oracle.roots_at.t1e-5.ms", "ms", "self_ms", ("oracle.roots_at.t1e-5",)),
    ("oracle.roots_at.t1e-7.ms", "ms", "self_ms", ("oracle.roots_at.t1e-7",)),
    ("oracle.cut_positions.ms", "ms", "self_ms",
     ("oracle.oracle_compare>density.cut_positions",)),
    ("oracle.compare.self_ms", "ms", "self_ms", ("oracle.oracle_compare",)),
    ("oracle.reconstruction_error.max", "1", "quality", ()),
    ("oracle.final_deviation.max", "1", "quality", ()),
    ("corpus.generate_corpus.s", "s", "screening", ()),
    ("corpus.accept_ratio", "ratio", "screening", ()),
    ("corpus.reject_ms", "ms", "screening", ()),
    ("trace.overhead_frac", "ratio", "overhead", ()),
)


class BenchError(Exception):
    """The run cannot produce a result."""


class Runner:
    def __init__(self):
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        # set and dict orders, and with them the counts, repeat across runs
        self.env["PYTHONHASHSEED"] = "0"
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def child(self, args: list, stdin: str | None = None) -> tuple[str, float, float]:
        """Run one child process to completion; returns its stdout, and the
        monotonic clock when it was started and when it ended."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run time limit reached")
        started = time.monotonic()
        with subprocess.Popen(
            [sys.executable] + args, cwd=ROOT, env=self.env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ) as proc:
            try:
                out, err = proc.communicate(stdin, timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise BenchError("%s did not finish in time" % args[0])
        ended = time.monotonic()
        if proc.returncode != 0:
            raise BenchError("%s failed with exit code %d:\n%s"
                             % (" ".join(args[:2]), proc.returncode, err[-4000:]))
        return out, started, ended

    def warm(self) -> None:
        """Write bytecode caches, so that no timed set-up compiles source."""
        self.child(["-m", "compileall", "-q", str(SRC / "k3seg"), str(BENCH)])

    def generate(self, workload: str, seed: int, trace: bool, smoke: bool) -> tuple[list, dict]:
        """Inputs of one run, and the info of the process that made them."""
        args = [str(BENCH / "inputs.py"), workload, str(seed)]
        if workload == "corpus":
            args += ["--count", str(1 if smoke else CORPUS_SIZE),
                     "--repeat", str(1 if smoke else CORPUS_GENERATIONS)]
        elif workload == "oracle":
            args += ["--count", str(0 if smoke else ORACLE_CORPUS)]
        elif workload == "nonminimal":
            args += ["--count", str(1 if smoke else NONMINIMAL_COUNT)]
        if trace:
            args.append("--trace")
        data = json.loads(self.child(args)[0])
        inputs = data["inputs"][:1] if smoke else data["inputs"]
        return inputs, data["info"]

    def worker(self, inputs: list, trace: bool = False, setup_only: bool = False,
               spans_path: str | None = None) -> dict:
        payload = json.dumps({"inputs": inputs, "trace": trace, "setup_only": setup_only,
                              "spans_path": spans_path})
        out, started, _ = self.child([str(BENCH / "worker.py")], payload)
        result = json.loads(out)
        result["setup_s"] = result["ready"] - started
        return result


def median_setup(workload: str, info: dict, runs: list, scaled: bool = True) -> float:
    """Median set-up time of the worker processes ``runs``; on ``corpus`` plus
    the median generate_corpus call. With ``scaled``, each time is scaled by
    the calibration loop timed next to it, as the latencies are."""
    def scale(calibration: float) -> float:
        return CALIBRATION_S / calibration if scaled else 1.0

    ready = statistics.median(r["setup_s"] * scale(r["ready_calibration"]) for r in runs)
    if workload != "corpus":
        return ready
    return ready + statistics.median(
        t * scale(c) for t, c in zip(info["generate_corpus_s"], info["generate_calibration_s"]))


def measure(runner: Runner, inputs: list, passes: int, trace: bool,
            spans_path: str | None) -> tuple[list, list]:
    """Untraced passes, and with ``trace`` a traced pass after each one.
    Passes are never cut short, so every input is visited equally often."""
    plain, traced = [], []
    for _ in range(passes):
        plain.append(runner.worker(inputs))
        if trace:
            traced.append(runner.worker(inputs, trace=True, spans_path=spans_path))
    return plain, traced


def scaled_latencies(plain: list) -> list:
    """Every operation's time in the untraced passes, scaled to the speed of
    a host on which the worker's calibration loop takes CALIBRATION_S.

    The shared host runs this benchmark up to half again as fast at some
    moments as at others, in spells of seconds to minutes. The worker times
    a fixed loop of Fraction arithmetic just before and just after each operation;
    dividing by their mean takes the host's speed at that moment out of the
    figure, and the program's own speed stays in it."""
    return [op["latency"] * CALIBRATION_S / op["calibration"]
            for r in plain for op in r["ops"]]


def timing(latencies: list) -> dict:
    p90 = statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else latencies[0]
    return {
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "throughput_per_s": len(latencies) / sum(latencies),
    }


def end_to_end(workload: str, info: dict, plain: list, probes: list) -> dict:
    return {
        **timing(scaled_latencies(plain)),
        "setup_s": median_setup(workload, info, plain + probes),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
    }


def span_base(span: str) -> str:
    """The wrapped name behind a span name that carries an argument suffix."""
    for base in tracer.SPAN_SUFFIX:
        if span.startswith(base + "."):
            return base
    return span


def per_layer(info: dict, plain: list, traced: list) -> tuple[dict, list]:
    ops = sum(len(r["ops"]) for r in traced)
    self_ns: dict = {}
    calls: dict = {}
    for r in traced:
        for key, value in r["trace"]["self_ns"].items():
            self_ns[key] = self_ns.get(key, 0) + value
        for key, value in r["trace"]["calls"].items():
            calls[key] = calls.get(key, 0) + value
    installed = set(traced[0]["installed"])
    oracle_ops = [op for r in traced for op in r["ops"] if "deviations" in op]
    screen = info.get("screening", {})
    screened = screen.get("screened", 0)
    rejected = sum(screen.get("rejected", {}).values())
    gen_times = info.get("generate_corpus_s", [])
    plain_s = sum(op["latency"] for r in plain for op in r["ops"])
    traced_s = sum(op["latency"] for r in traced for op in r["ops"])
    special = {
        "oracle.reconstruction_error.max":
            max((op["reconstruction"] for op in oracle_ops), default=0.0),
        "oracle.final_deviation.max":
            max((op["deviations"][-1] for op in oracle_ops), default=0.0),
        "corpus.generate_corpus.s": statistics.median(gen_times) if gen_times else 0.0,
        "corpus.accept_ratio": (screened - rejected) / screened if screened else 0.0,
        "corpus.reject_ms": screen["reject_ns"] / len(gen_times) / 1e6 if screened else 0.0,
        "trace.overhead_frac": traced_s / len(traced) / (plain_s / len(plain)) - 1,
    }
    values, missing = {}, []
    for name, unit, kind, keys in PER_LAYER:
        if kind in ("self_ms", "calls"):
            if not {span_base(part) for key in keys for part in key.split(">")} <= installed:
                missing.append(name)
            if kind == "self_ms":
                values[name] = sum(self_ns.get(k, 0) for k in keys) / ops / 1e6
            else:
                values[name] = sum(calls.get(k, 0) for k in keys) / ops
        else:
            values[name] = special[name]
    if screen.get("missing"):
        missing += [n for n, _, kind, _ in PER_LAYER if kind == "screening"]
    return values, missing


def load_reference() -> dict:
    if REFERENCE.exists():
        return json.loads(REFERENCE.read_text(encoding="utf-8"))
    return {}


def check_against_reference(results: list, reference: dict, complete: bool) -> int:
    """Adds reference mismatches to each op's problems; returns how many
    operations had a reference to compare with. With ``complete`` (the seed
    the reference was recorded at) every report and oracle result must have
    one, so a change in the generated inputs shows too."""
    compared = 0
    for r in results:
        for op in r["ops"]:
            want = reference.get(op["key"])
            if op["problems"]:
                continue
            if want is None:
                if complete and ("digest" in op or "deviations" in op):
                    op["problems"].append("no reference for this input at the default seed")
                continue
            compared += 1
            if "digest" in want and op.get("digest") != want["digest"]:
                op["problems"].append("report, CSV or SVG bytes differ from the reference")
            if "deviations" in want:
                got = op.get("deviations", [])
                if len(got) != len(want["deviations"]) or any(
                        abs(a - b) > ORACLE_DEVIATION_TOL
                        for a, b in zip(got, want["deviations"])):
                    op["problems"].append("oracle deviations differ from the reference")
    return compared


def metadata() -> dict:
    import mpmath

    def git_hash() -> str:
        if not (ROOT / ".git").exists():
            return "none"
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return "unknown"
        return out.stdout.strip() if out.returncode == 0 else "unknown"

    digest = hashlib.sha256()
    for path in sorted((SRC / "k3seg").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "git": git_hash(),
        "src_sha256": digest.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    runner = Runner()
    runner.warm()
    inputs, info = runner.generate(workload, seed, trace, smoke)
    if not inputs:
        raise BenchError("no inputs were generated")
    probes = [] if trace else [runner.worker(inputs, setup_only=True)
                               for _ in range(SETUP_SAMPLES)]
    spans_path = None
    if trace:
        BUILD.mkdir(exist_ok=True)
        spans_path = str(BUILD / ("spans-%s-%d.jsonl" % (workload, seed)))
    passes = max(1, round(seconds / PASS_S[workload]))
    plain, traced = measure(runner, inputs, passes, trace, spans_path)
    checked = plain + traced
    compared = check_against_reference(checked, load_reference(),
                                       seed == DEFAULT_SEED and not smoke)
    failures = [(item["id"], problem) for r in checked
                for item, op in zip(inputs, r["ops"]) for problem in op["problems"]]
    failed = sum(1 for r in checked for op in r["ops"] if op["problems"])
    attempted = sum(len(r["ops"]) for r in checked)
    if trace:
        values, missing = per_layer(info, plain, traced)
        units = {name: unit for name, unit, _, _ in PER_LAYER}
    else:
        values, missing = end_to_end(workload, info, plain, probes), []
        units = dict(END_TO_END)
    return {
        "workload": workload,
        "seed": seed,
        "inputs": len(inputs),
        "passes": len(checked),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "reference_compared": compared,
        "values": values,
        "units": units,
        "missing": missing,
        "info": info,
        "unscaled": None if trace else {
            **timing([op["latency"] for r in plain for op in r["ops"]]),
            "setup_s": median_setup(workload, info, plain + probes, scaled=False),
        },
        "calibration_ms": statistics.median(op["calibration"] for r in plain
                                            for op in r["ops"]) * 1e3,
    }


def report(res: dict, meta: dict) -> None:
    """Human-readable lines; the JSON result line comes last."""
    print("meta: " + json.dumps(meta, sort_keys=True))
    print("workload %s, seed %d: %d inputs, %d passes, %d operations, "
          "%d compared with the reference"
          % (res["workload"], res["seed"], res["inputs"], res["passes"], res["attempted"],
             res["reference_compared"]))
    if "latency_p50_ms" in res["values"]:
        print("latency samples: %d (%d inputs x %d passes); the calibration loop took "
              "%.3f ms (median), times are scaled to %.3f ms"
              % (res["attempted"], res["inputs"], res["passes"], res["calibration_ms"],
                 CALIBRATION_S * 1e3))
        print("unscaled: " + ", ".join("%s %.6g" % item for item in res["unscaled"].items()))
    screen = res["info"].get("screening", {})
    if screen.get("screened"):
        print("corpus screening: %d candidates, rejected by tag %s"
              % (screen["screened"], json.dumps(screen["rejected"], sort_keys=True)))
    print("failed_frac %.6f (%d of %d operations)"
          % (res["failed"] / res["attempted"], res["failed"], res["attempted"]))
    for fid, problem in res["failures"][:20]:
        print("FAILED %s: %s" % (fid, problem))
    if res["missing"]:
        print("missing wrapped names, reported as 0: " + ", ".join(res["missing"]))
    for name, value in res["values"].items():
        print("%-36s %14.6g %s" % (name, value, res["units"][name]))


def result_line(res: dict) -> str:
    return json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": res["units"][name]}
                    for name, value in res["values"].items()},
    })


def smoke() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            res = run_workload(workload, DEFAULT_SEED, 0.0, trace, smoke=True)
            want = [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]
            problems = []
            if sorted(res["values"]) != sorted(want):
                problems.append("metrics %s, declared %s" % (sorted(res["values"]), sorted(want)))
            if res["failures"]:
                problems.append("failures %s" % res["failures"])
            if res["missing"]:
                problems.append("missing %s" % res["missing"])
            print("smoke %-10s trace=%d: %s" % (workload, trace, "; ".join(problems) or "ok"))
            ok = ok and not problems
    return 0 if ok else 1


def record_reference() -> int:
    reference = {}
    for workload in WORKLOADS:
        runner = Runner()
        inputs, _ = runner.generate(workload, DEFAULT_SEED, False, False)
        result = runner.worker(inputs)
        for item, op in zip(inputs, result["ops"]):
            if op["problems"]:
                print("not recorded, %s failed: %s" % (item["id"], op["problems"]))
                return 1
            if "digest" in op:
                reference[op["key"]] = {"digest": op["digest"]}
            elif "deviations" in op:
                reference[op["key"]] = {"deviations": op["deviations"]}
        print("%s: %d inputs checked" % (workload, len(inputs)))
    lines = ["%s: %s" % (json.dumps(k), json.dumps(v)) for k, v in sorted(reference.items())]
    REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print("%d references written to %s" % (len(reference), REFERENCE))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "k3seg" / "__init__.py").is_file() or not (ROOT / "families").is_dir():
        print("bench: no k3seg source tree at %s" % ROOT, file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.record_reference:
            return record_reference()
        if args.workload is None:
            ap.error("--workload is required")
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1
    report(res, metadata())
    print(result_line(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
