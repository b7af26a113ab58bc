"""Command line of the benchmark (``python3 -m benchmarks.perf``).

Three ways in:

- ``--workload W --seed N --seconds S --trace 0|1`` runs one workload
  and prints one JSON object as the last line of standard output, the
  form the benchmark driver calls;
- with no ``--workload`` it runs all four, untraced and then traced,
  prints every metric by name with its unit and writes a result file
  (``--out``) with provenance; ``--check-repeat`` does that twice and
  compares the two sets;
- ``compare A.json B.json`` prints the same comparison for two result
  files.

This process only orchestrates: every measurement happens in a fresh
``benchmarks.perf.worker`` subprocess under a pinned environment, so it
imports nothing of the program itself.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence

ROOT = pathlib.Path(__file__).resolve().parents[2]
SCHEMA = "repro-perf-v1"
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 170.0
"""Under the driver's 180 s limit for one run."""

#: Environment every worker runs under.  Hash randomisation and BLAS
#: threading are the two things outside ``--seed`` that could change
#: what a run does; both are fixed.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: Switches of the program that select another engine path or pool
#: start method; the benchmark measures the defaults only.
FORBIDDEN_ENV = ("REPRO_ENGINE_SCALAR", "REPRO_SCHED_START")


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def load_declaration() -> Dict[str, Any]:
    path = ROOT / "BENCHMARK.json"
    if not path.exists() or not (ROOT / "src" / "repro" / "cli.py").exists():
        raise BenchmarkError(
            f"{ROOT} does not hold the program: need BENCHMARK.json and "
            "src/repro next to benchmarks/perf"
        )
    return json.loads(path.read_text())


def worker_env(scratch: pathlib.Path) -> Dict[str, str]:
    for name in FORBIDDEN_ENV:
        if name in os.environ:
            raise BenchmarkError(
                f"{name} is set: the benchmark measures the default "
                "columnar engine path and pool start method only"
            )
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["TMPDIR"] = str(scratch)
    return env


def run_worker(
    scratch: pathlib.Path, arguments: Sequence[str]
) -> Optional[Dict[str, Any]]:
    """Run one worker to completion; its JSON line, if it printed one."""
    command = [
        sys.executable, "-m", "benchmarks.perf.worker",
        "--scratch", str(scratch), *arguments,
    ]
    process = subprocess.Popen(
        command,
        cwd=ROOT,
        env=worker_env(scratch),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=WORKER_TIMEOUT_S)
    except BaseException:
        # Timeout or interrupt: take the scheduler's pool down with it.
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise
    if process.returncode != 0:
        raise BenchmarkError(
            f"worker exited with code {process.returncode}: {' '.join(command)}"
        )
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: int,
    spans_out: Optional[pathlib.Path] = None,
) -> Dict[str, Any]:
    """One driver-style run: the worker's result, with ``setup_s``
    measured over fresh interpreters when tracing is off."""
    scratch_root = ROOT / ".bench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root))
    base = ["--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    try:
        setups: List[float] = []
        if not trace:
            for _ in range(SETUP_PROBES):
                start = time.perf_counter()
                run_worker(scratch, [*base, "--seconds", "0", "--setup-only"])
                setups.append(time.perf_counter() - start)
        arguments = [*base, "--seconds", str(seconds)]
        if spans_out is not None:
            arguments += ["--spans-out", str(spans_out)]
        result = run_worker(scratch, arguments)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run is using it
    if result is None:
        raise BenchmarkError("worker printed no result")
    if setups:
        result["metrics"]["setup_s"] = statistics.median(setups)
        q1, _, q3 = statistics.quantiles(setups, n=4)
        result["quartiles"]["setup_s"] = {
            "q1": q1, "median": statistics.median(setups), "q3": q3,
            "min": min(setups), "max": max(setups),
        }
        result["samples"]["setup_s"] = len(setups)
    return result


def with_units(
    metrics: Dict[str, float], declared: List[Dict[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """``{name: {value, unit}}`` for exactly the declared metrics."""
    names = [entry["name"] for entry in declared]
    if sorted(names) != sorted(metrics):
        raise BenchmarkError(
            "worker metrics do not match BENCHMARK.json: missing "
            f"{sorted(set(names) - set(metrics))}, undeclared "
            f"{sorted(set(metrics) - set(names))}"
        )
    return {
        entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
        for entry in declared
    }


def driver_line(result: Dict[str, Any], declared: List[Dict[str, Any]]) -> str:
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": with_units(result["metrics"], declared),
        }
    )


# -- the whole set ---------------------------------------------------------


def provenance(seed: int, seconds: float) -> Dict[str, Any]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # the driver's checkout is not a git repository
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m_start": os.getloadavg()[0],
        "pinned_env": PINNED_ENV,
        "seed": seed,
        "run_seconds": seconds,
        "setup_probes": SETUP_PROBES,
    }


def run_suite(
    declaration: Dict[str, Any],
    seed: int,
    seconds: float,
    trace_out: Optional[pathlib.Path],
) -> Dict[str, Any]:
    """All workloads, untraced then traced, as one result document."""
    document: Dict[str, Any] = {
        "schema": SCHEMA,
        "provenance": provenance(seed, seconds),
        "workloads": {},
    }
    if trace_out is not None:
        trace_out.mkdir(parents=True, exist_ok=True)
    for entry in declaration["workloads"]:
        name = entry["name"]
        print(f"== {name}: {entry['why']}", flush=True)
        timed = run_workload(name, seed, seconds, trace=0)
        traced = run_workload(
            name, seed, seconds, trace=1,
            spans_out=(
                trace_out.resolve() / f"{name}.trace.json"
                if trace_out is not None else None
            ),
        )
        failures = timed["failures"] + traced["failures"]
        if traced["sim_digest"] != timed["sim_digest"]:
            failures.append(
                "traced run's sim_digest differs from the untraced run's"
            )
        end_to_end = with_units(timed["metrics"], declaration["end_to_end"])
        for metric, body in end_to_end.items():
            body.update(timed["quartiles"].get(metric, {}))
        document["workloads"][name] = {
            "end_to_end": end_to_end,
            "per_layer": with_units(traced["metrics"], declaration["per_layer"]),
            "paper_rel_err": timed["paper_rel_err"],
            "sim_digest": timed["sim_digest"],
            "operation_digests": timed["operation_digests"],
            "attempted": timed["attempted"] + traced["attempted"],
            "failed": min(len(failures), timed["attempted"] + traced["attempted"]),
            "failures": failures,
            "peak_rss_end_mb": timed["peak_rss_end_mb"],
            "samples": {"timed": timed["samples"], "traced": traced["samples"]},
            "operations": timed["operations"],
        }
        document["provenance"]["numpy"] = timed["numpy"]
        print_workload(name, document["workloads"][name])
    document["provenance"]["loadavg_1m_end"] = os.getloadavg()[0]
    return document


def print_workload(name: str, body: Dict[str, Any]) -> None:
    for kind in ("end_to_end", "per_layer"):
        for metric, value in body[kind].items():
            print(f"{name:16s} {metric:44s} {value['value']:16.6f} {value['unit']}")
    if body["paper_rel_err"] is not None:
        print(f"{name:16s} {'paper_rel_err':44s} {body['paper_rel_err']:16.6f} ratio")
    print(
        f"{name:16s} ops_attempted={body['attempted']} "
        f"ops_failed={body['failed']} sim_digest={body['sim_digest'][:16]}"
    )
    for failure in body["failures"]:
        print(f"{name:16s} FAILURE {failure}")


# -- comparing two result documents ---------------------------------------

PAPER_REL_ERR_BOUND = 0.01
"""``paper_rel_err`` may worsen by this much, absolute."""


def compare(
    declaration: Dict[str, Any], first: Dict[str, Any], second: Dict[str, Any]
) -> bool:
    """Print, per workload and end-to-end metric, both medians, their
    ratio with its base, the bound and a verdict; then the exact checks
    (``sim_digest``, ``paper_rel_err``, count-type layer metrics).
    Returns whether everything passed."""
    bounds = {entry["name"]: entry for entry in declaration["end_to_end"]}
    passed = True
    print(
        f"{'workload':16s} {'metric':12s} {'A':>12s} {'B':>12s} "
        f"{'B/A':>8s} {'bound':>6s} verdict"
    )
    for name, a in first["workloads"].items():
        b = second["workloads"].get(name)
        if b is None:
            print(f"{name:16s} missing from B")
            passed = False
            continue
        for metric, entry in bounds.items():
            va, vb = a["end_to_end"][metric], b["end_to_end"][metric]
            ratio = vb["value"] / va["value"]
            worse = ratio - 1.0 if entry["better"] == "lower" else 1.0 - ratio
            spread = max(
                (v.get("q3", v["value"]) - v.get("q1", v["value"])) / v["value"]
                for v in (va, vb)
            )
            if spread > entry["bound"]:
                # Neither run pins the metric tighter than the bound,
                # so "no worse" cannot be told from "worse".
                verdict = f"unresolved (spread {spread:.3f})"
            elif worse > entry["bound"]:
                verdict = "FAIL"
                passed = False
            else:
                verdict = "PASS"
            print(
                f"{name:16s} {metric:12s} {va['value']:12.4f} {vb['value']:12.4f} "
                f"{ratio:8.3f} {entry['bound']:6.2f} {verdict}  "
                f"(base A = {va['value']:.4f} {va['unit']})"
            )
        if first["provenance"]["seed"] == second["provenance"]["seed"]:
            passed &= compare_exact(name, a, b)
        ea, eb = a["paper_rel_err"], b["paper_rel_err"]
        if ea is not None and eb is not None:
            ok = eb - ea <= PAPER_REL_ERR_BOUND
            print(
                f"{name:16s} paper_rel_err A={ea:.6f} B={eb:.6f} "
                f"(may worsen by {PAPER_REL_ERR_BOUND} absolute) "
                f"{'PASS' if ok else 'FAIL'}"
            )
            passed &= ok
    return passed


def compare_exact(name: str, a: Dict[str, Any], b: Dict[str, Any]) -> bool:
    """Within one seed the simulated statistics and every count repeat
    exactly."""
    differing = [
        metric
        for metric, value in a["per_layer"].items()
        if value["unit"] == "count"
        and value["value"] != b["per_layer"][metric]["value"]
    ]
    if a["sim_digest"] != b["sim_digest"]:
        differing.append("sim_digest")
    if a["paper_rel_err"] != b["paper_rel_err"]:
        differing.append("paper_rel_err")
    print(
        f"{name:16s} sim_digest, paper_rel_err and count metrics "
        + (f"DIFFER: {differing}  FAIL" if differing else "identical  PASS")
    )
    return not differing


# -- entry point -----------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        declaration = load_declaration()
        if argv[:1] == ["compare"]:
            if len(argv) != 3:
                print("usage: compare A.json B.json", file=sys.stderr)
                return 2
            first, second = (
                json.loads(pathlib.Path(path).read_text()) for path in argv[1:]
            )
            return 0 if compare(declaration, first, second) else 1
        names = [entry["name"] for entry in declaration["workloads"]]
        parser = argparse.ArgumentParser(
            prog="python3 -m benchmarks.perf", description=__doc__,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        parser.add_argument("--workload", choices=names)
        parser.add_argument("--seed", type=int, default=17)
        parser.add_argument(
            "--seconds", type=float, default=float(declaration["run_seconds"])
        )
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        parser.add_argument("--out", type=pathlib.Path)
        parser.add_argument("--trace-out", type=pathlib.Path)
        parser.add_argument("--check-repeat", action="store_true")
        args = parser.parse_args(argv)

        if args.workload is not None:
            result = run_workload(
                args.workload, args.seed, args.seconds, args.trace
            )
            for failure in result["failures"]:
                print(f"FAILURE {failure}", file=sys.stderr)
            kind = "per_layer" if args.trace else "end_to_end"
            print(driver_line(result, declaration[kind]))
            return 0
        document = run_suite(declaration, args.seed, args.seconds, args.trace_out)
        if args.out is not None:
            args.out.write_text(json.dumps(document, indent=1) + "\n")
        ok = all(w["failed"] == 0 for w in document["workloads"].values())
        if args.check_repeat:
            again = run_suite(declaration, args.seed, args.seconds, None)
            ok &= all(w["failed"] == 0 for w in again["workloads"].values())
            ok &= compare(declaration, document, again)
        return 0 if ok else 1
    except BenchmarkError as error:
        print(f"benchmarks.perf: {error}", file=sys.stderr)
        return 2
