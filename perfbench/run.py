"""The repository benchmark: one workload, measured for a fixed time.

Run from the repository root::

    python3 perfbench/run.py --workload fleet_slo --seed 0 --seconds 25 --trace 0

Each repetition runs in a fresh interpreter (``perfbench/child.py``) with an
empty cache directory, one after another, never in parallel. With
``--trace 0`` the last stdout line reports the ``end_to_end`` metrics of
``BENCHMARK.json`` as medians over the repetitions; with ``--trace 1`` it
alternates untraced and traced repetitions and reports the ``per_layer``
metrics, plus the tracing overhead (traced minus untraced ``wall_s``).
Every repetition's raw numbers and an environment fingerprint go to
``perfbench/out/``. The exit code is 1 when an output check fails and 2
when the program under test cannot be imported at all (no result line).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.child import DEFAULT_SEED, WORKLOADS  # noqa: E402
from perfbench.layers import layer_metrics  # noqa: E402

OUT = ROOT / "perfbench" / "out"
CHILD_TIMEOUT_S = 150
MIN_REPS = 3  # untraced; a traced run needs one untraced/traced pair
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Reference host speed: one SpeedProbe sample (child.PROBE_OPS small numpy
# operations) takes this long.
REF_PROBE_S = 1e-4


def child_env(cache_dir: Path | None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "MMBENCH_CACHE_DIR"}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    for name in THREAD_ENV:
        env[name] = "1"
    if cache_dir is not None:
        env["MMBENCH_CACHE_DIR"] = str(cache_dir)
    return env


def run_child(args, mode: str, cache_dir: Path, disk_store: bool,
              trace_out: Path | None = None, extra: tuple = ()) -> dict:
    """One fresh-interpreter repetition; returns its JSON result.

    ``disk_store`` points the process-wide trace store at ``cache_dir``;
    otherwise it is memory-only, as for a CLI run without ``--cache-dir``.
    """
    cmd = [sys.executable, "-m", "perfbench.child", "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--cache-dir", str(cache_dir)]
    if args.tiny:
        cmd.append("--tiny")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    cmd += list(extra)
    env = child_env(cache_dir if disk_store else None)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{mode} repetition exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.perf_counter() - t0
    return result


class ChildError(RuntimeError):
    pass


def fingerprint(prime: dict) -> dict:
    """Where and on what the numbers were measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    rev = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        rev = target.read_text().strip() if target and target.is_file() else ref
    return {
        "python": prime.get("python"),
        "numpy": prime.get("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {k: child_env(None)[k] for k in THREAD_ENV},
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "platform": sys.platform,
    }


def median_metrics(samples: list[dict]) -> dict:
    keys = samples[0].keys()
    return {k: statistics.median(s[k] for s in samples) for k in keys}


def at_reference(phase: dict) -> float:
    """A child's timed phase, in seconds at the reference host speed.

    The probe's own time inside the phase is taken out first; ``speed`` is
    probe samples per second of probe time measured during the phase.
    """
    return (phase["s"] - phase["probe_s"]) * REF_PROBE_S * phase["speed"]


def end_to_end(cold: dict, warm: dict | None, scale: bool = True) -> dict:
    """One repetition's end-to-end numbers (``scale=False``: raw seconds)."""
    serving = "sim" in cold
    at = at_reference if scale else (lambda phase: phase["s"])
    return {
        "setup_s": at(cold["setup"]),
        "wall_s": at(cold["wall"]),
        "warm_s": statistics.median(at(phase) for phase in
                                    (warm["warm"] if serving else cold["warm"])),
        # Simulated requests per host second of the simulate call; on
        # characterize, priced (kernel, device) cells per host second of
        # the cold pass.
        "sim_items_per_s": cold["items"] / at(cold["sim" if serving else "wall"]),
        "peak_rss_mb": cold["rss_mb"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="test-sized inputs (reference values are not checked)")
    parser.add_argument("--write-reference", action="store_true",
                        help="record this run's outcome as the reference for the "
                             "workload (default seed, full size)")
    args = parser.parse_args(argv)
    if args.write_reference and (args.tiny or args.seed != DEFAULT_SEED):
        parser.error("--write-reference needs the default seed and full size")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    serving = WORKLOADS[args.workload]["kind"] != "characterize"
    default_inputs = args.seed == DEFAULT_SEED and not args.tiny
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    work = OUT / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    warm_dir = work / "warm"

    # Untimed: compile bytecode, prove the program imports, and (serving)
    # fill the cache directory the warm repetitions read.
    try:
        prime = run_child(args, "prime", warm_dir, disk_store=True)
    except (ChildError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: cannot run the program: {exc}", file=sys.stderr)
        shutil.rmtree(work, ignore_errors=True)
        return 2

    samples: list[dict] = []
    attempted = prime["ops"]
    failures: list[str] = list(prime["messages"])
    failed = len(prime["failed"])
    outcomes: set[str] = set()
    fills: set[str] = {prime["fill"]} if "fill" in prime else set()
    reference_outcome = None

    def collect(result: dict) -> None:
        nonlocal attempted, failed, reference_outcome
        attempted += result["ops"]
        failed += len(result["failed"])
        failures.extend(result["messages"])
        if "outcome" in result:
            outcomes.add(result["outcome"])
            reference_outcome = result.pop("reference_outcome")
        if "fill" in result:
            fills.add(result["fill"])

    t_start = time.perf_counter()
    rep = 0
    while True:
        t_rep = time.perf_counter()
        cache_dir = work / f"rep{rep}"
        flags = ("--check-reference",) if default_inputs and not args.write_reference else ()
        if rep == 0 and not default_inputs and serving:
            flags = ("--repeat-check",)
        sample: dict = {"rep": rep}
        try:
            cold = run_child(args, "cold", cache_dir, disk_store=False, extra=flags)
            collect(cold)
            sample["cold"] = cold
            if args.trace:
                spans_path = work / f"spans{rep}.json"
                traced = run_child(args, "cold", work / f"rep{rep}t", disk_store=False,
                                   trace_out=spans_path)
                collect(traced)
                recorded = json.loads(spans_path.read_text())
                sample["traced"] = traced
                sample["layers"] = {
                    name: (value * REF_PROBE_S * traced["speed"]
                           if layer_units[name] in ("s", "ns") else value)
                    for name, value in layer_metrics(recorded["spans"],
                                                     recorded["counts"]).items()}
            elif serving:
                warm = run_child(args, "warm", warm_dir, disk_store=True)
                collect(warm)
                sample["warm"] = warm
            if not any(r.get("aborted") for k, r in sample.items() if k in
                       ("cold", "warm", "traced")):
                if not args.trace:
                    sample["end_to_end"] = end_to_end(cold, sample.get("warm"))
                    sample["raw"] = end_to_end(cold, sample.get("warm"), scale=False)
        except (ChildError, subprocess.TimeoutExpired) as exc:
            attempted += 1
            failed += 1
            failures.append(str(exc))
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
            shutil.rmtree(work / f"rep{rep}t", ignore_errors=True)
        samples.append(sample)
        rep += 1
        elapsed = time.perf_counter() - t_start
        last = time.perf_counter() - t_rep
        if rep >= (1 if args.trace else MIN_REPS) and elapsed + last > args.seconds:
            break
        if rep >= (1 if args.trace else MIN_REPS) and failed:
            break

    # Determinism: every repetition (a fresh process) must reproduce the
    # same simulated outcome, and warm anchor curves must equal cold ones.
    if len(outcomes) > 1:
        failed += 1
        failures.append(f"outcome differs across repetitions ({len(outcomes)} variants)")
    if len(fills) > 1:
        failed += 1
        failures.append("anchor curves differ between cold and warm fills")

    good = [s for s in samples if "end_to_end" in s or "layers" in s]
    metrics: dict = {}
    raw: dict = {}
    if good and args.trace:
        metrics = median_metrics([s["layers"] for s in good])
        untraced = statistics.median(at_reference(s["cold"]["wall"]) for s in good)
        traced = statistics.median(at_reference(s["traced"]["wall"]) for s in good)
        metrics["tracing.overhead_s"] = traced - untraced
        metrics["tracing.overhead_ratio"] = (traced - untraced) / untraced
    elif good:
        metrics = median_metrics([s["end_to_end"] for s in good])
        raw = median_metrics([s["raw"] for s in good])

    correct = failed == 0 and bool(good)
    result_file = OUT / f"result-{tag}.json"
    result_file.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "env": fingerprint(prime),
        "correct": correct, "attempted": attempted, "failed": failed,
        "failures": failures, "metrics": metrics, "unscaled_metrics": raw,
        "ref_probe_s": REF_PROBE_S, "samples": samples,
    }, indent=1))
    if args.write_reference and correct and reference_outcome is not None:
        ref_path = ROOT / "perfbench" / "reference.json"
        refs = json.loads(ref_path.read_text()) if ref_path.exists() else {}
        refs[args.workload] = reference_outcome
        ref_path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    for message in failures:
        print(f"FAIL {message}")
    print(f"{args.workload}: {len(good)} repetitions, {attempted} ops, {failed} failed; "
          f"samples in {result_file.relative_to(ROOT)}")
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    for name, value in metrics.items():
        unscaled = f"   (unscaled {raw[name]:.6g})" if not args.trace else ""
        print(f"  {name:36s} {value:.6g} {units[name]}{unscaled}")
    if not good:
        return 1
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
