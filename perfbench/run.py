"""glrkit benchmark: replay a seeded request stream through the CLI, check
every output, and print the metrics as one JSON object on the last line.

Usage, from the root of a checkout that holds ``src/glrkit``::

    python3 perfbench/run.py --workload binomial-mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced closed loop,
with times scaled to a reference machine speed (``speed.py``);
``--trace 1`` replays a fixed prefix of the stream untraced and then traced
and reports the per-layer metrics.  ``--workload all`` runs the four
workloads one after another.  Each workload runs in fresh interpreters with
BLAS pinned to one thread and ``GLRKIT_CONFIG`` unset; scratch files go to
``.perfbench_runs/`` in the checkout and are removed afterwards, except the
span dump of a traced run.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

# Fresh interpreters whose set-up time is measured per untraced run; the
# median is reported.  One starts before the workload process (whose own
# set-up is the second sample) and one after it, so the samples spread over
# the run.
SETUP_BEFORE, SETUP_AFTER = 1, 1
PROCESS_TIMEOUT_S = 170

WORKLOADS = ("binomial-mix", "two-binomial-mix", "paired-normal-glr", "montecarlo")


def _env():
    env = {k: v for k, v in os.environ.items() if k != "GLRKIT_CONFIG"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args, work, deadline, *extra):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--work-dir", str(work), *extra]
    cmd += ["--spawned-at", repr(time.time())]
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def _cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit():
    """HEAD of the checkout, read from its own .git only (None outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(args):
    """Run one workload; return (result line dict, report dict)."""
    import numpy as np
    import speed
    import verify
    import workloads

    deadline = time.monotonic() + PROCESS_TIMEOUT_S
    work = RUNS / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        def setup_sample(i):
            out = _worker(args, work / f"setup{i}", deadline, "--setup-only")
            return json.loads(out.strip().splitlines()[-1])

        # A traced run reports no set-up time, so it takes no extra samples.
        before, after = (0, 0) if args.trace else (SETUP_BEFORE, SETUP_AFTER)
        setups = [setup_sample(i) for i in range(before)]
        _worker(args, work / "run", deadline, *(["--trace"] if args.trace else []))
        with open(work / "run" / "result.json", "r", encoding="utf-8") as fh:
            result = json.load(fh)
        setups.append(result)
        setups += [setup_sample(before + i) for i in range(after)]
        with open(work / "run" / "records.jsonl", "r", encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        failures, missed, checked = verify.verify(records, result["pool"], SRC / "glrkit" / "schemas")
        if args.trace:
            spans = RUNS / f"spans-{args.workload}-seed{args.seed}.jsonl"
            shutil.move(str(work / "run" / "spans.jsonl"), spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = len(records), len(failures)
    pool = result["pool"]
    reps = sum(workloads.replications(pool[r["block"]][r["index"]]) for r in records)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "requests": attempted,
        "replications": reps,
        "error_rate": {"value": failed / attempted, "unit": "fraction"},
        "setup_samples_s": [x["setup_s"] for x in setups],
        "setup_reference_ms": [x["setup_reference_s"] * 1e3 for x in setups],
        "failures": failures[:5],
        "oracle_self_check_kinds": checked,
        "oracle_self_check_missed": missed,
        "provenance": {
            **result["versions"],
            "nproc": os.cpu_count(),
            "cpu": _cpu_model(),
            "git_commit": _git_commit(),
        },
    }
    if args.trace:
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in result["layers"].items()}
        report["untraced_wall_s"] = result["untraced_wall_s"]
        report["traced_wall_s"] = result["traced_wall_s"]
    else:
        # Times scaled to the reference speed (see speed.py); the loop's wall
        # time scales by the latency-weighted mean of the requests' factors.
        measured = np.array([r["latency_s"] * 1e3 for r in records])
        factors = np.array(speed.factors(result["reference_s"],
                                         [r["speed_index"] for r in records]))
        latencies = measured * factors
        wall = result["wall_s"] * latencies.sum() / measured.sum()
        setup = statistics.median(x["setup_s"] * speed.REFERENCE_S / x["setup_reference_s"]
                                  for x in setups)
        p99 = float(np.percentile(latencies, 99))
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "throughput_rps": {"value": attempted / wall, "unit": "1/s"},
            "latency_p50_ms": {"value": float(np.median(latencies)), "unit": "ms"},
            "latency_p99_ms": {"value": p99, "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        report["measured"] = {
            "setup_s": statistics.median(x["setup_s"] for x in setups),
            "throughput_rps": attempted / result["wall_s"],
            "latency_p50_ms": float(np.median(measured)),
            "latency_p99_ms": float(np.percentile(measured, 99)),
            "reference_ms": float(np.median(result["reference_s"])) * 1e3,
        }
        report["latency_samples_above_p99"] = int(np.sum(latencies > p99))
        report["reps_per_s"] = {"value": reps / wall, "unit": "1/s"}
        report["wall_s"] = result["wall_s"]
    line = {"correct": failed == 0 and not missed, "attempted": attempted,
            "failed": failed, "metrics": metrics}
    return line, report


def _layer_unit(name):
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("per_rep"):
        return "ratio"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "glrkit" / "__init__.py").is_file():
        print(f"error: no glrkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    RUNS.mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        try:
            line, report = run_workload(one)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps({"report": report}))
        lines[name] = line
    if len(names) == 1:
        final = lines[names[0]]
    else:
        final = {
            "correct": all(l["correct"] for l in lines.values()),
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()),
            "metrics": {f"{n}.{m}": v for n, l in lines.items() for m, v in l["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
