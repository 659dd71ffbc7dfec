"""Self-checks of the benchmark itself.

Run from the root of a checkout::

    python3 perfbench/selfcheck.py

1. The request generator is reproducible: the same seed gives the same pool
   (argv, oracle expectations and input files), another seed a different one.
2. Two traced runs of the same seed give identical values for every count,
   iteration and count-derived ratio.
3. The verifier rejects a deliberately perturbed output of every request
   kind a run produced (``run.py`` repeats this check on every run).

Every workload is checked at seed ``SEED``.  Exits non-zero on the first
failed check.
"""

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SEED = 7
EXACT_UNITS = ("count", "ratio")
TIMED = ("trace.overhead_ratio",)


def _pool_fingerprint(workload, seed, scratch):
    pool = workloads.build_pool(workload, seed, scratch)
    text = json.dumps(pool).replace(str(scratch), "<in>")
    files = {p.name: p.read_text() for p in sorted(scratch.glob("*.csv"))}
    return text, files


def check_generator(names, seed):
    scratch_root = ROOT / ".perfbench_runs" / "selfcheck"
    try:
        for name in names:
            prints = []
            for i, s in enumerate((seed, seed, seed + 1)):
                d = scratch_root / f"{name}-{i}"
                d.mkdir(parents=True, exist_ok=True)
                prints.append(_pool_fingerprint(name, s, d))
            if prints[0] != prints[1]:
                raise SystemExit(f"{name}: seed {seed} gave two different pools")
            if prints[0] == prints[2]:
                raise SystemExit(f"{name}: seeds {seed} and {seed + 1} gave the same pool")
            print(f"ok  generator reproducible per seed: {name}")
    finally:
        shutil.rmtree(scratch_root, ignore_errors=True)


def _traced(name, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{name}: traced run failed: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def check_traced(names, seed):
    for name in names:
        (rep_a, a), (rep_b, b) = _traced(name, seed), _traced(name, seed)
        for key, metric in a["metrics"].items():
            if metric["unit"] in EXACT_UNITS and key not in TIMED:
                if metric["value"] != b["metrics"][key]["value"]:
                    raise SystemExit(f"{name}: {key} differs between traced runs: "
                                     f"{metric['value']} vs {b['metrics'][key]['value']}")
        print(f"ok  counts repeat between two traced runs: {name}")
        for rep, res in ((rep_a, a), (rep_b, b)):
            if rep["oracle_self_check_missed"] or not rep["oracle_self_check_kinds"]:
                raise SystemExit(f"{name}: the verifier accepted a perturbed output: "
                                 f"{rep['oracle_self_check_missed']}")
            if not res["correct"]:
                print(f"note {name}: {res['failed']} of {res['attempted']} outputs failed "
                      f"their oracle, e.g. {rep['failures'][:1]}")
        print(f"ok  perturbed outputs rejected: {name}: {rep_a['oracle_self_check_kinds']}")


def main():
    if not (ROOT / "src" / "glrkit" / "__init__.py").is_file():
        print(f"error: no glrkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    check_generator(workloads.WORKLOADS, SEED)
    check_traced(workloads.WORKLOADS, SEED)
    return 0


if __name__ == "__main__":
    sys.exit(main())
