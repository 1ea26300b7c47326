"""Paper-default benchmark of the coloring engine and the session service.

Usage, from the root of the repository::

    python3 perfbench/run.py                      # every workload, default seed
    python3 perfbench/run.py --workload det-paper --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --trace 1          # layer split
    python3 perfbench/run.py --pin --seed 0-15 --seconds 0    # refresh pins.json

A run builds its inputs from ``--seed`` (one seed or a range ``A-B``),
sets up several times,
measures units of work for ``--seconds`` seconds, checks every unit's
output (see ``gate.py``), appends its rows to ``run_table.csv`` (except
with ``--pin``) and prints
one JSON object as the last line of standard output.  With ``--trace 0``
its metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` they are the per-layer metrics of a run that alternates
traced and untraced units.  The program is imported from ``src/`` next to
this directory; without it the run exits with code 2 and prints no result.
"""

import argparse
import csv
import datetime
import hashlib
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_TABLE = HERE / "run_table.csv"
RUN_TABLE_COLUMNS = (
    "run_id", "utc", "commit", "src_digest", "bench_digest", "host_cpus",
    "platform", "machine", "python_version", "compiled_available",
    "workload", "seed", "trace", "seconds", "metric", "unit", "value",
    "repetition",
)


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list:
    """``"N"`` -> [N]; ``"A-B"`` -> [A, ..., B]."""
    low, _, high = text.partition("-")
    seeds = list(range(int(low), int(high or low) + 1))
    if not seeds:
        raise ValueError(f"empty seed range {text!r}")
    return seeds


def tree_digest(paths) -> str:
    """sha256 over files, so rows name the code they measured without git."""
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=True,
            # Never look for a repository above the checkout.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() or "none"


def end_to_end(outcome) -> dict:
    """The bounded metrics of BENCHMARK.json, plus ``fail_rate``."""
    from workloads import median

    return {
        "setup_s": (median(outcome.setup_s), "s"),
        "run_wall_s": (median(outcome.unit_s), "s"),
        "peak_rss_mb": (outcome.peak_rss_bytes / 2**20, "MB"),
        "fail_rate": (outcome.failed / max(1, outcome.attempted), "ratio"),
    }


def report_lines(name: str, outcome, metrics: dict) -> list:
    lines = [f"[{name}] attempted={outcome.attempted} failed={outcome.failed} "
             f"fingerprint={outcome.fingerprint[:16]}"]
    lines += [f"[{name}]   {metric:<30} {value:>14.6g} {unit}"
              for metric, (value, unit) in metrics.items()]
    lines += [f"[{name}]   failure: {text}" for text in outcome.failures]
    return lines


def append_rows(rows: list) -> None:
    new = not RUN_TABLE.exists()
    with RUN_TABLE.open("a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RUN_TABLE_COLUMNS)
        if new:
            writer.writeheader()
        writer.writerows(rows)


def table_rows(run_id, context, name, seed, trace, seconds, metrics) -> list:
    """One row per metric; ``repetition`` counts earlier rows of the cell."""
    seen: dict = {}
    if RUN_TABLE.exists():
        with RUN_TABLE.open(newline="") as fh:
            for row in csv.DictReader(fh):
                key = (row["src_digest"], row["bench_digest"], row["workload"],
                       row["seed"], row["trace"], row["metric"])
                seen[key] = seen.get(key, 0) + 1
    rows = []
    for metric, (value, unit) in metrics.items():
        key = (context["src_digest"], context["bench_digest"], name,
               str(seed), str(trace), metric)
        rows.append({
            **context, "run_id": run_id, "workload": name, "seed": seed,
            "trace": trace, "seconds": seconds, "metric": metric,
            "unit": unit, "value": repr(float(value)),
            "repetition": seen.get(key, 0),
        })
    return rows


def run_workload(name, seed, seconds, trace, workdir, pins):
    """Measure one workload; ``pins=None`` skips the pinned fingerprint."""
    from gate import RunGate
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    gate = RunGate(name, seed, pins)
    outcome = workload.measure(seed, seconds, trace, workdir, gate)
    outcome.fingerprint = gate.fingerprint()
    if outcome.failed == 0 and pins is not None:
        try:
            gate.check_pin()
        except Exception as error:  # a wrong output on every unit
            outcome.fail(error)
            outcome.failed = outcome.attempted
    return outcome


def layer_metrics(name, outcome, wanted, units) -> dict:
    """Every wanted per-layer metric for one workload's traced run.

    A layer the workload never enters reports 0.  A wanted name that no
    workload declares, or that this workload declares but did not report
    although every unit passed, is an error: a renamed layer cannot pass
    as 0.
    """
    from workloads import WORKLOADS

    out = dict(outcome.extra)
    for metric in wanted:
        if metric in out:
            continue
        declared = [w for w in WORKLOADS.values() if metric in w.layer_metrics]
        entered = WORKLOADS[name] in declared
        if not declared or (entered and not outcome.failed):
            raise KeyError(f"{name} reported no per-layer metric {metric!r}")
        out[metric] = (math.nan if entered else 0.0, units[metric])
    return out


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=parse_seeds, default=str(DEFAULT_SEED),
                        help=f"seed N or range A-B (default {DEFAULT_SEED}; "
                             f"held out for claims: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="record fingerprints in pins.json, not the run table")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))
    spec = benchmark_spec()
    from gate import Pins

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"valid: all, {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    # Scratch files (inputs, pool checkpoints, traces) stay in the checkout.
    work_root = ROOT / ".perfbench-work"
    workdir = pathlib.Path(tempfile.mkdtemp(prefix=f"{os.getpid()}-",
                                            dir=_mkdirs(work_root)))
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    pins = Pins()
    try:
        return _run(args, spec, names, args.seed, seconds, workdir, pins)
    finally:
        stop_resource_tracker()
        shutil.rmtree(workdir, ignore_errors=True)


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker, if a run started one.

    The worker pool shares memory with its workers, which starts the
    tracker; left alone it outlives this process.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def _mkdirs(path: pathlib.Path) -> str:
    path.mkdir(parents=True, exist_ok=True)
    return str(path)


def _run(args, spec, names, seeds, seconds, workdir, pins) -> int:
    import repro.obs as obs

    host = obs.host_metadata()
    context = {"utc": datetime.datetime.now(datetime.timezone.utc)
               .strftime("%Y-%m-%dT%H:%M:%SZ"),
               "commit": git_commit(),
               "src_digest": tree_digest((SRC / "repro").rglob("*.py")),
               "bench_digest": tree_digest([ROOT / "BENCHMARK.json",
                                            *HERE.glob("*.py")]),
               **{k: host[k] for k in ("host_cpus", "platform", "machine",
                                       "python_version", "compiled_available")}}
    run_id = f"{context['utc']}-{os.getpid()}"
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    attempted = failed = 0
    summary: dict = {}
    for seed in seeds:
        for name in names:
            unit_dir = _mkdirs(workdir / f"{name}-{seed}")
            # A pin run records what the program outputs now, stale pin or not.
            outcome = run_workload(name, seed, seconds, args.trace, unit_dir,
                                   None if args.pin else pins)
            metrics = (layer_metrics(name, outcome, wanted, layer_units)
                       if args.trace
                       else {**end_to_end(outcome), **outcome.extra})
            for line in report_lines(name, outcome, metrics):
                print(line, flush=True)
            if args.pin and outcome.failed == 0:
                pins.pin(name, seed, outcome.fingerprint)
            if not args.pin:
                append_rows(table_rows(run_id, context, name, seed, args.trace,
                                       seconds, metrics))
            attempted += outcome.attempted
            failed += outcome.failed
            prefix = "" if len(names) * len(seeds) == 1 else f"{name}/{seed}/"
            for metric in wanted:
                value, unit = metrics[metric]
                summary[prefix + metric] = {
                    "value": None if math.isnan(value) else value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
