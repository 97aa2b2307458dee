"""autobva benchmark: end-to-end throughput of the CLI, per-layer traces.

Run from the root of a source checkout (autobva is imported from ``src/``):

    python3 bench/run.py --workload detect-bcs --seed 0 --seconds 12 --trace 0
    python3 bench/run.py --compare RESULTS_A RESULTS_B

Workloads (``BENCHMARK.json`` says why each exists):

- ``detect-bcs`` / ``detect-lns``: ``detect --iterations N`` on the four
  built-in SUTs with one strategy.
- ``detect-external``: ``detect --sut external:/bin/echo --strategy bcs``.
- ``summarize-date``: ``summarize --restarts 100`` on a ``date`` LNS archive
  generated from the seed during set-up, trimmed to fixed group sizes.

Load is a closed loop in one process and one thread: the workload's CLI
commands (``autobva.cli.main``, in-process) run back to back, and a *pass*
is one round of them.  Every pass of a run uses the same seed-derived
inputs, so every pass must produce identical outputs.  Passes repeat until
``--seconds`` have elapsed, and at least twice.  Times are quoted at a
reference machine speed (see ``SpeedProbe``), because other tenants of a
shared machine change its speed by 20% and more; raw times are recorded
alongside.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
``BENCHMARK.json``:

- ``throughput_per_s``: work in a pass over the median pass time; SUT
  executions requested (the manifests' ``executions``) for ``detect-*``,
  archive candidates clustered for ``summarize-date``.
- ``setup_s``: median of five set-ups, each a fresh interpreter importing
  ``autobva.cli`` plus the workload's preparation (a reduced warm-up pass
  on fixed inputs for ``detect-*``, generating the archive for
  ``summarize-date``).
- ``peak_rss_mib``: peak resident memory of the benchmark process.

Samples/s, candidates/s and ``summarize`` seconds are printed and recorded
alongside, ungated.  Harness failures (``uncaught:`` outcomes, external
timeouts, missing or unexecutable commands) go into ``failed``.

With ``--trace 1`` the run first makes untraced reference passes for half
the time, then traced passes (see ``tracing.py``), and reports the
``per_layer`` metrics per pass, including the tracing overhead.

After the timed phase every output is checked (``checks.py``); each run
writes a record with its metrics, deterministic counts and output digests
under ``bench/out/results/<fingerprint of src and bench>/``, and a run
whose counts or digests differ from an earlier record of the same
fingerprint, workload and seed fails.  ``--compare`` prints medians,
quartiles and a verdict per workload and metric for two such directories.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

os.environ.pop("AUTOBVA_SEED", None)  # it would override every --seed below

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SPEC = ROOT / "BENCHMARK.json"

BUILTINS = ("bytecount", "bmi", "bmi-class", "date")
ECHO = "/bin/echo"
BCS_SAMPLES = 500         # per SUT and pass
LNS_SAMPLES = 2000        # per SUT and pass
EXTERNAL_SAMPLES = 20     # per pass; each sample spawns about 43 processes
ARCHIVE_SAMPLES = 10000   # date LNS samples behind the summarize-date archive,
ARCHIVE_GROUPS = {"VV": 6, "VE": 400, "EE": 1450}  # of which the first so many per group
RESTARTS = 100
WARMUP_DIVISOR = 5        # a warm-up pass runs a fifth of the samples...
WARMUP_SEED = 0           # ...from fixed inputs, so set-up work is the same for every seed
SETUP_REPEATS = 5
MIN_PASSES = 2
PROBE_LOOPS = 7000        # the probe's interpreter part...
PROBE_POINTS = 120        # ...and numpy part take, at the speed metrics are quoted at,
PROBE_REFERENCE_S = (0.001, 0.0005)
PROBE_INTERVAL_S = 0.05
# How far each probe part's slowdown, as (interpreter, numpy) exponents,
# stands for a pass's.  Detect runs interpreter code; summarize splits its
# time between feature spaces in Python and silhouettes in numpy; spawning
# /bin/echo splits between subprocess's Python side and kernel work that
# neither part tracks.
PROBE_WEIGHTS = {"detect-bcs": (1, 0), "detect-lns": (1, 0),
                 "detect-external": (0.5, 0), "summarize-date": (0.5, 0.5)}
SETUP_PROBE_WEIGHTS = (1, 0)  # set-ups are dominated by interpreter start-up


def _fail_setup(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# workloads


def detect_pass(suts, strategy, samples):
    def commands(seed, out, scale=1):
        return [(sut, ["detect", "--sut", sut, "--strategy", strategy,
                       "--iterations", str(max(1, samples // scale)),
                       "--seed", str(seed), "--out", str(out / sut.replace("/", "_"))])
                for sut in suts]
    return commands


def summarize_pass(seed, out, scale=1):
    return [("summarize", ["summarize", str(out / "archive" / "archive.json"),
                           "--restarts", str(RESTARTS), "--seed", str(seed),
                           "--out", str(out / "report")])]


def archive_command(seed, out):
    return ["detect", "--sut", "date", "--strategy", "lns",
            "--iterations", str(ARCHIVE_SAMPLES), "--seed", str(seed),
            "--out", str(out / "archive")]


def trim_archive(path) -> None:
    """Keep the first ``ARCHIVE_GROUPS`` candidates of each validity group.

    Group sizes set how many diversity rounds summarize runs, so fixing them
    keeps the work of a pass the same for every seed; EE at 1450 takes five
    100-candidate rounds over the 1000-candidate window.
    """
    doc = json.loads(path.read_text(encoding="utf-8"))
    kept = dict.fromkeys(ARCHIVE_GROUPS, 0)
    candidates = []
    for c in doc["candidates"]:
        kept[c["validity"]] += 1
        if kept[c["validity"]] <= ARCHIVE_GROUPS[c["validity"]]:
            candidates.append(c)
    doc["candidates"] = candidates
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")


WORKLOADS = {
    "detect-bcs": detect_pass(BUILTINS, "bcs", BCS_SAMPLES),
    "detect-lns": detect_pass(BUILTINS, "lns", LNS_SAMPLES),
    "detect-external": detect_pass([f"external:{ECHO}"], "bcs", EXTERNAL_SAMPLES),
    "summarize-date": summarize_pass,
}


# ---------------------------------------------------------------------------
# running the CLI


class SpeedProbe:
    """Times a fixed piece of work every ``PROBE_INTERVAL_S``, from a timer
    signal in the benchmark's own thread, while it is active.

    Other tenants of a shared machine change how fast it runs by 20% and
    more, over seconds to minutes.  The probe slows down with the program,
    so dividing a pass's time by the probe's median slowdown during that
    pass gives the time it would have taken at the reference speed.  The
    probe has an interpreter part and a numpy part because the two slow
    down by different amounts; a workload weighs them by ``PROBE_WEIGHTS``.
    """

    def __init__(self):
        self.samples: list = []   # (interpreter seconds, numpy seconds)
        self._points = np.linspace(0.0, 1.0, PROBE_POINTS * 4).reshape(PROBE_POINTS, 4)

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        table = {}
        for i in range(PROBE_LOOPS):
            table[i & 255] = str(i * 1000003)
        t1 = time.perf_counter()
        p = self._points
        np.sqrt(((p[:, None, :] - p[None, :, :]) ** 2).sum(axis=2)).sum()
        self.samples.append((t1 - t0, time.perf_counter() - t1))

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def timed(self, fn, *args, weights=SETUP_PROBE_WEIGHTS) -> dict:
        """Seconds ``fn(*args)`` took: ``elapsed`` in all, ``wall`` without
        the probe's own time, ``reference`` at the reference speed."""
        first = len(self.samples)
        t0 = time.perf_counter()
        fn(*args)
        elapsed = time.perf_counter() - t0
        wall = elapsed - sum(a + b for a, b in self.samples[first:])
        slowdown = statistics.median(
            (a / PROBE_REFERENCE_S[0]) ** weights[0] * (b / PROBE_REFERENCE_S[1]) ** weights[1]
            for a, b in self.samples[first:] or self.samples[-1:])
        return {"elapsed": elapsed, "wall": wall, "reference": wall / slowdown}


def run_commands(commands, main) -> None:
    """Run CLI commands in-process; their stdout is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        for label, argv in commands:
            if main(argv) != 0:
                raise RuntimeError(f"autobva {' '.join(argv)} failed")


def pass_outputs(workload, commands) -> tuple:
    """(deterministic counts, digests) of the files one pass wrote."""
    counts, digests = {}, {}
    for label, argv in commands:
        out = Path(argv[argv.index("--out") + 1])
        if workload == "summarize-date":
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            counts["candidates"] = report["total_candidates"]
            for g in report["groups"]:
                counts[f"{g['validity']}.size"] = g["size"]
                counts[f"{g['validity']}.clusters"] = len(g["clusters"])
            digests["report.json"] = checks.sha256_file(out / "report.json")
        else:
            manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            for key in ("samples", "executions", "candidates"):
                counts[f"{label}.{key}"] = manifest["counts"][key]
            for name, digest in checks.archive_digests(out).items():
                digests[f"{label}/{name}"] = digest
    return counts, digests


def interpreter_import() -> None:
    """Start a fresh interpreter that imports the CLI, and wait for it."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import autobva.cli"
    subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                   stdin=subprocess.DEVNULL)


def set_up(workload, seed, work, main, probe) -> tuple:
    """(median set-up seconds at the reference speed, their median wall
    seconds, digests of the generated archives)."""
    if workload == "summarize-date":
        prepare = [("archive", archive_command(seed, work))]
    else:
        prepare = WORKLOADS[workload](WARMUP_SEED, work / "warmup", WARMUP_DIVISOR)

    def one_set_up():
        interpreter_import()
        run_commands(prepare, main)

    times, archive_digests = [], set()
    for _ in range(SETUP_REPEATS):
        times.append(probe.timed(one_set_up))
        if workload == "summarize-date":
            trim_archive(work / "archive" / "archive.json")
            archive_digests.add(tuple(checks.archive_digests(work / "archive").items()))
    return (statistics.median(t["reference"] for t in times),
            statistics.median(t["wall"] for t in times), archive_digests)


def measure(commands, main, probe, seconds, workload, min_passes=MIN_PASSES) -> list:
    """Passes until ``seconds`` have elapsed (at least ``min_passes``);
    each pass's counts and digests are read outside its timing."""
    passes = []
    t0 = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - t0 < seconds:
        p = probe.timed(run_commands, commands, main, weights=PROBE_WEIGHTS[workload])
        p["counts"], p["digests"] = pass_outputs(workload, commands)
        passes.append(p)
    return passes


# ---------------------------------------------------------------------------
# checks


def verify(workload, commands, work) -> dict:
    """Oracle checks of the last pass's outputs."""
    t0 = time.perf_counter()
    problems, checked, failed, groups = [], 0, 0, 0
    if workload == "summarize-date":
        candidates = checks.load_candidates(work / "archive" / "archive.json")
        problems += checks.check_candidates(get_sut("date"), candidates)
        report = json.loads((work / "report" / "report.json").read_text(encoding="utf-8"))
        report_problems, failed = checks.check_report(report, candidates, K_MAX)
        problems += report_problems
        checked, groups = len(candidates), len(report["groups"])
    else:
        for label, argv in commands:
            out = Path(argv[argv.index("--out") + 1])
            candidates = checks.load_candidates(out / "archive.json")
            problems += checks.check_candidates(get_sut(label), candidates)
            failed += checks.harness_failures_in(candidates)
            checked += len(candidates)
    return {"problems": problems, "checked": checked, "groups": groups,
            "failed": failed, "seconds": time.perf_counter() - t0}


def consistency_problems(passes, setup_digests) -> list:
    problems = []
    first = passes[0]
    for n, p in enumerate(passes[1:], start=2):
        if (p["counts"], p["digests"]) != (first["counts"], first["digests"]):
            problems.append(f"pass {n} wrote different outputs than pass 1")
    if len(setup_digests) > 1:
        problems.append("set-ups generated different archives")
    return problems


def fingerprint() -> str:
    """Hash of the program and benchmark sources, standing in for a commit id."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def earlier_record_problems(results, workload, seed, counts, digests) -> list:
    problems = []
    for path in sorted(results.glob(f"{workload}-seed{seed}-*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record["digests"] != digests:
            problems.append(f"digests differ from {path.name}")
        common = set(record["counts"]) & set(counts)
        if any(record["counts"][k] != counts[k] for k in common):
            problems.append(f"deterministic counts differ from {path.name}")
    return problems


# ---------------------------------------------------------------------------
# output


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "system": platform.system()}


def load_spec() -> dict:
    return json.loads(SPEC.read_text(encoding="utf-8"))


def result_line(spec_metrics, values, correct, attempted, failed) -> str:
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec_metrics},
    })


def print_table(title, rows) -> None:
    print(f"== {title}")
    for key, value in rows.items():
        print(f"  {key:<44} {value}")


def run(args) -> int:
    if not os.access(ECHO, os.X_OK) and args.workload == "detect-external":
        _fail_setup(f"{ECHO} is missing or not executable; detect-external needs it")
    spec = load_spec()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _run(args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, spec, work) -> int:
    workload, seed = args.workload, args.seed
    commands = WORKLOADS[workload](seed, work)
    tracer = None
    with SpeedProbe() as probe:
        setup_s, setup_wall_s, setup_digests = set_up(workload, seed, work, cli.main, probe)
        if args.trace:
            reference = measure(commands, cli.main, probe, args.seconds / 2, workload, 1)
            tracer = tracing.Tracer()
            traced_main = tracer.wrap("cli.main", cli.main)
            passes = []
            t0 = time.perf_counter()
            with tracer.instrumented():
                while not passes or time.perf_counter() - t0 < args.seconds / 2:
                    tracer.trace_id = len(passes)
                    p = probe.timed(run_commands, commands, traced_main,
                                    weights=PROBE_WEIGHTS[workload])
                    p["counts"], p["digests"] = pass_outputs(workload, commands)
                    passes.append(p)
            passes = reference + passes
        else:
            passes = measure(commands, cli.main, probe, args.seconds, workload)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checked = verify(workload, commands, work)
    problems = checked["problems"] + consistency_problems(passes, setup_digests)
    counts, digests = passes[0]["counts"], passes[0]["digests"]
    for d in setup_digests:
        digests.update({f"archive/{k}": v for k, v in d})

    walls = [p["wall"] for p in passes]
    times = [p["reference"] for p in passes]
    timed = statistics.median(times)
    if workload == "summarize-date":
        work_units = counts["candidates"]
        attempted = checked["groups"] * len(passes)
    else:
        work_units = sum(v for k, v in counts.items() if k.endswith(".executions"))
        attempted = work_units * len(passes)
    failed = checked["failed"] * len(passes)
    samples = sum(v for k, v in counts.items() if k.endswith(".samples"))
    candidates = (counts["candidates"] if workload == "summarize-date" else
                  sum(v for k, v in counts.items() if k.endswith(".candidates")))
    metrics = {
        "throughput_per_s": work_units / timed,
        "setup_s": setup_s,
        "peak_rss_mib": peak_rss_mib,
    }
    info = {
        "passes": len(passes),
        "pass_s": walls,
        "pass_s.reference": times,
        "throughput_per_s.wall": work_units / statistics.median(walls),
        "setup_s.wall": setup_wall_s,
        "probe_s.interpreter": statistics.median(a for a, _ in probe.samples),
        "probe_s.numpy": statistics.median(b for _, b in probe.samples),
        "samples_per_s": samples / timed,
        "candidates_per_s": candidates / timed,
        "oracle.checked": checked["checked"],
        "oracle.verify_s": checked["seconds"],
    }
    if workload == "summarize-date":
        info["summarize_s"] = timed

    if tracer is not None:
        traced = passes[len(reference):]
        traced_walls = [p["elapsed"] for p in traced]
        report_groups = {}
        if workload == "summarize-date":
            report_groups = {v: (counts[f"{v}.size"], counts[f"{v}.clusters"])
                             for v in tracing.VALIDITY_GROUPS if f"{v}.size" in counts}
        layers = tracer.layer_metrics(len(traced_walls), DIVERSITY_WINDOW, report_groups)
        written = {str(p) for p in tracer.written}
        layers["archive_io.bytes_written"] = sum(
            Path(p).stat().st_size for p in written) // len(traced_walls)
        layers["oracle.checked"] = checked["checked"]
        layers["oracle.verify_s"] = checked["seconds"]
        layers["trace.wall_s"] = statistics.mean(traced_walls)
        layers["trace.overhead"] = (statistics.median(times[len(reference):])
                                    / statistics.median(times[:len(reference)]) - 1)
        if layers["trace.self_sum_s"] > layers["trace.wall_s"]:
            problems.append("traced self times exceed the traced wall time")
        counts["diversity_rounds"] = layers["summarization.diversity.rounds"]
        (OUT / "traces").mkdir(exist_ok=True)
        tracer.save(OUT / "traces" / f"{workload}.npz")

    results = OUT / "results" / fingerprint()
    problems += earlier_record_problems(results, workload, seed, counts, digests)
    correct = not problems
    record = {
        "workload": workload, "seed": seed, "trace": args.trace, "seconds": args.seconds,
        "correct": correct, "problems": problems[:50], "attempted": attempted,
        "failed": failed, "metrics": metrics, "info": info, "counts": counts,
        "digests": digests, "environment": environment(),
    }
    if tracer is not None:
        record["layers"] = layers
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{args.trace}-{time.time_ns()}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    print_table(f"{workload} seed {seed} ({'traced' if args.trace else 'untraced'})",
                {**record["environment"], **metrics, **info})
    print_table("deterministic counts", counts)
    print_table("digests", digests)
    if tracer is not None:
        print_table("layers (per traced pass)", layers)
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    spec_metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else metrics
    print(result_line(spec_metrics, values, correct, attempted, failed))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# compare mode


def _quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, change, better, bound) -> str:
    """improved / no worse / worse / unresolved for ``change`` against ``base``.

    A gain needs the medians to differ by more than the base's quartile
    spread and the change to beat the base in nine of ten cross pairs;
    where either side spreads wider than the bound, only a change that
    beats (or loses to) every base run gets a verdict.
    """
    sign = 1 if better == "higher" else -1
    q1a, ma, q3a = _quartiles(base)
    q1b, mb, q3b = _quartiles(change)
    gain = sign * (mb - ma) / ma
    spread_a, spread_b = (q3a - q1a) / ma, (q3b - q1b) / mb
    wins = sum(sign * (b - a) > 0 for a in base for b in change) / (len(base) * len(change))
    if max(spread_a, spread_b) > bound:
        if wins == 1:
            return "improved"
        return "worse" if wins == 0 else "unresolved"
    if gain > spread_a and wins >= 0.9:
        return "improved"
    return "no worse" if gain >= -bound else "worse"


def load_records(directory) -> list:
    return [json.loads(p.read_text(encoding="utf-8"))
            for p in sorted(Path(directory).rglob("*.json"))]


def compare(base_dir, change_dir) -> int:
    spec = load_spec()
    sides = [[r for r in load_records(d) if not r["trace"]] for d in (base_dir, change_dir)]
    workloads = sorted({r["workload"] for side in sides for r in side})
    for workload in workloads:
        base, change = ([r for r in side if r["workload"] == workload] for side in sides)
        print(f"== {workload}: {len(base)} base runs, {len(change)} change runs")
        if not base or not change:
            continue
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]] for r in base]
            b = [r["metrics"][m["name"]] for r in change]
            qa, qb = _quartiles(a), _quartiles(b)
            print(f"  {m['name']:<18} {m['unit']:<6} "
                  f"base {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                  f"change {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  "
                  f"{verdict(a, b, m['better'], m['bound'])}")
        base_digests = {r["seed"]: r["digests"] for r in base}
        change_digests = {r["seed"]: r["digests"] for r in change}
        seeds = sorted(set(base_digests) & set(change_digests))
        same = [s for s in seeds if base_digests[s] == change_digests[s]]
        print(f"  outputs byte-identical on {len(same)} of {len(seeds)} common seeds")
    return 0


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                        help="compare two directories of run records")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    return run(args)


if __name__ == "__main__":
    if not (SRC / "autobva" / "__init__.py").is_file():
        _fail_setup(f"no autobva sources under {SRC}; run from a source checkout")
    if not SPEC.is_file():
        _fail_setup(f"{SPEC.name} is missing from {ROOT}")
    sys.path.insert(0, str(SRC))
    import numpy as np

    import autobva.cli as cli
    import checks
    import tracing
    from autobva.summarization import DIVERSITY_WINDOW, K_MAX
    from autobva.suts import get_sut

    sys.exit(main())
