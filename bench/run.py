"""etfnc benchmark: the CLI timed end to end, and a traced run per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload peeled-dlpm --seed 0 --seconds 38 --trace 0
    python3 bench/run.py --workload all --seconds 38          # every workload
    python3 bench/run.py --workload regularity --trace 1      # per-layer metrics
    python3 bench/run.py --workload all --write-reference     # re-record payload sums

Untraced (``--trace 0``): a closed loop runs ``python -m etfnc.cli`` as a
child process, one invocation at a time, until ``--seconds`` is used up.
Invocation j takes seed ``seed + 1000 * (j // 2)``, so every seed runs
twice and the rerun must reproduce the payload bytes; seed 0 must also
match bench/reference_payloads.json. Every invocation must pass the
workload's science check. Children run with one BLAS thread.

Times are reported twice. ``wall_s``/``cpu_s`` are plain seconds. The
gated ``wall_ref``/``cpu_ref``/``work_per_ref`` express them in units of
the median time of a fixed pure-Python loop timed between the
invocations of the same run (``ref``). The shared host's speed drifts by
up to 1.8x for tens of seconds. Over ten 38 s runs per workload, the
quartile distance over the median of plain ``wall_s`` was 0.25 on
peeled-dlpm and regularity and 0.06 on train; of ``wall_ref`` it was
0.07, 0.08 and 0.12. The loop follows the drift of Python-bound work
more closely than that of train's BLAS calls.

Traced (``--trace 1``): the same invocation runs in this process,
alternately plain and wrapped by the tracer (bench/layers.py lists the
functions). Per-layer metrics come from the spans; counts must repeat
exactly, and the tracing overhead is the traced minus the plain median
wall. Spans of the first traced invocation go to .bench_runs/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; metric names and units come from
BENCHMARK.json. Run artifacts go to .bench_runs/ in the checkout.
"""

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field

from workloads import WORKLOADS, payload_hashes, verify, work_done

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".bench_runs")
REFERENCE = os.path.join(BENCH_DIR, "reference_payloads.json")

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SEED_STRIDE = 1000
REFERENCE_SEED = 0
SETUP_SAMPLES = 7
INVOCATION_TIMEOUT_S = 150
#: metrics reported beside BENCHMARK.json's end-to-end ones
UNGATED_UNITS = {"wall_s": "s", "cpu_s": "s", "work_per_s": "work/s", "reference_s": "s"}


@dataclass
class Invocation:
    seed: int
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    work: int = 0
    hashes: dict = None
    mismatch: bool = False
    failures: list = field(default_factory=list)


def child_env():
    env = dict(os.environ, PYTHONPATH=SRC)
    env.update({v: "1" for v in THREAD_VARS})
    return env


NUMPY_INFO = """
import json, numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"numpy": numpy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}"}))
"""


def environment():
    """Versions, BLAS and thread settings recorded with every result.

    numpy is asked in a child process: this process must stay small,
    because a child's ru_maxrss includes its parent's size at spawn.
    """
    out = subprocess.run([sys.executable, "-c", NUMPY_INFO], env=child_env(),
                         capture_output=True, text=True, check=True, timeout=60)
    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next((line.split(":", 1)[1].strip() for line in f
                              if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        **json.loads(out.stdout),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor(),
        "cpu_pinning": "none: CPUs are not pinned and cores are not isolated",
    }


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def last_line(path):
    with open(path) as f:
        lines = f.read().strip().splitlines()
    return lines[-1] if lines else ""


def reference_seconds():
    """Seconds taken by a fixed pure-Python loop (about 0.1 s).

    Timed between invocations, this loop slows down and speeds up with
    the host, so invocation times divided by its median in the same run
    keep little of the host's drift. Pure Python keeps numpy out of this
    process (see ``environment``).
    """
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(600000):
        acc += (i * 7) % 13
        table[i & 1023] = acc
    sorted(table.values())
    return time.perf_counter() - t0


def spawn(cmd, cwd, stdout=subprocess.DEVNULL):
    """Run ``cmd`` to completion: (wall seconds, exit code, rusage).

    ``os.wait4`` blocks until the child ends and gives its own rusage;
    ``Popen.wait`` with a timeout would poll in steps of up to 50 ms.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=stdout,
                            stderr=subprocess.STDOUT)
    timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def measure_setup(samples=SETUP_SAMPLES):
    """Wall seconds of a fresh interpreter importing etfnc.cli (after one warm-up)."""
    times = []
    for i in range(samples + 1):
        wall, rc, _ = spawn([sys.executable, "-c", "import etfnc.cli"], ROOT)
        if rc != 0:
            raise RuntimeError(f"python -c 'import etfnc.cli' exited with {rc}")
        if i:
            times.append(wall)
    return times


def run_child(wl, seed, work_dir):
    """One ``python -m etfnc.cli`` invocation in a child process."""
    inv = Invocation(seed)
    fresh_dir(work_dir)
    cmd = [sys.executable, "-m", "etfnc.cli", *wl.prepare(work_dir, seed)]
    log = os.path.join(work_dir, "log.txt")
    with open(log, "w") as logf:
        inv.wall, rc, usage = spawn(cmd, work_dir, logf)
    inv.cpu = usage.ru_utime + usage.ru_stime
    inv.rss_mb = usage.ru_maxrss / 1024.0  # kilobytes on Linux
    finish(wl, inv, rc, work_dir, log)
    return inv


def finish(wl, inv, rc, work_dir, log):
    """Science check, work count and payload sums of a finished invocation."""
    out = os.path.join(work_dir, "out")
    if rc != 0:
        inv.failures.append(f"exit code {rc}: {last_line(log)}")
        return
    inv.failures += verify(wl, out)
    inv.work = work_done(wl, out)
    inv.hashes = payload_hashes(out)


class PayloadCheck:
    """Reruns of a seed must match its first run; the reference seed, the record."""

    def __init__(self, reference):
        self.reference = reference
        self.first = {}

    def __call__(self, inv):
        if inv.hashes is None:
            return
        expected = [self.first.setdefault(inv.seed, inv.hashes)]
        if inv.seed == REFERENCE_SEED and self.reference is not None:
            expected.append(self.reference)
        if any(inv.hashes != h for h in expected):
            inv.mismatch = True
            inv.failures.append(f"payload sha256 differs for seed {inv.seed}")


def load_reference(name):
    try:
        with open(REFERENCE) as f:
            entry = json.load(f).get(name)
    except FileNotFoundError:
        return None
    return entry["payloads"] if entry and entry["seed"] == REFERENCE_SEED else None


def closed_loop(seconds, step):
    """Call ``step(i)`` until another call would likely overrun; at least once."""
    results, t0 = [], time.perf_counter()
    while True:
        results.append(step(len(results)))
        elapsed = time.perf_counter() - t0
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def stat(values, reduce=statistics.median):
    q1, _, q3 = quartiles(values)
    return {"value": reduce(values), "samples": len(values), "q1": q1, "q3": q3}


# --- untraced: end-to-end metrics ------------------------------------------------


def run_untraced(wl, seed, seconds):
    setup = measure_setup()
    work_dir = os.path.join(RUNS, "work", wl.name)
    check = PayloadCheck(load_reference(wl.name))
    refs = []

    def step(j):
        refs.append(reference_seconds())
        inv = run_child(wl, seed + SEED_STRIDE * (j // 2), work_dir)
        check(inv)
        return inv

    invs = closed_loop(seconds, step)
    refs.append(reference_seconds())
    shutil.rmtree(work_dir, ignore_errors=True)
    ref = statistics.median(refs)
    failed = sum(1 for inv in invs if inv.failures)
    stats = {
        "wall_ref": stat([inv.wall / ref for inv in invs]),
        "cpu_ref": stat([inv.cpu / ref for inv in invs]),
        "peak_rss_mb": stat([inv.rss_mb for inv in invs], max),
        "setup_s": stat(setup),
        "work_per_ref": stat([inv.work / inv.wall * ref for inv in invs]),
        # unnormalized, reported but not gated: they carry the host's drift
        "wall_s": stat([inv.wall for inv in invs]),
        "cpu_s": stat([inv.cpu for inv in invs]),
        "work_per_s": stat([inv.work / inv.wall for inv in invs]),
        "reference_s": stat(refs),
    }
    summary = {
        "failed_frac": failed / len(invs),
        "payload_mismatch_frac": sum(inv.mismatch for inv in invs) / len(invs),
        "work_unit": wl.work_unit,
        "seeds": sorted({inv.seed for inv in invs}),
        "invocations": [
            {"seed": inv.seed, "wall_s": inv.wall, "cpu_s": inv.cpu, "rss_mb": inv.rss_mb,
             "work": inv.work} for inv in invs],
        "reference_s": refs,
    }
    failures = [f"seed {inv.seed}: {msg}" for inv in invs for msg in inv.failures]
    return len(invs), failed, stats, summary, failures


# --- traced: per-layer metrics -----------------------------------------------------


def import_cli():
    """Import etfnc.cli from this checkout's src/, never from elsewhere."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import etfnc.cli

    if not os.path.abspath(etfnc.cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"etfnc imported from {etfnc.cli.__file__}, not {SRC}")
    return etfnc.cli


def call_in_process(wl, seed, work_dir, tracer=None):
    """One ``etfnc.cli.main`` call in this process, optionally traced."""
    cli = import_cli()
    inv = Invocation(seed)
    fresh_dir(work_dir)
    args = wl.prepare(work_dir, seed)
    log = os.path.join(work_dir, "log.txt")
    cwd = os.getcwd()
    os.chdir(work_dir)
    try:
        with open(log, "w") as logf, contextlib.redirect_stdout(logf), \
                contextlib.redirect_stderr(logf), tracer or contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                rc = cli.main(args)  # looked up now, so the tracer's wrapper runs
            except SystemExit as e:
                rc = e.code
            except Exception:  # report the crash as a failed invocation
                traceback.print_exc()
                rc = "exception"
            inv.wall = time.perf_counter() - t0
    finally:
        os.chdir(cwd)
    finish(wl, inv, rc, work_dir, log)
    return inv


def write_spans(path, spans, workload_id):
    base = spans[0][1] if spans else 0.0
    with open(path, "w") as f:
        for i, (name, start, end, parent) in enumerate(spans):
            f.write(json.dumps({"id": i, "name": name, "start": start - base,
                                "end": end - base, "parent": parent,
                                "workload": workload_id}) + "\n")


def run_traced(wl, seed, seconds):
    from layers import HOOKS, TARGETS, is_count, layer_metrics
    from tracer import Tracer

    work_dir = os.path.join(RUNS, "work", wl.name)
    check = PayloadCheck(load_reference(wl.name))
    plain, traced = [], []  # Invocation; (Invocation, layer metrics)
    first = {}  # spans and missing targets of the first traced invocation

    def step(i):
        for use_tracer in ((False, True) if i % 2 == 0 else (True, False)):
            tracer = Tracer(TARGETS, HOOKS) if use_tracer else None
            inv = call_in_process(wl, seed, work_dir, tracer)
            check(inv)
            if tracer is None:
                plain.append(inv)
                continue
            traced.append((inv, layer_metrics(tracer.spans, tracer.counters)))
            first.setdefault("spans", tracer.spans)
            first.setdefault("missing", tracer.missing)

    closed_loop(seconds, step)
    shutil.rmtree(work_dir, ignore_errors=True)
    write_spans(os.path.join(RUNS, f"spans_{wl.name}_seed{seed}.jsonl"),
                first["spans"], f"{wl.name}/seed{seed}")

    reference = traced[0][1]
    counts = [n for n in reference if is_count(n)]
    for inv, metrics in traced[1:]:
        changed = [n for n in counts if metrics[n] != reference[n]]
        if changed:
            inv.failures.append(f"counts differ between traced runs: {changed}")
    values = {n: reference[n] if n in counts else statistics.median(m[n] for _, m in traced)
              for n in reference}
    values["trace_overhead_s"] = (statistics.median(inv.wall for inv, _ in traced)
                                  - statistics.median(inv.wall for inv in plain))
    invs = plain + [inv for inv, _ in traced]
    failed = sum(1 for inv in invs if inv.failures)
    summary = {"traced_invocations": len(traced), "plain_invocations": len(plain),
               "missing_targets": first["missing"]}
    failures = [f"seed {inv.seed}: {msg}" for inv in invs for msg in inv.failures]
    return len(invs), failed, values, summary, failures


# --- driver ---------------------------------------------------------------------------


def run_workload(wl, seed, seconds, trace, spec):
    """Run one workload; print its metrics; return (attempted, failed, metrics)."""
    print(f"== {wl.name} seed {seed} trace {trace} ({seconds:g} s)", flush=True)
    if trace:
        attempted, failed, values, summary, failures = run_traced(wl, seed, seconds)
        metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        for name, m in metrics.items():
            if m["value"] or name == "trace_overhead_s":
                spec_ = "d" if isinstance(m["value"], int) else ".6g"
                print(f"  {name:<44} {m['value']:>14{spec_}} {m['unit']}")
    else:
        attempted, failed, stats, summary, failures = run_untraced(wl, seed, seconds)
        metrics = {m["name"]: {"value": stats[m["name"]]["value"], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        units = dict({n: m["unit"] for n, m in metrics.items()}, **UNGATED_UNITS)
        for name, s in stats.items():
            how = "max" if name == "peak_rss_mb" else "median"
            print(f"  {name:<12} {s['value']:>12.6g} {units[name]:<8} {how} of {s['samples']}"
                  f"  (q1 {s['q1']:.6g}, q3 {s['q3']:.6g})"
                  + ("" if name in metrics else "  not gated"))
    for key, value in summary.items():
        if key not in ("invocations", "reference_s"):  # per-invocation lists: result file
            print(f"  {key}: {value}")
    for msg in failures[:20]:
        print(f"  FAILED {msg}")
    result = {"workload": wl.name, "seed": seed, "trace": trace, "seconds": seconds,
              "attempted": attempted, "failed": failed, "summary": summary,
              "metrics": metrics, "failures": failures}
    if not trace:
        result["samples"] = stats
    return result


def write_reference(names):
    refs = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as f:
            refs = json.load(f)
    for name in names:
        inv = run_child(WORKLOADS[name], REFERENCE_SEED, os.path.join(RUNS, "work", name))
        if inv.failures:
            print(f"{name}: not recorded: {inv.failures}", file=sys.stderr)
            return 1
        refs[name] = {"seed": REFERENCE_SEED, "payloads": inv.hashes}
        print(f"{name}: recorded {len(inv.hashes)} payload sums")
    with open(REFERENCE, "w") as f:
        json.dump(refs, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=38.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="record the payload sha256 sums of seed 0 and exit")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not (os.path.isfile(os.path.join(SRC, "etfnc", "cli.py")) and os.path.isfile(spec_path)):
        print(f"no etfnc source under {SRC} or no {spec_path}; run from a checkout",
              file=sys.stderr)
        return 2
    with open(spec_path) as f:
        spec = json.load(f)
    os.environ.update({v: "1" for v in THREAD_VARS})  # before numpy is imported
    os.makedirs(RUNS, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.write_reference:
        return write_reference(names)

    env = environment()
    print(f"environment: {json.dumps(env)}")
    results = [run_workload(WORKLOADS[n], args.seed, args.seconds, args.trace, spec)
               for n in names]
    for r in results:
        r["environment"] = env
        path = os.path.join(RUNS, f"result_{r['workload']}_seed{args.seed}_trace{args.trace}.json")
        with open(path, "w") as f:
            json.dump(r, f, indent=2, sort_keys=True)
            f.write("\n")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
