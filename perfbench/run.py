"""Seeded benchmark of qhtbounds: three workloads, checked outputs, traced layers.

    python3 perfbench/run.py --workload {iid_exact,correlated,channel} \
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from the root of a source checkout: the library is imported from
``src/`` of that checkout (the benchmark exits with code 2 if it is missing).
BLAS is pinned to one thread before numpy is imported.

With ``--trace 0`` the run times its set-up in fresh interpreters, then runs
whole passes of the workload's job list until ``--seconds`` of pass time
have elapsed, checks every output, and prints the end-to-end metrics as
medians. With ``--trace 1`` it runs untraced passes for half of the time and
traced passes for the other half, and prints the per-layer metrics of the
traced passes. ``--workload all`` runs each workload in its own process and
prints one table. Lines starting with ``#`` are for people; the last line is
the JSON result. Reports and span files go to ``.perfbench/``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import jobs  # noqa: E402
import tracer as tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("iid_exact", "correlated", "channel")
SETUP_RUNS = 7

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("curve_gap", "prob"),
)


def per_layer_names() -> list[tuple[str, str]]:
    classes = sorted({c for cs in jobs.JOB_CLASSES.values() for c in cs})
    return (
        list(tracing.COUNT_METRICS)
        + list(tracing.TIME_METRICS)
        + [(f"job.{c}_s", "s") for c in classes]
        + [("bench.trace_overhead", "ratio")]
    )


# ------------------------------------------------------------------ records


def _git_commit() -> str | None:
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


def machine_record() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    modules = sorted((SRC / "qhtbounds").glob("*.py"))
    digest = hashlib.sha256()
    lines = {}
    for path in modules:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines[path.stem] = data.count(b"\n")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


# -------------------------------------------------------------------- runs


class SpeedProbe:
    """Fixed calibration kernel, timed between jobs to rescale their wall times.

    A shared 2-core x86-64 VM (OpenBLAS 0.3.31, one thread) changed speed by
    up to 1.6x over tens of seconds: 10 calls of a 48x48 complex ``eigh``
    took 26-58 ms within one minute, a pure-Python loop 11-35 ms, both
    slowing together. That swamps any regression bound on raw wall time. The probe mixes the
    three kinds of work in the job lists (LAPACK, a three-operand ``einsum``,
    interpreted Python). It runs before every job and after the last one, a
    few times each so that a pass has at least ``PER_PASS`` samples, and the
    pass's job times are multiplied by ``REF_S / mean(probe times)``: seconds
    at the probe's reference speed. The mean over a whole pass follows the
    slow drift without adding the probe's own jitter to each job. The probe
    uses no ``qhtbounds`` code, so library changes cannot move it, and its
    numpy functions are bound before any tracer wrapper exists.
    """

    REF_S = 0.004  # about the probe's median time on that VM
    PER_PASS = 24

    def __init__(self):
        rng = np.random.default_rng(12345)
        a = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
        self._matrix = a + a.conj().T
        self._eigh = np.linalg.eigh
        self._einsum = np.einsum
        self.samples: list[float] = []

    def measure(self) -> float:
        t0 = time.perf_counter()
        for _ in range(4):
            self._eigh(self._matrix)
        self._einsum("ij,jk,ki->i", self._matrix, self._matrix, self._matrix)
        acc = 0.0
        for i in range(30_000):
            acc += i * 0.5
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed

    def factor(self, samples) -> float:
        return self.REF_S / statistics.fmean(samples)


def time_setup(workload: str, seed: int, probe: SpeedProbe) -> tuple[list[float], list[float]]:
    """Fresh interpreters importing qhtbounds and loading inputs: (rescaled, wall) times."""
    setup_dir = OUT_DIR / f"setup-{workload}-{seed}"
    wall, probes = [], [probe.measure() for _ in range(3)]
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "inputs.py"), workload, str(seed), str(setup_dir)],
            check=True, env=dict(os.environ), stdout=subprocess.DEVNULL,
        )
        wall.append(time.perf_counter() - t0)
        probes += [probe.measure() for _ in range(3)]
    shutil.rmtree(setup_dir)
    factor = probe.factor(probes)
    return [t * factor for t in wall], wall


class Runner:
    """Passes of one workload, with checks and failure counting.

    Each pass's job times are rescaled by the speed probes measured during
    that pass: ``pass_times`` and ``class_times`` hold the rescaled values,
    ``pass_wall`` the raw wall times.
    """

    def __init__(self, workload, probe: SpeedProbe):
        self.workload = workload
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.first: dict[int, object] = {}
        self.first_outputs: dict[int, object] = {}
        self.pass_times: list[float] = []
        self.pass_wall: list[float] = []
        self.class_times: list[dict[str, float]] = []
        self.probe_means: list[float] = []
        self.layers: list[dict[str, float]] = []

    def run_pass(self, tracer=None) -> float:
        """One timed pass; outputs are checked after the clock stops. Returns wall time."""
        times = []
        outputs = []
        probes = []
        reps = -(-SpeedProbe.PER_PASS // (len(self.workload.jobs) + 1))
        if tracer is not None:
            tracer.install()
        try:
            for job in self.workload.jobs:
                probes += [self.probe.measure() for _ in range(reps)]
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        code, out = job.run()
                    else:
                        with tracer.span(f"job.{job.cls}"):
                            code, out = job.run()
                except Exception:  # a job that crashes counts as failed; the run goes on
                    code, out = -1, traceback.format_exc()
                times.append(time.perf_counter() - t0)
                outputs.append((code, out))
                # untimed: like a CLI process exiting, free each job's reference
                # cycles now, so peak RSS does not hinge on collector timing
                gc.collect()
            probes += [self.probe.measure() for _ in range(reps)]
        finally:
            if tracer is not None:
                tracer.uninstall()
        factor = self.probe.factor(probes)
        classes: dict[str, float] = {}
        for job, t in zip(self.workload.jobs, times):
            classes[job.cls] = classes.get(job.cls, 0.0) + t * factor
        self.pass_wall.append(sum(times))
        self.pass_times.append(sum(times) * factor)
        self.class_times.append(classes)
        self.probe_means.append(statistics.fmean(probes))
        for i, (code, out) in enumerate(outputs):
            fails = self._check(i, code, out)
            self.attempted += 1
            self.failed += bool(fails)
            self.failures += [f"{self.workload.jobs[i].label}: {f}" for f in fails]
        return self.pass_wall[-1]

    def class_median(self, cls: str, passes: slice = slice(None)) -> float:
        return _median([t.get(cls, 0.0) for t in self.class_times[passes]])

    def _check(self, i: int, code: int, out) -> list[str]:
        if code != 0:
            return [f"exit code {code}: {str(out).strip()[-500:]}"]
        if i in self.first:
            return [] if jobs.fingerprint(out) == self.first[i] else ["output differs from the first pass"]
        self.first[i] = jobs.fingerprint(out)
        self.first_outputs[i] = out
        try:
            return self.workload.jobs[i].check(out)
        except Exception:  # a malformed output is a failed check
            return [traceback.format_exc(limit=2)]

    def run_for(self, seconds: float, tracer=None) -> list[float]:
        """Whole passes until ``seconds`` of pass time have elapsed (at least one).

        With a tracer, the per-layer metrics of each pass are collected too.
        """
        times = []
        while not times or sum(times) < seconds:
            if tracer is None:
                times.append(self.run_pass())
                continue
            begin = tracer.mark()
            times.append(self.run_pass(tracer))
            self.layers.append(tracing.layer_metrics(tracing.PassTrace(tracer, begin, tracer.mark())))
        return times


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "qhtbounds" / "__init__.py").is_file():
        print(f"perfbench: no qhtbounds sources under {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    probe = SpeedProbe()
    setup, setup_wall = ([], []) if trace else time_setup(name, seed, probe)

    sys.path.insert(0, str(SRC))
    import qhtbounds as q
    import qhtbounds.cli  # noqa: F401

    if Path(q.__file__).resolve().parent != (SRC / "qhtbounds").resolve():
        print(f"perfbench: qhtbounds imported from {q.__file__}, not {SRC}", file=sys.stderr)
        return 2
    paths = inputs.generate(name, seed, OUT_DIR / f"inputs-{name}-{seed}")
    workload = jobs.Workload(q, name, seed, paths)
    runner = Runner(workload, probe)
    units = dict(END_TO_END) | dict(per_layer_names())
    extra: dict = {}

    if not trace:
        runner.run_for(seconds)
        curve = next(
            (out for i, out in runner.first_outputs.items() if workload.jobs[i].label == "error_curve ref^3"),
            None,
        )
        metrics = {
            "setup_s": _median(setup),
            "pass_s": _median(runner.pass_times),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "curve_gap": workload.curve_gap(curve),
        }
        samples = {"setup_s": len(setup), "pass_s": len(runner.pass_times), "peak_rss_mib": 1, "curve_gap": 1}
        extra["job_s"] = {c: runner.class_median(c) for c in jobs.JOB_CLASSES[name]}
    else:
        untraced = runner.run_for(seconds / 2.0)
        tr = tracing.Tracer(q)
        traced = runner.run_for(seconds / 2.0, tracer=tr)
        metrics, repeat = tracing.summarize(runner.layers)
        samples = dict.fromkeys(metrics, len(traced))
        split = len(untraced)
        for metric, _ in per_layer_names():
            if metric.startswith("job."):
                metrics[metric] = runner.class_median(metric[4:-2], slice(split))
                samples[metric] = split
        metrics["bench.trace_overhead"] = _median(runner.pass_times[split:]) / _median(runner.pass_times[:split])
        samples["bench.trace_overhead"] = len(traced)
        extra.update(counts_repeat=repeat, untraced_passes=split, traced_passes=len(traced))
        tr.save(OUT_DIR / f"spans-{name}-seed{seed}.npz")

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = machine_record()
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "machine": record,
        "samples": samples, "pass_times": runner.pass_times, "pass_wall_times": runner.pass_wall,
        "pass_probe_means": runner.probe_means, "setup_times": setup, "setup_wall_times": setup_wall,
        "failures": runner.failures, **extra, **result,
    }
    (OUT_DIR / f"report-{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(report, indent=1))

    print(f"# perfbench workload={name} seed={seed} trace={int(trace)} passes={len(runner.pass_times)}")
    print("# machine " + json.dumps(record, sort_keys=True))
    for k, m in result["metrics"].items():
        print(f"# {k} = {m['value']:.6g} {m['unit']} (median of {samples[k]})")
    print(f"# raw wall: pass {_median(runner.pass_wall):.6g} s, setup {_median(setup_wall):.6g} s; "
          f"speed probe {_median(probe.samples) * 1e3:.3f} ms (reference {SpeedProbe.REF_S * 1e3:g} ms)")
    for c, v in extra.get("job_s", {}).items():
        print(f"# job {c} = {v:.6g} s per pass (median of {len(runner.pass_times)})")
    if trace and not extra["counts_repeat"]:
        print("# WARNING per-pass counts differ between traced passes")
    print(f"# fail_ratio = {runner.failed}/{runner.attempted}")
    for f in runner.failures[:20]:
        print(f"# FAIL {f}")
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process; one table of every metric."""
    results, samples = {}, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, env=dict(os.environ),
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
        report = OUT_DIR / f"report-{name}-seed{seed}-trace{int(trace)}.json"
        samples[name] = json.loads(report.read_text())["samples"]
        print("\n".join(line for line in lines[:-1] if not line.startswith("# machine")))
    print(f"# {'workload':<11} {'metric':<34} {'value':>14} {'unit':<6} samples")
    for name, res in results.items():
        for k, m in res["metrics"].items():
            print(f"# {name:<11} {k:<34} {m['value']:>14.6g} {m['unit']:<6} {samples[name][k]}")
        print(f"# {name:<11} {'fail_ratio':<34} {res['failed']:>9}/{res['attempted']:<4}")
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
