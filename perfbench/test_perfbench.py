"""Self-tests of the benchmark: checks catch bad outputs, names match BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import qhtbounds as q  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


# ------------------------------------------------------ BENCHMARK.json


def test_declared_metrics_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS) == list(inputs.WORKLOADS)
    assert set(jobs.JOB_CLASSES) == set(run.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_reported_metric_names_appear_in_benchmark_json(trace):
    proc = _run("--workload", "channel", "--seed", "3", "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_counts_repeat_between_traced_runs():
    counts = []
    for _ in range(2):
        proc = _run("--workload", "channel", "--seed", "4", "--seconds", "0.5", "--trace", "1")
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "side3")})
    assert counts[0] == counts[1]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "channel", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# -------------------------------------------------------------- inputs


def test_inputs_repeat_per_seed(tmp_path):
    for workload in inputs.WORKLOADS:
        a = inputs.generate(workload, 5, tmp_path / "a" / workload)
        b = inputs.generate(workload, 5, tmp_path / "b" / workload)
        c = inputs.generate(workload, 6, tmp_path / "c" / workload)
        for name in a:
            assert Path(a[name]).read_bytes() == Path(b[name]).read_bytes()
        manifest = json.loads((tmp_path / "a" / workload / "manifest.json").read_text())
        assert manifest == {"workload": workload, "seed": 5, "files": sorted(a)}
        assert any(Path(a[n]).read_bytes() != Path(c[n]).read_bytes() for n in a)


def test_seeded_channel_keeps_capacity_of_base():
    base = inputs._base_channel(inputs.BASE_CHANNEL_INDEX[8], 8)
    chans = [q.channel_from_json(inputs._seeded_channel(seed, 8)) for seed in (1, 2)]
    reps = [q.holevo_capacity(ch) for ch in chans]
    ref = q.holevo_capacity(q.CQChannel(tuple(map(str, range(8))), {str(i): q.density_matrix(m) for i, m in enumerate(base)}))
    for rep in reps:
        assert abs(rep.chi_star - ref.chi_star) <= 1e-9
        assert abs(rep.iterations - ref.iterations) <= 2


# ------------------------------------------------- reference oracles


def test_classical_beta_matches_oracle():
    p, qd = [0.7, 0.3], [0.4, 0.6]
    assert abs(checks.classical_beta(p, qd, 0.1) - 0.8) <= 1e-15
    pa, pb = checks.product_distribution(p, 3), checks.product_distribution(qd, 3)
    rho = q.density_matrix(np.diag(pa).astype(complex))
    sig = q.density_matrix(np.diag(pb).astype(complex))
    for eps in (0.01, 0.1, 0.5):
        assert abs(checks.classical_beta(pa, pb, eps) - q.optimal_type2(rho, sig, eps)) <= 1e-9


def test_kernel_chain_constants_match_certifier():
    spec = inputs.kernel_spec(7)
    fam = q.family_from_json(spec)
    q.certify_family(fam, 4)
    r_up, r_low = checks.kernel_chain_constants(spec, 4)
    assert abs(fam.r_upper - r_up) <= 1e-9
    assert abs(fam.r_lower - r_low) <= 1e-9


def test_independent_rel_entropy():
    rho, sig = q.random_density(3, 1), q.random_density(3, 2)
    assert abs(checks.rel_entropy(rho.matrix, sig.matrix) - q.rel_entropy(rho, sig)) <= 1e-12


# ------------------------------------------ checks reject bad outputs


def test_wrong_R_fails():
    r_up, r_low = checks.gibbs_zz_constants(0.05)
    ref = {"n": 9, "kind": "gibbs", "R_upper": r_up, "R_lower": r_low}
    good = {"kind": "gibbs", "n": 9, "R_upper": r_up, "R_lower": r_low}
    assert checks.check_fcs_certify(json.dumps(good), ref) == []
    assert checks.check_fcs_certify(json.dumps(dict(good, R_upper=r_up + 2e-9)), ref)
    assert checks.check_fcs_certify(json.dumps(dict(good, R_lower=r_low * 1.001)), ref)


def test_wrong_beta_fails():
    beta = 0.25
    good = {"n": 5, "eps": 0.1, "beta": beta, "d_h": -math.log(beta)}
    classical = {"n": 5, "eps": 0.1, "classical": beta}
    assert checks.check_np_exact(json.dumps(good), classical) == []
    bad = dict(good, beta=beta + 1e-8, d_h=-math.log(beta + 1e-8))
    assert checks.check_np_exact(json.dumps(bad), classical)
    stein = {"n": 5, "eps": 0.1, "stein": {"azuma-stein": math.log(0.2)}}
    assert checks.check_np_exact(json.dumps(good), stein)
    assert checks.check_np_exact(json.dumps(dict(good, d_h=1.0)), classical)


def test_gap_above_tolerance_fails():
    p = 0.1
    chi = math.log(2.0) - checks.binary_entropy(p)
    good = {"chi_star": chi, "duality_gap": 5e-9, "prior": {"0": 0.5, "1": 0.5}}
    ref = {"closed_form": chi}
    assert checks.check_capacity(json.dumps(good), ref) == []
    assert checks.check_capacity(json.dumps(dict(good, duality_gap=2e-8)), ref)
    assert checks.check_capacity(json.dumps(dict(good, chi_star=chi + 1e-5)), ref)
    outputs = {"0": np.diag([1 - p, p]).astype(complex), "1": np.diag([p, 1 - p]).astype(complex)}
    assert checks.check_capacity(json.dumps(good), {"outputs": outputs}) == []
    skew = dict(good, prior={"0": 0.6, "1": 0.4})
    assert checks.check_capacity(json.dumps(skew), {"outputs": outputs})


def test_wrong_measure_fails():
    rho, sig = q.random_density(2, 11), q.random_density(2, 12)
    meas = q.relative_modular_measure(q.tensor_pow(rho, 3), q.tensor_pow(sig, 3))
    ref = {"k": 3, "D": q.rel_entropy(rho, sig), "V": q.info_variance(rho, sig)}
    assert checks.check_measure(meas, ref) == []
    shifted = SimpleNamespace(locations=meas.locations + 1e-8, weights=meas.weights)
    assert checks.check_measure(shifted, ref)


def test_breakpoint_below_optimum_fails():
    rho, sig = q.random_density(2, 21), q.random_density(2, 22)
    curve = q.error_curve(rho, sig)
    ref = {"optimal_type2": lambda e: q.optimal_type2(rho, sig, e)}
    assert checks.check_error_curve(curve, ref) == []
    low = SimpleNamespace(alphas=curve.alphas, betas=curve.betas - 1e-9 * (curve.alphas > 0))
    assert checks.check_error_curve(low, ref)


def test_runner_counts_failed_and_crashed_jobs():
    good = jobs.Job("capacity", "ok", lambda: (0, "x"), lambda out: [])
    bad = jobs.Job("capacity", "bad", lambda: (0, "x"), lambda out: ["wrong"])
    exit2 = jobs.Job("capacity", "exit", lambda: (2, "err"), lambda out: [])
    crash = jobs.Job("capacity", "crash", lambda: 1 / 0, lambda out: [])
    runner = run.Runner(SimpleNamespace(name="channel", jobs=[good, bad, exit2, crash]), run.SpeedProbe())
    runner.run_pass()
    assert (runner.attempted, runner.failed) == (4, 3)
