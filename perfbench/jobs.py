"""Job lists of the three workloads, with the reference data their checks use.

One pass of a workload runs its job list once, in order. A job either calls
``qhtbounds.cli.run(argv)`` on the generated input files (output: the text
the CLI writes to stdout) or makes one public library call (output: the
returned object). Every name is looked up on the module at call time, so the
tracer's wrappers are seen when they are installed.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs

JOB_CLASSES = {
    "iid_exact": ("np_exact", "error_curve", "measure", "fig1"),
    "correlated": ("fcs_certify", "moderate", "bounds_factorized"),
    "channel": ("capacity", "wr_bound", "channel_moderate"),
}
NP_EPS = (0.01, 0.1, 0.5)
CURVE_GAP_EPS = np.linspace(0.01, 0.99, 99)


@dataclass
class Job:
    cls: str
    label: str
    run: Callable[[], tuple[int, object]]
    check: Callable[[object], list[str]]


def fingerprint(output) -> object:
    """Comparable form of a job output, to check that every pass repeats the first."""
    if isinstance(output, str):
        return output
    if hasattr(output, "alphas"):
        return output.alphas.tobytes() + output.betas.tobytes()
    return output.locations.tobytes() + output.weights.tobytes()


class Workload:
    """Jobs of one workload over generated inputs, bound to an imported library."""

    def __init__(self, q, name: str, seed: int, paths: dict[str, str]):
        self.q = q
        self.name = name
        self.seed = seed
        self.paths = paths
        self.specs = {k: json.loads(Path(p).read_text(encoding="utf-8")) for k, p in paths.items()}
        self.loaded = inputs.load(paths)
        self.jobs: list[Job] = getattr(self, f"_{name}")()

    # ------------------------------------------------------------ helpers

    def cli(self, *argv: str) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.q.cli.run(list(argv))
        return code, out.getvalue() if code == 0 else err.getvalue()

    def _cli_job(self, cls: str, argv: list[str], check, ref) -> Job:
        return Job(cls, " ".join(a.rsplit("/", 1)[-1] for a in argv), lambda: self.cli(*argv), lambda out: check(out, ref))

    def _stein_bounds(self, a: str, b: str, n: int, eps: float) -> dict[str, float]:
        code, out = self.cli("bounds-iid", self.paths[a], self.paths[b], "--n", str(n), "--eps", str(eps))
        if code != 0:
            raise RuntimeError(f"bounds-iid reference failed: {out}")
        return {r["method"]: float(r["log_beta_bound"]) for r in checks.csv_rows(out)}

    def curve_gap(self, curve=None) -> float:
        """Largest beta_at(eps) - optimal_type2(eps) of the dim-8 reference curve."""
        states = self.q.states
        rho3 = states.tensor_pow(states.from_bloch(inputs.REF_BLOCH_A), 3)
        sig3 = states.tensor_pow(states.from_bloch(inputs.REF_BLOCH_B), 3)
        if curve is None:
            curve = self.q.np_oracle.error_curve(rho3, sig3)
        return max(curve.beta_at(e) - self.q.np_oracle.optimal_type2(rho3, sig3, e) for e in CURVE_GAP_EPS)

    # ---------------------------------------------------------- workloads

    def _iid_exact(self) -> list[Job]:
        q, p = self.q, self.paths
        jobs = []
        for a, b, n in (("ref_a", "ref_b", 5), ("ref_a", "ref_b", 6), ("ref_a", "ref_b", 7), ("rand_a", "rand_b", 6)):
            for eps in NP_EPS:
                ref = {"n": n, "eps": eps, "stein": self._stein_bounds(a, b, n, eps)}
                argv = ["np-exact", p[a], p[b], "--eps", str(eps), "--n", str(n)]
                jobs.append(self._cli_job("np_exact", argv, checks.check_np_exact, ref))
        diag_a = [self.specs["diag_a"]["entries"][i][0] for i in (0, 3)]
        diag_b = [self.specs["diag_b"]["entries"][i][0] for i in (0, 3)]
        for eps in NP_EPS:
            pa, pb = checks.product_distribution(diag_a, 5), checks.product_distribution(diag_b, 5)
            ref = {"n": 5, "eps": eps, "classical": checks.classical_beta(pa, pb, eps)}
            argv = ["np-exact", p["diag_a"], p["diag_b"], "--eps", str(eps), "--n", "5"]
            jobs.append(self._cli_job("np_exact", argv, checks.check_np_exact, ref))

        rho, sig = self.loaded["ref_a"], self.loaded["ref_b"]
        for k in (1, 3):
            rho_k, sig_k = q.states.tensor_pow(rho, k), q.states.tensor_pow(sig, k)
            ref = {"optimal_type2": lambda e, r=rho_k, s=sig_k: q.np_oracle.optimal_type2(r, s, e)}
            jobs.append(Job(
                "error_curve", f"error_curve ref^{k}",
                lambda k=k: (0, q.np_oracle.error_curve(q.states.tensor_pow(rho, k), q.states.tensor_pow(sig, k))),
                lambda out, ref=ref: checks.check_error_curve(out, ref),
            ))
        ref_dv = {"D": q.divergences.rel_entropy(rho, sig), "V": q.divergences.info_variance(rho, sig)}
        for k in (8, 10):
            ref = dict(ref_dv, k=k)
            jobs.append(Job(
                "measure", f"relative_modular_measure ref^{k}",
                lambda k=k: (0, q.modular.relative_modular_measure(q.states.tensor_pow(rho, k), q.states.tensor_pow(sig, k))),
                lambda out, ref=ref: checks.check_measure(out, ref),
            ))
        fig_ref = {"n": 100, "grid": 2000, "bloch_a": inputs.REF_BLOCH_A, "bloch_b": inputs.REF_BLOCH_B, "crossover": True}
        jobs.append(self._cli_job("fig1", ["fig1", "--n", "100", "--grid", "2000"], checks.check_fig1, fig_ref))
        jobs.append(self._cli_job("fig1", ["fig1", "--seed", str(self.seed)], checks.check_fig1, {"n": 100, "grid": 50}))
        return jobs

    def _correlated(self) -> list[Job]:
        p = self.paths
        r_up, r_low = checks.gibbs_zz_constants(inputs.GIBBS_BETA)
        k_up, k_low = checks.kernel_chain_constants(self.specs["kernel"], 9)
        half = (0.5, 0.5)
        pair = {"D1": checks.classical_kl(half, inputs.PRODUCT_DIAG), "c1": checks.classical_sup_norm(half, inputs.PRODUCT_DIAG), "R": r_up}
        return [
            self._cli_job("fcs_certify", ["fcs-certify", p["gibbs"], "--n", "9"], checks.check_fcs_certify,
                          {"n": 9, "kind": "gibbs", "R_upper": r_up, "R_lower": r_low}),
            self._cli_job("fcs_certify", ["fcs-certify", p["kernel"], "--n", "9"], checks.check_fcs_certify,
                          {"n": 9, "kind": "fcs", "R_upper": k_up, "R_lower": k_low}),
            self._cli_job("moderate", ["moderate", p["gibbs"], p["product"], "--n", "6", "--exact"],
                          checks.check_moderate, dict(pair, n=6)),
            self._cli_job("bounds_factorized",
                          ["bounds-factorized", p["gibbs"], p["product"], "--n", "9", "--eps", "0.1", "--rate", "0.05"],
                          checks.check_bounds_factorized, dict(pair, n=9, eps=0.1, rate=0.05)),
        ]

    def _channel(self) -> list[Job]:
        q, p = self.q, self.paths
        s = inputs.PURE_OVERLAP
        closed = {
            "bsc": math.log(2.0) - checks.binary_entropy(inputs.BSC_P),
            "pure": checks.binary_entropy((1.0 + s) / 2.0),
        }
        jobs = []
        for name in ("ch8", "ch16"):
            outputs = {x: w.matrix for x, w in self.loaded[name].outputs.items()}
            jobs.append(self._cli_job("capacity", ["channel", p[name], "capacity"], checks.check_capacity, {"outputs": outputs}))
        for name in ("bsc", "pure"):
            jobs.append(self._cli_job("capacity", ["channel", p[name], "capacity"], checks.check_capacity, {"closed_form": closed[name]}))
        chi8 = q.cq_channel.holevo_capacity(self.loaded["ch8"]).chi_star
        jobs.append(self._cli_job("wr_bound", ["channel", p["ch8"], "wr-bound", "--eps", "0.2", "--eps-prime", "0.05"],
                                  checks.check_wr_bound, {"eps": 0.2, "eps_prime": 0.05, "chi": chi8}))
        chi_wide = math.log(2.0) - checks.binary_entropy(inputs.BSC_WIDE_P)
        jobs.append(self._cli_job("channel_moderate", ["channel", p["bsc_wide"], "moderate", "--n", "50"],
                                  checks.check_channel_moderate, {"n": 50, "chi": chi_wide}))
        return jobs
