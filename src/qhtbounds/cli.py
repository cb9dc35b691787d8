"""Batch front-end: parse JSON specs, run computations, emit CSV/JSON.

Exit codes: 0 success, 1 parse error (arguments, JSON syntax, missing files),
2 domain or precondition error, 3 resource guard. Failures write a machine
readable ``{"error": {"type": ..., "message": ...}}`` object to stderr. All
numeric output is rounded to 12 significant digits and identical invocations
with identical seeds produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import bounds_corr, bounds_iid, concentration, cq_channel, fcs_gibbs, np_oracle
from .divergences import info_variance, rel_entropy
from .errors import QhtError, ResourceError
from .modular import relative_modular_measure, sup_norm_c
from .states import DensityMatrix, from_bloch, random_density, state_from_json, tensor_pow, to_bloch


class CliParseError(Exception):
    pass


_NEGATIVE_VALUE = re.compile(
    r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?(,-?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?)*$"
)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let option values be negative numbers or comma lists of them,
        # e.g. --blochB -0.45,-0.14,-0.16
        self._negative_number_matcher = _NEGATIVE_VALUE

    def error(self, message):  # argparse would call sys.exit(2)
        raise CliParseError(message)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    v = float(x)
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return f"{v:.12g}"


def _round_floats(obj):
    if isinstance(obj, float):
        return obj if not math.isfinite(obj) else float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit_json(obj, out) -> None:
    json.dump(_round_floats(obj), out, sort_keys=True, indent=2)
    out.write("\n")


def _emit_csv(header, rows, out) -> None:
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(_fmt(v) for v in row) + "\n")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliParseError(f"cannot read JSON from {path}: {exc}") from exc


def _load_state(path: str) -> DensityMatrix:
    return state_from_json(_load_json(path))


def _cmd_divergence(args, out) -> int:
    rho = _load_state(args.state_a)
    sigma = _load_state(args.state_b)
    reg = args.regularize
    _emit_json(
        {
            "rel_entropy": rel_entropy(rho, sigma, reg),
            "info_variance": info_variance(rho, sigma, reg),
            "sup_norm_c": sup_norm_c(rho, sigma, reg),
        },
        out,
    )
    return 0


def _cmd_measure(args, out) -> int:
    rho = _load_state(args.state_a)
    sigma = _load_state(args.state_b)
    meas = relative_modular_measure(rho, sigma, args.regularize)
    _emit_csv(
        ["location", "weight"],
        [(l, w) for l, w in zip(meas.locations, meas.weights)],
        out,
    )
    return 0


def _cmd_np_exact(args, out) -> int:
    rho = _load_state(args.state_a)
    sigma = _load_state(args.state_b)
    if args.n > 1:
        rho = tensor_pow(rho, args.n)
        sigma = tensor_pow(sigma, args.n)
    beta = np_oracle.optimal_type2(rho, sigma, args.eps)
    _emit_json(
        {
            "n": args.n,
            "eps": args.eps,
            "beta": beta,
            "d_h": math.inf if beta <= 0.0 else -math.log(beta),
        },
        out,
    )
    return 0


def _cmd_bounds_iid(args, out) -> int:
    rho = _load_state(args.state_a)
    sigma = _load_state(args.state_b)
    pairs = [(rho, sigma)] * args.n
    reports = []
    if args.eps is not None:
        reports.append(bounds_iid.azuma_stein_bound(pairs, args.eps, args.regularize))
        reports.append(bounds_iid.ks_stein_bound(pairs, args.eps, args.regularize))
    if args.rate is not None:
        reports.append(bounds_iid.azuma_hoeffding_bound(pairs, args.rate, args.regularize))
        reports.append(bounds_iid.ks_hoeffding_bound(pairs, args.rate, args.regularize))
    if not reports:
        raise CliParseError("bounds-iid needs --eps and/or --rate")
    _emit_csv(
        ["method", "n", "eps", "rate", "log_beta_bound"],
        [(r.method, r.n, r.eps, r.rate, r.value) for r in reports],
        out,
    )
    return 0


FIG1_BLOCH_A = (-0.177483, 0.365807, 0.291007)
FIG1_BLOCH_B = (-0.452239, -0.141906, -0.159193)


def _parse_bloch(text: str):
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 3:
        raise CliParseError(f"Bloch vector needs 3 comma-separated components, got {text!r}")
    return parts


def _cmd_fig1(args, out) -> int:
    if args.seed is not None:
        rho = random_density(2, args.seed)
        sigma = random_density(2, args.seed + 1)
    else:
        rho = from_bloch(_parse_bloch(args.blochA) if args.blochA else FIG1_BLOCH_A)
        sigma = from_bloch(_parse_bloch(args.blochB) if args.blochB else FIG1_BLOCH_B)
    bloch_a = to_bloch(rho)
    bloch_b = to_bloch(sigma)
    eps0, eps0_tilde = bounds_iid.crossover_eps(rho, sigma)
    rows = bounds_iid.q_curve(rho, sigma, args.n, np.linspace(0.01, 0.99, args.grid))
    _emit_csv(
        ["field", "v1", "v2", "v3"],
        [
            ("blochA",) + tuple(bloch_a),
            ("blochB",) + tuple(bloch_b),
            ("n", args.n, None, None),
            ("eps0", eps0, None, None),
            ("eps0_tilde", eps0_tilde, None, None),
        ],
        out,
    )
    out.write("\n")
    _emit_csv(
        ["eps", "neg_f", "g", "h", "h_tilde", "s1", "s2"],
        [tuple(r[k] for k in ("eps", "neg_f", "g", "h", "h_tilde", "s1", "s2")) for r in rows],
        out,
    )
    return 0


def _cmd_fcs_certify(args, out) -> int:
    family = fcs_gibbs.family_from_json(_load_json(args.family))
    fcs_gibbs.certify_family(family, args.n, which="both")
    _emit_json(
        {
            "kind": family.kind,
            "n": args.n,
            "R_upper": family.r_upper,
            "R_lower": family.r_lower,
        },
        out,
    )
    return 0


def _certified_pair(path_a: str, path_b: str, n: int):
    fam_a = fcs_gibbs.family_from_json(_load_json(path_a))
    fam_b = fcs_gibbs.family_from_json(_load_json(path_b))
    fcs_gibbs.certify_family(fam_a, n, which="upper")
    fcs_gibbs.certify_family(fam_b, n, which="upper")
    r_const = max(fam_a.r_upper, fam_b.r_upper)
    steps = []
    for k in range(1, n + 1):
        rho_k = fam_a.marginal(k)
        sig_k = fam_b.marginal(k)
        steps.append(
            (
                rel_entropy(rho_k, sig_k),
                sup_norm_c(rho_k, sig_k),
                info_variance(rho_k, sig_k),
            )
        )
    return fam_a, fam_b, r_const, steps


def _cmd_bounds_factorized(args, out) -> int:
    _, _, r_const, steps = _certified_pair(args.family_a, args.family_b, args.n)
    dc = [(d, c) for d, c, _ in steps]
    rows = []
    if args.eps is not None:
        value = bounds_corr.nonhomog_stein_bound(dc, r_const, args.n, args.eps)
        rows.append(("stein", args.n, args.eps, None, r_const, value))
    if args.rate is not None:
        value = bounds_corr.nonhomog_hoeffding_bound(dc, r_const, args.n, args.rate)
        rows.append(("hoeffding", args.n, None, args.rate, r_const, value))
    if not rows:
        raise CliParseError("bounds-factorized needs --eps and/or --rate")
    _emit_csv(["method", "n", "eps", "rate", "R", "log_beta_bound"], rows, out)
    return 0


def _cmd_moderate(args, out) -> int:
    fam_a, fam_b, r_const, steps = _certified_pair(args.family_a, args.family_b, args.n)
    dv = [(d, v) for d, _, v in steps]
    c_sup = max(c for _, c, _ in steps)
    rows = []
    for n in range(1, args.n + 1):
        a_n = n ** (-args.an_exponent)
        eps_n = math.exp(-n * a_n**2)
        lower, upper_form = bounds_corr.moderate_nonhomog(dv[:n], c_sup, r_const, a_n, n)
        dh_exact = None
        if args.exact:
            dh_exact = np_oracle.d_h(fam_a.state(n), fam_b.state(n), eps_n)
        rows.append((n, a_n, eps_n, lower, upper_form, dh_exact))
    _emit_csv(["n", "a_n", "eps_n", "lower", "upper_form", "dh_exact"], rows, out)
    return 0


def _cmd_channel(args, out) -> int:
    channel = cq_channel.channel_from_json(_load_json(args.channel))
    if args.action == "capacity":
        report = cq_channel.holevo_capacity(channel)
        _emit_json(cq_channel.capacity_report_to_json(report), out)
        return 0
    if args.action == "wr-bound":
        if args.eps is None or args.eps_prime is None:
            raise CliParseError("wr-bound needs --eps and --eps-prime")
        report = cq_channel.holevo_capacity(channel)
        value = cq_channel.wr_lower_bound(channel, args.eps, args.eps_prime, report.prior)
        _emit_json(
            {"eps": args.eps, "eps_prime": args.eps_prime, "wr_lower_bound": value},
            out,
        )
        return 0
    if args.action == "moderate":
        family = cq_channel.memoryless_family(channel)
        if args.R is not None:
            # externally certified constant for a channel with memory
            family.r_upper = args.R
            family.r_lower = args.R
            family.certified_n = args.n
        a_n = args.n ** (-args.an_exponent)
        report = cq_channel.holevo_capacity(channel)
        value = cq_channel.capacity_moderate(family, a_n, args.n, args.direction, report)
        _emit_json(
            {
                "n": args.n,
                "a_n": a_n,
                "eps_n": math.exp(-args.n * a_n**2),
                "direction": args.direction,
                "value": value,
                "asymptotic_form": True,
            },
            out,
        )
        return 0
    raise CliParseError(f"unknown channel action {args.action!r}")


def _cmd_concentration_mc(args, out) -> int:
    spec = concentration.MODELS.get(args.model)
    if spec is None:
        raise CliParseError(f"unknown model {args.model!r}; choose from {sorted(concentration.MODELS)}")
    if args.thresholds:
        thresholds = [float(v) for v in args.thresholds.split(",")]
    else:
        scale = spec.azuma_d * math.sqrt(args.n) if spec.bounded else 1.0
        thresholds = [0.5 * scale, 1.0 * scale, 1.5 * scale]
    rows = []
    for thr in thresholds:
        result = concentration.mc_martingale_harness(
            args.model, args.n, args.trials, thr, args.seed, args.side
        )
        bounds = concentration.model_bounds(spec, args.n, thr, args.side)
        rows.append(
            (
                args.model,
                args.n,
                args.trials,
                args.seed,
                args.side,
                thr,
                bounds.get("azuma"),
                bounds.get("improved_azuma"),
                bounds.get("kearns_saul"),
                result.frequency,
                result.stderr,
            )
        )
    _emit_csv(
        [
            "model", "n", "trials", "seed", "side", "threshold",
            "bound_azuma", "bound_improved_azuma", "bound_kearns_saul",
            "empirical", "stderr",
        ],
        rows,
        out,
    )
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="qhtbounds", description=__doc__)
    parser.add_argument("--output", help="write output to a file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_reg(p):
        p.add_argument(
            "--regularize", nargs="?", const=1e-10, default=None, type=float,
            metavar="DELTA", help="mix non-faithful inputs with delta * I/d (default 1e-10)",
        )

    p = sub.add_parser("divergence", help="relative entropy, variance and sup-norm constant")
    p.add_argument("state_a")
    p.add_argument("state_b")
    add_reg(p)
    p.set_defaults(func=_cmd_divergence)

    p = sub.add_parser("measure", help="relative modular spectral measure as CSV")
    p.add_argument("state_a")
    p.add_argument("state_b")
    add_reg(p)
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("np-exact", help="exact optimal type-II error")
    p.add_argument("state_a")
    p.add_argument("state_b")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--n", type=int, default=1)
    p.set_defaults(func=_cmd_np_exact)

    p = sub.add_parser("bounds-iid", help="finite blocklength bounds for i.i.d. pairs")
    p.add_argument("state_a")
    p.add_argument("state_b")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--rate", type=float, default=None)
    add_reg(p)
    p.set_defaults(func=_cmd_bounds_iid)

    p = sub.add_parser("fig1", help="comparison-curve table for a qubit pair")
    p.add_argument("--blochA", default=None, help="x,y,z (defaults to the built-in pair)")
    p.add_argument("--blochB", default=None)
    p.add_argument("--seed", type=int, default=None, help="random qubit pair instead of Bloch vectors")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--grid", type=int, default=50)
    p.set_defaults(func=_cmd_fig1)

    p = sub.add_parser("fcs-certify", help="factorization constants of a family")
    p.add_argument("family")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_fcs_certify)

    p = sub.add_parser("bounds-factorized", help="bounds for certified correlated families")
    p.add_argument("family_a")
    p.add_argument("family_b")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--rate", type=float, default=None)
    p.set_defaults(func=_cmd_bounds_factorized)

    p = sub.add_parser("moderate", help="moderate-deviation tabulation for families")
    p.add_argument("family_a")
    p.add_argument("family_b")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--an-exponent", dest="an_exponent", type=float, default=1.0 / 3.0)
    p.add_argument("--exact", action="store_true", help="include the exact d_h column")
    p.set_defaults(func=_cmd_moderate)

    p = sub.add_parser("channel", help="classical-quantum channel quantities")
    p.add_argument("channel")
    p.add_argument("action", choices=["capacity", "wr-bound", "moderate"])
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--eps-prime", dest="eps_prime", type=float, default=None)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--an-exponent", dest="an_exponent", type=float, default=1.0 / 3.0)
    p.add_argument("--direction", choices=["lower", "upper_form"], default="lower")
    p.add_argument("--R", type=float, default=None, help="externally certified factorization constant")
    p.set_defaults(func=_cmd_channel)

    p = sub.add_parser("concentration-mc", help="Monte Carlo check of the concentration bounds")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--side", choices=["upper", "lower"], default="upper")
    p.add_argument("--thresholds", default=None, help="comma-separated deviation thresholds")
    p.set_defaults(func=_cmd_concentration_mc)

    return parser


def _error_json(kind: str, message: str) -> str:
    return json.dumps({"error": {"type": kind, "message": message}}, sort_keys=True)


def run(argv) -> int:
    """Parse arguments, dispatch, and map failures to stable exit codes."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except CliParseError as exc:
        print(_error_json("parse", str(exc)), file=sys.stderr)
        return 1
    try:
        if args.output:
            with open(args.output, "w", encoding="utf-8") as out:
                return args.func(args, out)
        return args.func(args, sys.stdout)
    except CliParseError as exc:
        print(_error_json("parse", str(exc)), file=sys.stderr)
        return 1
    except ResourceError as exc:
        print(_error_json("resource", str(exc)), file=sys.stderr)
        return 3
    except QhtError as exc:
        print(_error_json(type(exc).__name__, str(exc)), file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
