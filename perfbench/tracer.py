"""Tracing of the library from the benchmark's side, with no change under src/.

``Tracer.install()`` replaces every public function of the ``qhtbounds``
modules (and the public methods of their public classes) with a wrapper that
records a span: name, start, end and parent span. The same wrapper is bound
under every name the function is imported as, so calls between modules are
seen too. ``numpy.linalg.eigh``/``eigvalsh``/``cholesky`` and
``numpy.einsum``/``kron`` are wrapped to count and time each call and
attribute it to the innermost open span. Nothing in ``src/`` changes;
``uninstall()`` restores the originals. Spans stay in memory (compact
arrays) and are written once, by ``save``, when the run ends.

``layer_metrics`` turns the spans of one pass into the per-layer metrics
named in ``BENCHMARK.json``. Self time is a span's duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
import types
from array import array
from contextlib import contextmanager

import numpy as np

MODULES = (
    "numerics", "states", "divergences", "modular", "np_oracle", "concentration",
    "bounds_iid", "bounds_corr", "fcs_gibbs", "cq_channel", "cli",
)
NUMPY_CALLS = {
    "eigh": (np.linalg, "eigh"),
    "eigvalsh": (np.linalg, "eigvalsh"),
    "cholesky": (np.linalg, "cholesky"),
    "einsum": (np, "einsum"),
    "kron": (np, "kron"),
}
NP_KINDS = tuple(NUMPY_CALLS)
_LINALG = ("eigh", "eigvalsh", "cholesky")

# results worth a count: name -> function of the returned value
RESULT_HOOKS = {
    "cq_channel.holevo_capacity": lambda rep: rep.iterations,
    "modular.relative_modular_measure": lambda meas: len(meas.locations),
}


def _traced_functions(package) -> dict[str, types.FunctionType]:
    """Qualified name -> original function for every public function/method."""
    out = {}
    for mod_name in MODULES:
        mod = sys.modules[f"{package.__name__}.{mod_name}"]
        for attr, val in vars(mod).items():
            if attr.startswith("_") or getattr(val, "__module__", None) != mod.__name__:
                continue
            if isinstance(val, types.FunctionType):
                out[f"{mod_name}.{attr}"] = val
            elif inspect.isclass(val):
                for meth, fn in vars(val).items():
                    if not meth.startswith("_") and isinstance(fn, types.FunctionType):
                        out[f"{mod_name}.{attr}.{meth}"] = fn
    return out


class Tracer:
    """Span recorder over one imported ``qhtbounds`` package."""

    def __init__(self, package):
        self.package = package
        self.functions = _traced_functions(package)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.np_kind = array("b")
        self.np_span = array("i")
        self.np_time = array("d")
        self.np_dim = array("q")
        self.hook_span = array("i")
        self.hook_value = array("q")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str):
        nid = self.name_id(name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack = self._stack
        hook = RESULT_HOOKS.get(name)
        hook_span, hook_value = self.hook_span, self.hook_value
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook_span.append(idx)
                hook_value.append(int(hook(result)))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _wrap_numpy(self, fn, kind: str):
        kid = NP_KINDS.index(kind)
        is_linalg = kind in _LINALG
        ks, spans, times, dims = self.np_kind, self.np_span, self.np_time, self.np_dim
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                times.append(clock() - t0)
                ks.append(kid)
                spans.append(stack[-1])
                dims.append(np.shape(args[0])[-1] if is_linalg else 0)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        wrappers = {id(fn): self._wrap(fn, name) for name, fn in self.functions.items()}
        prefix = self.package.__name__
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers and isinstance(val, types.FunctionType):
                    self._patch(mod, attr, wrappers[id(val)])
                elif inspect.isclass(val) and val.__module__ == mod_name:
                    for meth, fn in list(vars(val).items()):
                        if id(fn) in wrappers and isinstance(fn, types.FunctionType):
                            self._patch(val, meth, wrappers[id(fn)])
        for kind, (owner, attr) in NUMPY_CALLS.items():
            self._patch(owner, attr, self._wrap_numpy(getattr(owner, attr), kind))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    @contextmanager
    def span(self, name: str):
        """Root span around one benchmark job (or any block of the benchmark)."""
        idx = len(self.span_start)
        self.span_name.append(self.name_id(name))
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        try:
            yield
        finally:
            self.span_end[idx] = time.perf_counter()
            self._stack.pop()

    def mark(self) -> tuple[int, int, int]:
        return len(self.span_start), len(self.np_time), len(self.hook_span)

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            span_name=np.frombuffer(self.span_name, dtype=np.int32),
            span_parent=np.frombuffer(self.span_parent, dtype=np.int32),
            span_start=np.frombuffer(self.span_start),
            span_end=np.frombuffer(self.span_end),
            np_kinds=np.array(NP_KINDS),
            np_kind=np.frombuffer(self.np_kind, dtype=np.int8),
            np_span=np.frombuffer(self.np_span, dtype=np.int32),
            np_time=np.frombuffer(self.np_time),
            np_dim=np.frombuffer(self.np_dim, dtype=np.int64),
        )


class PassTrace:
    """Spans and numpy calls recorded between two ``Tracer.mark()`` points."""

    def __init__(self, tracer: Tracer, begin, end):
        s0, s1 = begin[0], end[0]
        n0, n1 = begin[1], end[1]
        h0, h1 = begin[2], end[2]
        self.names = list(tracer.names)
        self.name = np.frombuffer(tracer.span_name, dtype=np.int32)[s0:s1].copy()
        parent = np.frombuffer(tracer.span_parent, dtype=np.int32)[s0:s1] - s0
        self.parent = np.where(parent < 0, -1, parent)
        start = np.frombuffer(tracer.span_start)[s0:s1]
        self.duration = np.frombuffer(tracer.span_end)[s0:s1] - start
        self.np_kind = np.frombuffer(tracer.np_kind, dtype=np.int8)[n0:n1].copy()
        np_span = np.frombuffer(tracer.np_span, dtype=np.int32)[n0:n1] - s0
        self.np_span = np.where(np_span < 0, -1, np_span)
        self.np_time = np.frombuffer(tracer.np_time)[n0:n1].copy()
        self.np_dim = np.frombuffer(tracer.np_dim, dtype=np.int64)[n0:n1].copy()
        self.hook_span = np.frombuffer(tracer.hook_span, dtype=np.int32)[h0:h1] - s0
        self.hook_value = np.frombuffer(tracer.hook_value, dtype=np.int64)[h0:h1].copy()
        has_parent = self.parent >= 0
        child_time = np.bincount(
            self.parent[has_parent], weights=self.duration[has_parent], minlength=self.name.size
        )
        self.self_time = self.duration - child_time
        self._within: dict[tuple[str, ...], np.ndarray] = {}

    def ids(self, *names: str) -> np.ndarray:
        return np.array([self.names.index(n) for n in names if n in self.names], dtype=np.int32)

    def within(self, *names: str) -> np.ndarray:
        """Boolean per span: the span or one of its ancestors has one of ``names``."""
        if names not in self._within:
            targets = set(self.ids(*names).tolist())
            flags = [False] * self.name.size
            parent = self.parent.tolist()
            for i, nid in enumerate(self.name.tolist()):
                p = parent[i]
                flags[i] = nid in targets or (p >= 0 and flags[p])
            self._within[names] = np.array(flags, dtype=bool)
        return self._within[names]

    def topmost(self, *names: str) -> np.ndarray:
        """Boolean per span: has one of ``names`` and no ancestor that has one."""
        inside = self.within(*names)
        parent_inside = np.zeros_like(inside)
        has_parent = self.parent >= 0
        parent_inside[has_parent] = inside[self.parent[has_parent]]
        return np.isin(self.name, self.ids(*names)) & ~parent_inside

    def inclusive(self, *names: str, excluding: str | None = None) -> float:
        """Time in topmost spans of ``names``, minus ``excluding`` spans under them."""
        total = float(self.duration[self.topmost(*names)].sum())
        if excluding is not None:
            inner = self.topmost(excluding) & self.within(*names)
            total -= float(self.duration[inner].sum())
        return total

    def calls(self, name: str) -> int:
        return int(np.isin(self.name, self.ids(name)).sum())

    def np_mask(self, kinds, span_mask: np.ndarray | None = None) -> np.ndarray:
        mask = np.isin(self.np_kind, [NP_KINDS.index(k) for k in kinds])
        if span_mask is not None:
            attributed = self.np_span >= 0
            inside = np.zeros_like(mask)
            inside[attributed] = span_mask[self.np_span[attributed]]
            mask &= inside
        return mask

    def module_self(self, module: str) -> float:
        ids = [i for i, n in enumerate(self.names) if n.split(".")[0] == module]
        return float(self.self_time[np.isin(self.name, ids)].sum())

    def hook_total(self, name: str) -> int:
        ids = self.ids(name)
        return int(self.hook_value[np.isin(self.name[self.hook_span], ids)].sum()) if self.hook_span.size else 0


# (metric, unit); counts must repeat exactly between traced runs
COUNT_METRICS = (
    ("numerics.eigh_calls", "count"),
    ("numerics.eigh_dim3", "side3"),
    ("numerics.linalg_calls", "count"),
    ("numerics.einsum_calls", "count"),
    ("states.density_matrix_calls", "count"),
    ("np_oracle.optimal_type2_calls", "count"),
    ("np_oracle.eigh_per_type2", "count"),
    ("np_oracle.curve_points", "count"),
    ("modular.atoms", "count"),
    ("fcs_gibbs.grow_eigh_calls", "count"),
    ("fcs_gibbs.certify_eigh_calls", "count"),
    ("cq_channel.iterations", "count"),
    ("divergences.rel_entropy_calls", "count"),
    ("bench.spans", "count"),
)
TIME_METRICS = (
    ("numerics.eigh_s", "s"),
    ("numerics.einsum_s", "s"),
    ("numerics.kron_s", "s"),
    ("states.density_matrix_s", "s"),
    ("states.tensor_pow_s", "s"),
    ("states.product_state_s", "s"),
    ("np_oracle.optimal_type2_s", "s"),
    ("np_oracle.error_curve_s", "s"),
    ("modular.measure_s", "s"),
    ("modular.sup_norm_c_s", "s"),
    ("fcs_gibbs.grow_s", "s"),
    ("fcs_gibbs.upper_R_s", "s"),
    ("fcs_gibbs.lower_R_s", "s"),
    ("cq_channel.holevo_s", "s"),
    ("cq_channel.iteration_us", "us"),
    ("cq_channel.lifted_states_s", "s"),
    ("divergences.rel_entropy_s", "s"),
    ("divergences.info_variance_s", "s"),
    ("bounds_iid.q_curve_s", "s"),
    ("bounds_corr.eval_s", "s"),
    ("cli.self_s", "s"),
) + tuple((f"{m}.self_s", "s") for m in MODULES if m != "cli")

GROW = "fcs_gibbs.StateFamily.grow"
CERTIFIERS = ("fcs_gibbs.minimal_upper_R", "fcs_gibbs.minimal_lower_R")


def layer_metrics(tr: PassTrace) -> dict[str, float]:
    """Per-layer values of one traced pass, keyed as in COUNT/TIME_METRICS."""
    eigh = tr.np_mask(["eigh"])
    linalg = tr.np_mask(_LINALG)
    in_type2 = tr.within("np_oracle.optimal_type2")
    in_curve = tr.within("np_oracle.error_curve")
    in_grow = tr.within(GROW)
    in_cert = tr.within(*CERTIFIERS) & ~in_grow
    type2_calls = tr.calls("np_oracle.optimal_type2")
    holevo_s = tr.inclusive("cq_channel.holevo_capacity")
    iterations = tr.hook_total("cq_channel.holevo_capacity")
    bounds_corr_s = tr.inclusive(*[n for n in tr.names if n.startswith("bounds_corr.")])
    jobs_and_cli = [i for i, n in enumerate(tr.names) if n.startswith("job.") or n == "cli.run"]
    out = {
        "numerics.eigh_calls": int(eigh.sum()),
        "numerics.eigh_dim3": int((tr.np_dim[eigh].astype(np.int64) ** 3).sum()),
        "numerics.linalg_calls": int(linalg.sum()),
        "numerics.einsum_calls": int(tr.np_mask(["einsum"]).sum()),
        "states.density_matrix_calls": tr.calls("states.density_matrix"),
        "np_oracle.optimal_type2_calls": type2_calls,
        "np_oracle.eigh_per_type2": int(tr.np_mask(["eigh"], in_type2).sum()) / max(type2_calls, 1),
        "np_oracle.curve_points": int(tr.np_mask(_LINALG, in_curve).sum()),
        "modular.atoms": tr.hook_total("modular.relative_modular_measure"),
        "fcs_gibbs.grow_eigh_calls": int(tr.np_mask(["eigh"], in_grow).sum()),
        "fcs_gibbs.certify_eigh_calls": int(tr.np_mask(["eigh"], in_cert).sum()),
        "cq_channel.iterations": iterations,
        "divergences.rel_entropy_calls": tr.calls("divergences.rel_entropy"),
        "bench.spans": int(tr.name.size),
        "numerics.eigh_s": float(tr.np_time[eigh].sum()),
        "numerics.einsum_s": float(tr.np_time[tr.np_mask(["einsum"])].sum()),
        "numerics.kron_s": float(tr.np_time[tr.np_mask(["kron"])].sum()),
        "states.density_matrix_s": tr.inclusive("states.density_matrix"),
        "states.tensor_pow_s": tr.inclusive("states.tensor_pow"),
        "states.product_state_s": tr.inclusive("states.product_state"),
        "np_oracle.optimal_type2_s": tr.inclusive("np_oracle.optimal_type2"),
        "np_oracle.error_curve_s": tr.inclusive("np_oracle.error_curve"),
        "modular.measure_s": tr.inclusive("modular.relative_modular_measure"),
        "modular.sup_norm_c_s": tr.inclusive("modular.sup_norm_c"),
        "fcs_gibbs.grow_s": tr.inclusive(GROW),
        "fcs_gibbs.upper_R_s": tr.inclusive(CERTIFIERS[0], excluding=GROW),
        "fcs_gibbs.lower_R_s": tr.inclusive(CERTIFIERS[1], excluding=GROW),
        "cq_channel.holevo_s": holevo_s,
        "cq_channel.iteration_us": 1e6 * holevo_s / iterations if iterations else 0.0,
        "cq_channel.lifted_states_s": tr.inclusive("cq_channel.lifted_states"),
        "divergences.rel_entropy_s": tr.inclusive("divergences.rel_entropy"),
        "divergences.info_variance_s": tr.inclusive("divergences.info_variance"),
        "bounds_iid.q_curve_s": tr.inclusive("bounds_iid.q_curve"),
        "bounds_corr.eval_s": bounds_corr_s,
        "cli.self_s": float(tr.self_time[np.isin(tr.name, jobs_and_cli)].sum()),
    }
    for mod in MODULES:
        if mod != "cli":
            out[f"{mod}.self_s"] = tr.module_self(mod)
    return out


def summarize(per_pass: list[dict[str, float]]) -> tuple[dict[str, float], bool]:
    """Counts from the first traced pass, times as medians over passes.

    The flag says whether every count repeated exactly in every pass.
    """
    counts = {name: per_pass[0][name] for name, _ in COUNT_METRICS}
    repeat = all(p[name] == counts[name] for p in per_pass for name in counts)
    times = {name: statistics.median(p[name] for p in per_pass) for name, _ in TIME_METRICS}
    return {**counts, **times}, repeat
