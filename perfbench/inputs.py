"""Seeded input generator for the benchmark workloads.

``generate(workload, seed, directory)`` writes the JSON specs (states,
families, channels) that the workload's jobs read, plus ``manifest.json``
recording the workload and seed. The same seed always writes the same files.
Only numpy is used here: the program under test sees nothing but these files
and the command-line arguments built from them.

Run as a script, this file is the set-up that ``run.py`` times: a fresh
interpreter imports ``qhtbounds``, generates the workload's inputs and loads
every one of them through the library's JSON parsers.

    python3 perfbench/inputs.py <workload> <seed> <directory>
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

# Bloch vectors of the reference qubit pair built into `qhtbounds fig1`.
REF_BLOCH_A = (-0.177483, 0.365807, 0.291007)
REF_BLOCH_B = (-0.452239, -0.141906, -0.159193)

GIBBS_BETA = 0.05
PRODUCT_DIAG = (0.65, 0.35)
BSC_P = 0.1
# `channel moderate` needs faithful lifted states and c_p < log 4. It raised
# SupportError (a letter with zero optimal weight) or AdmissibilityError on
# every random 8-letter channel tried (35 draws from three generators), so
# the moderate job runs on this low-contrast binary symmetric channel.
BSC_WIDE_P = 0.4
PURE_OVERLAP = 0.6

# Plain Blahut-Arimoto needs from 320 to 34,530 iterations on random
# 4-dimensional channels (24 draws, ``_base_channel(i, letters)`` for
# i < 12), so a fresh random channel per seed would make the channel
# workload's cost swing 100x between seeds. Instead each seed rotates one
# fixed base channel by a seeded Haar unitary and permutes its letters; the
# capacity and the iteration count are invariant under both. The base is the
# upper-median draw of the first 12 by iteration count: index 6 for 8
# letters (807 iterations) and index 7 for 16 letters (2,007 iterations).
BASE_CHANNEL_INDEX = {8: 6, 16: 7}
CHANNEL_DIM = 4

WORKLOADS = ("iid_exact", "correlated", "channel")


def _matrix_json(m) -> dict:
    import numpy as np

    m = np.asarray(m, dtype=complex)
    return {"dim": m.shape[0], "entries": [[float(z.real), float(z.imag)] for z in m.reshape(-1)]}


def _ginibre_state(rng, dim: int):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / m.trace().real


def _haar_unitary(rng, dim: int):
    import numpy as np

    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _hermitian(m):
    m = (m + m.conj().T) / 2.0
    return m / m.trace().real


def _base_channel(index: int, letters: int) -> list:
    import numpy as np

    rng = np.random.default_rng([index, letters])
    return [_ginibre_state(rng, CHANNEL_DIM) for _ in range(letters)]


def _seeded_channel(seed: int, letters: int) -> dict:
    import numpy as np

    rng = np.random.default_rng([seed, 4, letters])
    u = _haar_unitary(rng, CHANNEL_DIM)
    order = rng.permutation(letters)
    base = _base_channel(BASE_CHANNEL_INDEX[letters], letters)
    names = [f"x{i}" for i in range(letters)]
    outputs = {names[i]: _matrix_json(_hermitian(u @ base[j] @ u.conj().T)) for i, j in enumerate(order)}
    return {"alphabet": names, "outputs": outputs}


def _iid_exact(seed: int) -> dict:
    import numpy as np

    rng = np.random.default_rng([seed, 1])
    diag = np.random.default_rng([seed, 2]).uniform(0.15, 0.85, size=2)
    return {
        "ref_a": {"bloch": list(REF_BLOCH_A)},
        "ref_b": {"bloch": list(REF_BLOCH_B)},
        "rand_a": _matrix_json(_ginibre_state(rng, 2)),
        "rand_b": _matrix_json(_ginibre_state(rng, 2)),
        "diag_a": _matrix_json(np.diag([diag[0], 1.0 - diag[0]])),
        "diag_b": _matrix_json(np.diag([diag[1], 1.0 - diag[1]])),
    }


def kernel_spec(seed: int) -> dict:
    """Two-state commutative memory kernel: stochastic T, invariant p, site states."""
    import numpy as np

    rng = np.random.default_rng([seed, 3])
    a, b = rng.uniform(0.2, 0.8, size=2)
    # mixing with I/2 keeps every site state's smallest eigenvalue >= 0.1,
    # so both factorization constants stay finite and well conditioned
    states = [
        [_matrix_json(0.8 * _ginibre_state(rng, 2) + 0.1 * np.eye(2)) for _ in range(2)]
        for _ in range(2)
    ]
    return {
        "type": "commutative_fcs",
        "T": [[1.0 - a, a], [b, 1.0 - b]],
        "p": [b / (a + b), a / (a + b)],
        "states": states,
    }


def _correlated(seed: int) -> dict:
    zz = [1.0, -1.0, -1.0, 1.0]
    return {
        "gibbs": {
            "type": "gibbs",
            "site_dim": 2,
            "beta": GIBBS_BETA,
            "h": {"dim": 4, "entries": [[zz[i], 0.0] if i == j else [0.0, 0.0] for i in range(4) for j in range(4)]},
        },
        "product": {
            "type": "product",
            "state": {"dim": 2, "entries": [[PRODUCT_DIAG[0], 0.0], [0.0, 0.0], [0.0, 0.0], [PRODUCT_DIAG[1], 0.0]]},
        },
        "kernel": kernel_spec(seed),
    }


def _bsc(p: float) -> dict:
    return {
        "alphabet": ["0", "1"],
        "outputs": {
            "0": {"dim": 2, "entries": [[1 - p, 0], [0, 0], [0, 0], [p, 0]]},
            "1": {"dim": 2, "entries": [[p, 0], [0, 0], [0, 0], [1 - p, 0]]},
        },
    }


def _channel(seed: int) -> dict:
    import math

    s = PURE_OVERLAP
    return {
        "ch8": _seeded_channel(seed, 8),
        "ch16": _seeded_channel(seed, 16),
        "bsc": _bsc(BSC_P),
        "bsc_wide": _bsc(BSC_WIDE_P),
        "pure": {
            "alphabet": ["a", "b"],
            "outputs": {
                "a": {"dim": 2, "entries": [[1, 0], [0, 0], [0, 0], [0, 0]]},
                "b": _matrix_json([[s * s, s * math.sqrt(1 - s * s)], [s * math.sqrt(1 - s * s), 1 - s * s]]),
            },
        },
    }


_GENERATORS = {"iid_exact": _iid_exact, "correlated": _correlated, "channel": _channel}

# which library parser reads each spec
KINDS = {
    "ref_a": "state", "ref_b": "state", "rand_a": "state", "rand_b": "state",
    "diag_a": "state", "diag_b": "state",
    "gibbs": "family", "product": "family", "kernel": "family",
    "ch8": "channel", "ch16": "channel", "bsc": "channel", "bsc_wide": "channel", "pure": "channel",
}


def generate(workload: str, seed: int, directory: Path) -> dict[str, str]:
    """Write the workload's input specs and manifest; return name -> path."""
    specs = _GENERATORS[workload](seed)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, obj in specs.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(obj))
        paths[name] = str(path)
    manifest = {"workload": workload, "seed": seed, "files": sorted(paths)}
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return paths


def load(paths: dict[str, str]) -> dict:
    """Parse every generated spec with the library's own JSON readers."""
    from qhtbounds.cq_channel import channel_from_json
    from qhtbounds.fcs_gibbs import family_from_json
    from qhtbounds.states import state_from_json

    parsers = {"state": state_from_json, "family": family_from_json, "channel": channel_from_json}
    loaded = {}
    for name, path in paths.items():
        with open(path, encoding="utf-8") as fh:
            loaded[name] = parsers[KINDS[name]](json.load(fh))
    return loaded


def _setup_main(argv: list[str]) -> int:
    workload, seed, directory = argv[0], int(argv[1]), argv[2]
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import qhtbounds  # noqa: F401  (import time is part of set-up)

    load(generate(workload, seed, Path(directory)))
    return 0


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.exit(_setup_main(sys.argv[1:]))
