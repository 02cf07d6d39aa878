"""Seeded input generator for the benchmark workloads.

Every input is built here with numpy from a seed; nothing calls
`quasilocal`.  Inputs come in blocks of fixed composition, and block b of
seed s is drawn from its own generator `default_rng([s, b])`, so the same
seed always gives byte-identical documents, however many blocks a run uses.

Run `python3 -m perfbench.inputs --workload boxes --seed 1 --blocks 1` to
print one block as JSON, with its class shares.
"""

from __future__ import annotations

import argparse
import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import reference as ref

#: Box classes and their count per block of 96.  The rejected classes must
#: stop at the consistency check.
BOX_MIX = (
    ("local", 24),          # images of random nonnegative models
    ("nonlocal", 24),       # PR box mixed with a local box, |delta| in (2.2, 4]
    ("quantum", 16),        # near-Tsirelson Born-rule boxes
    ("vertex", 24),         # the 16 deterministic and 8 PR boxes
    ("unnormalized", 4),    # one setting-pair block scaled off 1
    ("signalling", 4),      # one block's A-marginal shifted
)
REJECTED_CLASSES = ("unnormalized", "signalling")

#: Two-qubit state classes, one of each per block of 4.
QM_MIX = ("real", "haar", "maxent_lu", "product")

#: CLI invocations per block; the pipe is three invocations.
CLI_MIX = ("validate", "chsh", "solve", "forward", "negativity", "qm",
           "pipe_qm", "pipe_solve", "pipe_forward", "inconsistent", "malformed")


@dataclass
class BoxItem:
    kind: str
    p: np.ndarray           # the box as generated
    doc: str                # its box document

    @property
    def consistent(self) -> bool:
        return self.kind not in REJECTED_CLASSES


@dataclass
class StateItem:
    kind: str
    amplitudes: np.ndarray  # 4 complex amplitudes, unit norm


@dataclass
class CliItem:
    kind: str
    args: list[str]          # arguments after `python -m quasilocal`
    stdin: str | None        # None: the pipe stage reads the previous stage's output
    expected_exit: int
    box: np.ndarray | None = None   # the box the output must reproduce


def _value(x: float) -> str:
    return f"{x:.17g}"


def box_document(p, comment: str = "") -> str:
    lines = [f"# {comment}"] if comment else []
    for i in range(16):
        a, m, b, n = ref.label(i)
        lines.append(f"{a} {m} {b} {n} {_value(p[i])}")
    return "\n".join(lines) + "\n"


def measure_document(m) -> str:
    return "".join(f"{ref.pattern(s)} {_value(m[s])}\n" for s in range(16))


def _local_box(rng) -> np.ndarray:
    return ref.F @ rng.dirichlet(np.ones(16))


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def _box(kind: str, rng, vertex: int) -> np.ndarray:
    if kind == "local":
        return _local_box(rng)
    if kind == "nonlocal":
        mu = rng.uniform(0.7, 1.0)
        return mu * ref.pr_box(int(rng.integers(8))) + (1.0 - mu) * _local_box(rng)
    if kind == "quantum":
        phi = np.array([1.0, 0.0, 0.0, 1.0]) + 0.05 * (rng.normal(size=4) + 1j * rng.normal(size=4))
        phi /= np.linalg.norm(phi)
        angles = np.array([0.0, 90.0, 45.0, -45.0]) + rng.normal(0.0, 3.0, size=4)
        dirs = [_unit(ref.xz_direction(t) + [0.0, rng.normal(0.0, 0.05), 0.0]) for t in angles]
        return ref.born_box(phi, *dirs)
    if kind == "vertex":
        return ref.deterministic_box(vertex) if vertex < 16 else ref.pr_box(vertex - 16)
    p = _local_box(rng)
    block = int(rng.integers(4))
    cells = slice(4 * block, 4 * block + 4)
    if kind == "unnormalized":
        p[cells] *= 1.0 + rng.choice([-1.0, 1.0]) * rng.uniform(0.002, 0.05)
    else:  # signalling: move weight between A outcomes at fixed B outcome
        src = 4 * block + int(np.argmax(p[cells]))
        dst = 4 * block + (src - 4 * block + 2) % 4
        t = rng.uniform(0.1, 0.9) * p[src]
        p[src] -= t
        p[dst] += t
    return p


def box_block(seed: int, block: int) -> list[BoxItem]:
    rng = np.random.default_rng([seed, block])
    kinds = [kind for kind, count in BOX_MIX for _ in range(count)]
    order = rng.permutation(len(kinds))
    items, vertex = [], 0
    for idx in order:
        kind = kinds[idx]
        p = _box(kind, rng, vertex)
        if kind == "vertex":
            vertex += 1
        items.append(BoxItem(kind, p, box_document(p, kind)))
    return items


def _haar_qubit_unitary(rng) -> np.ndarray:
    z = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _state(kind: str, rng) -> np.ndarray:
    if kind == "real":
        psi = rng.normal(size=4).astype(complex)
    elif kind == "haar":
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    elif kind == "maxent_lu":
        phi = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
        psi = np.kron(_haar_qubit_unitary(rng), _haar_qubit_unitary(rng)) @ phi
    else:  # product
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi = np.kron(a, b)
    return psi / np.linalg.norm(psi)


def state_block(seed: int, block: int) -> list[StateItem]:
    rng = np.random.default_rng([seed, block])
    return [StateItem(QM_MIX[i], _state(QM_MIX[i], rng))
            for i in rng.permutation(len(QM_MIX))]


def state_argument(amplitudes) -> str:
    return ",".join(repr(complex(a)) for a in amplitudes)


def _malformed(doc: str, rng) -> str:
    lines = doc.splitlines()
    how = int(rng.integers(3))
    if how == 0:                                 # a data line is missing
        del lines[int(rng.integers(1, len(lines)))]
    elif how == 1:                               # a value is not a number
        i = int(rng.integers(1, len(lines)))
        lines[i] = lines[i].rsplit(" ", 1)[0] + " 0.25x"
    else:                                        # an outcome token is wrong
        i = int(rng.integers(1, len(lines)))
        lines[i] = lines[i].replace(" + ", " * ", 1).replace(" - ", " * ", 1)
    return "\n".join(lines) + "\n"


def cli_block(seed: int, block: int) -> list[CliItem]:
    """One of each CLI invocation, in CLI_MIX order (the pipe stays in order)."""
    rng = np.random.default_rng([seed, block])

    def consistent_box():
        kind = ("local", "nonlocal", "quantum")[int(rng.integers(3))]
        return _box(kind, rng, 0)

    def qm_case():
        psi = _state(QM_MIX[int(rng.integers(4))], rng)
        angles = [float(a) for a in np.round(rng.uniform(0.0, 360.0, size=4), 6)]
        args = ["qm", f"--state={state_argument(psi)}", "--angles", *map(repr, angles)]
        box = ref.born_box(psi, *(ref.xz_direction(t) for t in angles))
        return args, box

    items = []
    for kind in ("validate", "chsh", "solve"):
        p = consistent_box()
        items.append(CliItem(kind, [kind], box_document(p), 0, box=p))
    m = rng.uniform(-0.5, 1.0, size=16)
    m += (1.0 - m.sum()) / 16.0
    items.append(CliItem("forward", ["forward"], measure_document(m), 0,
                         box=ref.F @ m))
    p = consistent_box()
    items.append(CliItem("negativity", ["negativity"], box_document(p), 0, box=p))
    args, box = qm_case()
    items.append(CliItem("qm", args, "", 0, box=box))
    args, box = qm_case()
    items.append(CliItem("pipe_qm", args, "", 0, box=box))
    items.append(CliItem("pipe_solve", ["solve"], None, 0, box=box))
    items.append(CliItem("pipe_forward", ["forward"], None, 0, box=box))
    bad = _box(REJECTED_CLASSES[int(rng.integers(2))], rng, 0)
    command = ("validate", "chsh", "solve", "negativity")[int(rng.integers(4))]
    items.append(CliItem("inconsistent", [command], box_document(bad), 1, box=bad))
    command = ("validate", "chsh", "solve", "negativity")[int(rng.integers(4))]
    items.append(CliItem("malformed", [command],
                         _malformed(box_document(consistent_box()), rng), 2))
    return items


BLOCKS = {"boxes": box_block, "qm": state_block, "cli": cli_block}


def block(workload: str, seed: int, index: int) -> list:
    return BLOCKS[workload](seed, index)


def serialize(items) -> list[dict]:
    """JSON form of a block, exact to the last bit."""
    out = []
    for item in items:
        if isinstance(item, BoxItem):
            out.append({"kind": item.kind, "doc": item.doc})
        elif isinstance(item, StateItem):
            out.append({"kind": item.kind, "state": state_argument(item.amplitudes)})
        else:
            out.append({"kind": item.kind, "args": item.args, "stdin": item.stdin,
                        "expected_exit": item.expected_exit})
    return out


def shares(items) -> dict[str, float]:
    counts = Counter(item.kind for item in items)
    return {kind: counts[kind] / len(items) for kind in counts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(BLOCKS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--blocks", type=int, default=1)
    args = parser.parse_args(argv)
    items = [it for b in range(args.blocks) for it in block(args.workload, args.seed, b)]
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "shares": shares(items), "items": serialize(items)}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
