"""The result and value records: immutable, compared by field, cheap to define.

Every record is a typing.NamedTuple.  TwoQubitState and MeasurementDirection
subclass one to validate in __new__; the state's cached correlation tensor is
the only attribute outside the fields.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quasilocal as ql
from quasilocal.model import BlockViolation, MarginalViolation, RangeViolation, RelationViolation

WITNESS = np.zeros(16)      # shared, so that == compares the array by identity

#: Each record type, its fields in order, and a builder of fresh records with equal fields.
RECORDS = [
    (RangeViolation, "index value", lambda: RangeViolation(0, 1.5)),
    (BlockViolation, "j k total", lambda: BlockViolation(1, 2, 2.0)),
    (MarginalViolation, "party setting outcome marginal_1 marginal_2",
     lambda: MarginalViolation("A", 1, 1, 0.5, 0.25)),
    (RelationViolation, "index expected actual", lambda: RelationViolation(1, 0.0, 0.5)),
    (ql.ChshReport, "deltas max_abs_delta eps", lambda: ql.ChshReport((4.0,) + (0.0,) * 7, 4.0)),
    (ql.NegativityResult, "min_negativity witness lower_bound feasible",
     lambda: ql.NegativityResult(0.5, WITNESS, 0.5, False)),
    (ql.TwoQubitState, "amplitudes", ql.singlet),
    (ql.MeasurementDirection, "x y z", lambda: ql.MeasurementDirection(0.0, 0.0, 1.0)),
    (ql.QubitScenario, "state a1 a2 b1 b2", lambda: ql.QubitScenario(
        ql.singlet(), *(ql.MeasurementDirection.from_xz_angle(a) for a in (0, 90, 45, 135)))),
    (ql.ChshSearchResult, "best_delta directions angles_deg",
     lambda: ql.maximize_chsh(ql.singlet())),
]


@pytest.mark.parametrize("record_type, fields, build", RECORDS, ids=[t.__name__ for t, *_ in RECORDS])
def test_records_are_immutable_values(record_type, fields, build):
    a, b = build(), build()
    assert type(a) is record_type and a is not b
    for name in fields.split() + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(a, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b
    if record_type is not ql.NegativityResult:      # its witness array is unhashable
        assert hash(a) == hash(b)
    text = repr(a)
    assert text.startswith(f"{record_type.__name__}(")
    positions = [text.index(f"{name}=") for name in fields.split()]
    assert positions == sorted(positions)


def test_chsh_report_eps_defaults_to_the_tolerance():
    assert ql.ChshReport((0.0,) * 8, 0.0).eps == ql.DEFAULT_EPS


def test_replace_validates_like_the_constructor():
    with pytest.raises(ValueError, match=r"^state is not normalized: \|amplitudes\|\^2 = 2\.0$"):
        ql.singlet()._replace(amplitudes=(1.0, 1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="^direction contains non-finite components$"):
        ql.MeasurementDirection(0.0, 0.0, 1.0)._replace(x=math.nan)
    assert ql.MeasurementDirection(0.0, 0.0, 1.0)._replace(x=1.0, z=0.0) == (1.0, 0.0, 0.0)


def test_the_cli_starts_without_dataclasses():
    # a dataclass definition runs exec on each generated method: about 0.4 ms a record;
    # reading a public name loads every module
    src = str(Path(ql.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, quasilocal.cli; quasilocal.solve; print('dataclasses' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"
