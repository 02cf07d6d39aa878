"""What a process imports: each CLI call loads only the modules its
subcommand runs, and the package binds its public names on their first read."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quasilocal as ql
from quasilocal.fileio import box_object, fixture_path

BOX = str(fixture_path("tsirelson.box"))
MEASURES = str(fixture_path("tsirelson.measures"))
BASE = {"quasilocal.cli", "quasilocal.fileio", "quasilocal.model"}

#: Runs `python -m quasilocal` with this process's arguments, then prints the
#: exit code and the quasilocal.* modules and json found in sys.modules.
CHILD = """
import runpy, sys
sys.argv[0] = "quasilocal"
try:
    runpy.run_module("quasilocal", run_name="__main__")
except SystemExit as exc:
    print(exc.code, *sorted(m for m in sys.modules if m.startswith("quasilocal.") or m == "json"))
"""


def run_fresh(code, *args, stdin=None):
    """stdout of a fresh interpreter that runs code with this checkout's src/ on its path."""
    src = str(Path(ql.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code, *args], input=stdin,
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, check=True).stdout


@pytest.mark.parametrize("argv, stdin, extra", [
    (["validate", BOX], None, set()),
    (["chsh", BOX], None, set()),
    (["forward", MEASURES], None, set()),
    (["solve", BOX], None, {"quasilocal.solver"}),
    (["negativity", BOX], None, {"quasilocal.negativity", "quasilocal.solver"}),
    (["qm", "--state", "singlet", "--angles", "0", "90", "45", "135"], None,
     {"quasilocal.quantum"}),
    (["negativity", "--format", "json", BOX], None,
     {"quasilocal.negativity", "quasilocal.solver", "json"}),
    (["validate"], json.dumps(box_object(ql.tsirelson_box())), {"json"}),
], ids=["validate", "chsh", "forward", "solve", "negativity", "qm", "json-report",
        "json-document"])
def test_each_subcommand_loads_only_what_it_runs(argv, stdin, extra):
    code, *modules = run_fresh(CHILD, *argv, stdin=stdin).splitlines()[-1].split()
    assert code == "0"
    assert set(modules) == BASE | extra


def test_the_first_read_of_a_public_name_binds_them_all():
    report = ("import sys, quasilocal as q\n"
              "print(sorted(m for m in sys.modules if m.startswith('quasilocal.')))\n"
              "q.parse_box\n"
              "print(sorted(set(q.__all__) - set(vars(q))), len(q.__all__))\n"
              "print('__getattr__' in vars(q))\n")
    # without __getattr__, CPython specializes the reads of the package's names
    assert run_fresh(report) == "[]\n[] 52\nFalse\n"


def test_every_public_name_is_its_module_attribute():
    assert set(ql.__all__) == {n for names in ql._PUBLIC.values() for n in names}
    for module, names in ql._PUBLIC.items():
        owner = importlib.import_module(f"quasilocal.{module}")
        for name in names:
            value = getattr(ql, name)
            assert value is getattr(owner, name), name
            assert getattr(value, "__module__", owner.__name__) == owner.__name__, name
    namespace = {}
    exec("from quasilocal import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ql.__all__)
    assert set(dir(ql)) >= set(ql.__all__)
    with pytest.raises(AttributeError, match=r"^module 'quasilocal' has no attribute 'solvee'$"):
        ql.solvee
