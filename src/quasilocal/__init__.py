"""Signed local-hidden-variable analysis of 2x2x2 Bell-CHSH experiments.

The library models a two-party, two-setting, two-outcome correlation
experiment through signed weight vectors over the 16 deterministic local
strategies.  It validates probability sets, computes every CHSH sign
variant, constructs the full 7-parameter family of weight vectors
reproducing a consistent box, and gives the least total negativity of any
model of a box in closed form, max(0, (|delta| - 2) / 4), with a witness
model that attains it: negative weights are required exactly when CHSH is
violated.

Importing the package imports none of its modules, so a command-line call
loads only what its subcommand runs (see quasilocal.cli).  The first read of
any public name (an attribute, `from quasilocal import ...` or `*`) imports
model, solver, negativity, quantum and fileio, binds every public name on
the package and removes its __getattr__ (PEP 562).  A package name is a
snapshot of its module's attribute at that first read: a module function
patched before it is bound on the package with its patch.
"""

import importlib

#: The public names, keyed by the module that defines each, in import order.
_PUBLIC = {
    "model": """CHSH_MATRIX CHSH_VARIANTS DEFAULT_EPS DEPENDENT_INDICES FORWARD_MATRIX
        INDEPENDENT_INDICES MINUS PLUS PROB_EVENTS PROB_LABELS STRATEGY_OUTCOMES
        STRATEGY_PATTERNS BlockViolation ChshReport ConsistencyError MarginalViolation
        RangeViolation RelationViolation box_from_independent check_consistency chsh
        chsh_report correlation deterministic_box forward_map pr_box require_consistent
        sigma_minus total_negativity tsirelson_box uniform_box""".split(),
    "solver": "FREE_INDICES perfect_correlation_solution solve".split(),
    "negativity": "NegativityResult min_negativity".split(),
    "quantum": """ChshSearchResult MeasurementDirection QubitScenario TwoQubitState
        flip_outcomes generate_probability_set maximize_chsh singlet""".split(),
    "fileio": """ParseError box_object fixture_path format_box format_measures
        measures_object parse_box parse_measures""".split(),
}

__all__ = [name for names in _PUBLIC.values() for name in names]
__version__ = "0.1.0"


def __getattr__(name):
    """Bind every public name on the first read of one."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    package = globals()
    for module, names in _PUBLIC.items():
        values = vars(importlib.import_module(f"{__name__}.{module}"))
        package.update((n, values[n]) for n in names)
    # CPython does not specialize attribute reads on a module that has __getattr__
    package.pop("__getattr__", None)
    return package[name]


def __dir__():
    return sorted({*globals(), *__all__})
