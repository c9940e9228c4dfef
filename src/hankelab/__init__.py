"""hankelab: exact evaluation and verification of Hankel determinants of
binomial polynomial sequences, their generating functions, their product /
almost-product formulas, ODEs, and identity machinery.

The names below are loaded on first use (PEP 562), so importing one
submodule, such as ``hankelab.cli``, does not load the others.  The
families and a_k are in ``sequences``; the generating functions, which no
determinant query runs, are in ``series``.  The names of ``rat`` are bound
at once: every layer imports it, and its function ``rat`` must shadow the
submodule of the same name.
"""

from .rat import Rat, binom, double_factorial, format_rat, parse_rat, rat

_LAZY = {
    "poly": ("InexactDivision", "Poly"),
    "series": ("SeriesYX", "GfForm", "f_series", "gf_form_equiv", "t_series", "tau_series"),
    "sequences": (
        "FamilyId", "ALL_FAMILIES", "F31", "F21", "F30", "F32", "F3K2M", "FAEX",
        "FSHIFT31", "FSHIFT22", "a_poly", "conv_poly", "family_from_name",
    ),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}

__all__ = ["Rat", "binom", "double_factorial", "format_rat", "parse_rat", "rat"]
__all__ += list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
