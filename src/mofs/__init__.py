"""Mutually orthogonal frequency squares: construction, verification,
enumeration, and parity-based maximality certificates.

Submodules load on demand.  ``import mofs`` runs no submodule: the first
use of a public name imports its home module (``_HOME``) and caches the
name here, and ``mofs.search`` or ``from mofs import search`` import the
submodule likewise.  ``mofs.cli`` imports only ``core`` at module level;
each command imports the modules it runs, so a process pays only for the
code it uses.
"""

import importlib

_HOME = {
    name: module
    for module, names in {
        "core": (
            "FSquare",
            "InfeasibleSizeGuard",
            "MofsError",
            "Params",
            "all_ones",
            "indicator",
            "indicators",
            "inner",
            "make_fsquare",
            "reconstruct",
        ),
        "verify": (
            "CompletenessReport",
            "MofsSet",
            "NotOrthogonal",
            "UpperBound",
            "completeness_structure",
            "orthogonal",
            "superposition_counts",
            "upper_bound",
            "verify_mofs",
        ),
        "maximality": (
            "FullRelationCertificate",
            "MaximalityVerdict",
            "ParityMatrix",
            "ParityReport",
            "detect_full_relation",
            "maximality_verdict",
            "parity_matrix",
            "parity_report",
        ),
        "construct": (
            "FieldTable",
            "HadamardMatrix",
            "construct_federer",
            "construct_prime_power",
            "field_build",
            "hadamard",
        ),
        "search": (
            "SearchConfig",
            "count_fsquares",
            "enumerate_fsquares",
            "exhaustive_maximality",
            "extensions",
            "grow_maximal",
            "random_fsquare",
        ),
        "fileformat": ("decode", "encode"),
    }.items()
    for name in names
}
_SUBMODULES = frozenset({"cli", *_HOME.values()})

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
