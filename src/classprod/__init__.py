"""Exact engine for conjugacy-class products in alternating groups.

Character values of Sym(n) and Alt(n) in exact arithmetic, class-product
membership through character sums, covering numbers, and the associated
verification sweeps, cross-checked against a brute-force permutation
oracle at small n.

The package level holds the calls the README documents, the entry points
of the CLI's product and sweep commands, and the types and errors they
take or return; every other function is importable from its own module.
Each name is imported from its module when first read (PEP 562), so
importing the package, or a command that needs no character sums, loads
no engine.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULES = {
    "AltChar": "characters",
    "AltClass": "alt_group",
    "CapabilityError": "errors",
    "ConsistencyError": "errors",
    "NormalSet": "alt_group",
    "QuadValue": "quadvalue",
    "UsageError": "errors",
    "alt_value": "characters",
    "character_table": "characters",
    "check_dvir_rodgers": "sweeps",
    "contains": "product_engine",
    "covering_number": "product_engine",
    "delta_bound_report": "alt_group",
    "frobenius_sum": "product_engine",
    "long_cycle_product_checks": "sweeps",
    "missing_classes": "product_engine",
    "parse_char": "characters",
    "parse_class": "alt_group",
    "parse_class_or_union": "alt_group",
    "product_set": "product_engine",
    "verify_four_class_theorem": "sweeps",
}

__all__ = list(_MODULES)


def __getattr__(name: str):
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULES[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
