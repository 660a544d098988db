"""Exact engine for conjugacy-class products in alternating groups.

Character values of Sym(n) and Alt(n) in exact arithmetic, class-product
membership through character sums, covering numbers, and the associated
verification sweeps, cross-checked against a brute-force permutation
oracle at small n.

The package level holds the calls the README documents, the entry points
of the CLI's product and sweep commands, and the types and errors they
take or return; every other function is importable from its own module.
"""

from .alt_group import (
    AltClass,
    NormalSet,
    delta_bound_report,
    parse_class,
    parse_class_or_union,
)
from .characters import AltChar, QuadValue, alt_value, character_table, parse_char
from .errors import CapabilityError, ConsistencyError, UsageError
from .product_engine import (
    check_dvir_rodgers,
    contains,
    covering_number,
    frobenius_sum,
    long_cycle_product_checks,
    missing_classes,
    product_set,
    verify_four_class_theorem,
)

__version__ = "0.1.0"

__all__ = [
    "AltChar",
    "AltClass",
    "CapabilityError",
    "ConsistencyError",
    "NormalSet",
    "QuadValue",
    "UsageError",
    "alt_value",
    "character_table",
    "check_dvir_rodgers",
    "contains",
    "covering_number",
    "delta_bound_report",
    "frobenius_sum",
    "long_cycle_product_checks",
    "missing_classes",
    "parse_char",
    "parse_class",
    "parse_class_or_union",
    "product_set",
    "verify_four_class_theorem",
]
