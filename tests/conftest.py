"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def fresh_oracle():
    """Empty every oracle cache before the test and after it: the orbits,
    the group tables built from them, the memo of classified permutations
    and the oracle and ``both`` algebras; the engine's algebras are kept.
    An oracle patched in the test is built from scratch, and nothing built
    over the patch is left behind."""
    import classprod.brute_force as brute_force
    from classprod.product_engine import _ALGEBRAS

    def forget():
        brute_force.class_members.cache_clear()
        brute_force.alt_conjugacy_classes.cache_clear()
        brute_force._class_of.clear()
        for key in [key for key in _ALGEBRAS if key[1] != "engine"]:
            del _ALGEBRAS[key]

    forget()
    yield
    forget()
