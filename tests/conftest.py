from fractions import Fraction

import pytest
from hypothesis import settings

from mdpwf import AsymMdp, builtin

# Every run draws the same examples and leaves no example database behind.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


@pytest.fixture
def investment():
    return builtin("investment")


@pytest.fixture
def ex2():
    return builtin("appendix_ex2")


@pytest.fixture
def ex3():
    return builtin("appendix_ex3")


@pytest.fixture
def ex4():
    return builtin("appendix_ex4")


@pytest.fixture
def twins():
    """Three principals, two sharing a discount factor."""
    return AsymMdp.build(
        states=["s0", "s1"],
        principals=[("A", Fraction(1, 2)), ("B", Fraction(1, 2)), ("C", Fraction(9, 10))],
        actions=[
            ("s0", "a", [("s0", 1)], [1, 2, 3]),
            ("s0", "b", [("s1", 1)], [0, 1, 0]),
            ("s1", "b", [("s1", 1)], [6, 5, 4]),
        ],
    )


@pytest.fixture
def doubled_self_loop():
    """s0 -a-> {s0: 1/4, s0: 1/4, s1: 1/2} with reward 1 and lam 1/2, s1
    absorbing with reward 0: v(s0) = 1 + v(s0) / 4 = 4/3 under a, and 1
    under c."""
    return AsymMdp.build(
        states=["s0", "s1"],
        principals=[("A", Fraction(1, 2))],
        actions=[
            ("s0", "a", [("s0", Fraction(1, 4)), ("s0", Fraction(1, 4)), ("s1", Fraction(1, 2))], 1),
            ("s0", "c", [("s1", 1)], 1),
            ("s1", "b", [("s1", 1)], 0),
        ],
    )


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(name, *modules) replaces `name` in each module by one
    counting wrapper around the first module's function and returns the
    list that collects one entry per call."""

    def install(name, *modules):
        calls = []
        real = getattr(modules[0], name)

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, counted)
        return calls

    return install
