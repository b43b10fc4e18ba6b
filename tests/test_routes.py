"""The route dispatcher: one helper behind every `route` argument."""

import inspect
import re
import sys
from fractions import Fraction

import pytest

from freeprob import incidence, ksym, series, transforms
from freeprob.errors import RouteMismatchError, ValidationError, run_route
from freeprob.sequences import RationalSequence

SEQ = RationalSequence([1, 2, 5, 14, 42, 132, 429, 1430])
ZERO_LED = RationalSequence([0, 1, -2, 3, 1, -1])
POSITIVE = transforms.point_mass_moments(2, 8)

# one valid call per public function that takes route=, route left open
ROUTED = {
    "transforms.cumulants_to_moments": lambda route: transforms.cumulants_to_moments(
        SEQ, 4, route=route),
    "transforms.moments_to_cumulants": lambda route: transforms.moments_to_cumulants(
        SEQ, 4, route=route),
    "transforms.kdiv_power_cumulants": lambda route: transforms.kdiv_power_cumulants(
        SEQ, 3, 3, route=route),
    "incidence.zeta_power_conv": lambda route: incidence.zeta_power_conv(
        SEQ, 2, 3, route=route),
    "ksym.boxtimes_power_moments": lambda route: ksym.boxtimes_power_moments(
        POSITIVE, 2, 3, route=route),
}


def test_every_routed_function_is_listed():
    found = {
        f"{mod.__name__.rsplit('.', 1)[1]}.{name}"
        for mod in (incidence, ksym, transforms)
        for name, fn in inspect.getmembers(mod, inspect.isfunction)
        if fn.__module__ == mod.__name__ and not name.startswith("_")
        and "route" in inspect.signature(fn).parameters
    }
    assert found == set(ROUTED)


@pytest.mark.parametrize("name", sorted(ROUTED))
def test_unknown_route_is_a_validation_error(name):
    with pytest.raises(ValidationError, match="unknown route 'bogus'"):
        ROUTED[name]("bogus")
    assert ROUTED[name]("both") is not None


def test_both_raises_when_two_routes_disagree():
    with pytest.raises(RouteMismatchError, match="demo routes disagree"):
        run_route("demo", "both", {"a": lambda: 1, "b": lambda: 2})


def test_both_returns_the_first_route_value_and_runs_each_route_once():
    calls = []

    def route(tag, value):
        def run():
            calls.append(tag)
            return value
        return run

    # equal values of three types tell which route's value came back
    routes = {"a": route("a", 1), "b": route("b", Fraction(1)), "c": route("c", 1.0)}
    out = run_route("demo", "both", routes)
    assert out == 1 and type(out) is int
    assert calls == ["a", "b", "c"]
    calls.clear()
    out = run_route("demo", "b", routes)
    assert type(out) is Fraction and calls == ["b"]
    with pytest.raises(ValidationError, match="unknown route 'd'"):
        run_route("demo", "d", routes)


def test_kdiv_power_cumulants_both_is_the_common_value_of_three_routes():
    alpha = RationalSequence([1, -2, 3, 1, 5, 2])
    for k, order in ((2, 6), (3, 4), (4, 3)):
        values = [transforms.kdiv_power_cumulants(alpha, k, order, route=r)
                  for r in ("enumeration", "two-stage", "zeta")]
        assert values[0] == values[1] == values[2]
        assert transforms.kdiv_power_cumulants(alpha, k, order, route="both") == values[0]


def test_moebius_is_not_a_route_of_the_moment_cumulant_transforms():
    for fn in (transforms.cumulants_to_moments, transforms.moments_to_cumulants):
        with pytest.raises(ValidationError, match="unknown route 'moebius'"):
            fn(SEQ, 5, route="moebius")


# (call, series routes, enumeration routes).  The enumeration route of
# boxtimes_power_moments is left out: it walks NC^k(n), but takes its
# cumulants from the series route of moments_to_cumulants.


def _conv(f, g, order):
    """conv takes no route; its walk is kdivisible_conv with k = 1."""
    return lambda route: (incidence.conv(f, g, order) if route == "series"
                          else incidence.kdivisible_conv(1, f, g, order))


ISOLATED = {
    "conv": (_conv(SEQ, ZERO_LED, 5), ["series"], ["walk"]),
    "conv, nonzero leading entries": (_conv(SEQ, SEQ, 6), ["series"], ["walk"]),
    "zeta_power_conv": (lambda route: incidence.zeta_power_conv(ZERO_LED, 2, 4, route=route),
                        ["series"], ["iterated", "dilated"]),
    "zeta_power_conv, negative power": (lambda route: incidence.zeta_power_conv(
        ZERO_LED, -2, 4, route=route), ["series"], ["iterated", "dilated"]),
    "cumulants_to_moments": (lambda route: transforms.cumulants_to_moments(
        ZERO_LED, 6, route=route), ["series"], ["enumeration"]),
    "moments_to_cumulants": (lambda route: transforms.moments_to_cumulants(
        SEQ, 6, route=route), ["series"], ["enumeration"]),
    "kdiv_power_cumulants": (lambda route: transforms.kdiv_power_cumulants(
        ZERO_LED, 3, 4, route=route), ["zeta"], ["enumeration", "two-stage"]),
    "boxtimes_power_moments": (lambda route: ksym.boxtimes_power_moments(
        POSITIVE, 3, 2, route=route), ["series"], []),
}


def _refuse(*args, **kwargs):
    raise AssertionError("this route must not get here")


# the private helpers of incidence that only a walk reaches
WALK_HELPERS = ("_admit", "_power_coeffs")


@pytest.mark.parametrize("name", sorted(ISOLATED))
def test_series_routes_never_walk_and_enumeration_routes_never_invert(name, monkeypatch):
    call, series_routes, enumeration_routes = ISOLATED[name]
    want = call(series_routes[0])
    for route in enumeration_routes:
        assert call(route) == want
    with monkeypatch.context() as patch:
        for helper in WALK_HELPERS:
            patch.setattr(incidence, helper, _refuse)
        for route in series_routes:
            assert call(route) == want
    with monkeypatch.context() as patch:
        patch.setattr(series, "_lagrange", _refuse)
        for route in enumeration_routes:
            assert call(route) == want


TRIVIAL = {
    "zeta_power_conv at k = 0": (lambda route: incidence.zeta_power_conv(SEQ, 0, 5, route=route),
                                 ["series", "iterated", "dilated"], SEQ.prefix(5)),
    "kdiv_power_cumulants at k = 1": (
        lambda route: transforms.kdiv_power_cumulants(SEQ, 1, 5, route=route),
        ["enumeration", "two-stage", "zeta"], SEQ.prefix(5)),
    "kdiv_power_cumulants at k = 1, past the walk budget": (
        lambda route: transforms.kdiv_power_cumulants(
            RationalSequence.constant(2, 20), 1, 20, route=route),
        ["enumeration", "two-stage", "zeta"], RationalSequence.constant(2, 20)),
}


@pytest.mark.parametrize("name", sorted(TRIVIAL))
def test_the_trivial_power_checks_the_route_and_neither_walks_nor_solves(name, monkeypatch):
    call, routes, want = TRIVIAL[name]
    with pytest.raises(ValidationError, match="unknown route 'bogus'"):
        call("bogus")
    for helper in WALK_HELPERS:
        monkeypatch.setattr(incidence, helper, _refuse)
    monkeypatch.setattr(series, "_lagrange", _refuse)
    for route in [*routes, "both"]:
        assert call(route) == want


# the trivial powers return a prefix of the input, which must not read a
# negative order from the end of the sequence
NEGATIVE_ORDER = {
    "zeta_power_conv at k = 0": (lambda route: incidence.zeta_power_conv(SEQ, 0, -1, route=route),
                                 ["series", "iterated", "dilated", "both"]),
    "kdiv_power_cumulants at k = 1": (
        lambda route: transforms.kdiv_power_cumulants(SEQ, 1, -1, route=route),
        ["enumeration", "two-stage", "zeta", "both"]),
}


@pytest.mark.parametrize("name,route", [(name, route) for name, (_, routes) in
                                        sorted(NEGATIVE_ORDER.items()) for route in routes])
def test_the_trivial_power_rejects_a_negative_order(name, route):
    with pytest.raises(ValidationError, match="order >= 1"):
        NEGATIVE_ORDER[name][0](route)


def test_every_zeta_power_walk_goes_through_zeta_power_conv(monkeypatch):
    callers = set()
    real = incidence.kdivisible_conv

    def spy(*args):
        callers.add(sys._getframe(1).f_code.co_qualname)
        return real(*args)

    monkeypatch.setattr(incidence, "kdivisible_conv", spy)
    for fn in (transforms.cumulants_to_moments, transforms.moments_to_cumulants):
        fn(SEQ, 5, route="enumeration")
    for route in ("enumeration", "two-stage"):
        for k in (2, 3):
            transforms.kdiv_power_cumulants(ZERO_LED, k, 3, route=route)
    ksym.xk_of_kdivisible(POSITIVE, 3, 3)
    assert callers == {"zeta_power_conv.<locals>.walk"}


def test_defaults_are_the_series_routes():
    defaults = {
        incidence.zeta_power_conv: "series",
        transforms.cumulants_to_moments: "series", transforms.moments_to_cumulants: "series",
        transforms.kdiv_power_cumulants: "zeta", ksym.boxtimes_power_moments: "series",
    }
    for fn, route in defaults.items():
        assert inspect.signature(fn).parameters["route"].default == route


def test_a_power_that_is_not_an_integer_is_refused_before_any_route_runs():
    alpha, law = RationalSequence([1, 2, 3, 4, 5, 6]), ksym.semicircle_sk(2, 4)
    for bad in (1.5, 2.0, Fraction(3, 2)):
        k_error = re.escape(f"k must be an integer, not {bad!r}")
        for route in ("series", "iterated", "dilated", "both"):
            with pytest.raises(ValidationError, match=k_error):
                incidence.zeta_power_conv(SEQ, bad, 3, route=route)
        for route in ("enumeration", "two-stage", "zeta", "both"):
            with pytest.raises(ValidationError, match=k_error):
                transforms.kdiv_power_cumulants(alpha, bad, 3, route=route)
        for call in (lambda: ksym.xk_of_kdivisible(alpha, bad, 3),
                     lambda: incidence.kdivisible_conv(bad, SEQ, SEQ, 2),
                     lambda: incidence.dilate(SEQ, bad)):
            with pytest.raises(ValidationError, match=k_error):
                call()
        samples_error = re.escape(f"n_samples must be an integer, not {bad!r}")
        for call in (lambda: ksym.poisson_limit_gap(2, 1, law, bad, 4),
                     lambda: ksym.clt_scaled_cumulants(law, bad, 4)):
            with pytest.raises(ValidationError, match=samples_error):
                call()
