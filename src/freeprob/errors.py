"""Exception taxonomy shared by all modules, and the route dispatcher.

Validation errors signal bad inputs (CLI exit code 2), resource-limit
errors signal work above the configured enumeration cap (exit code 3).
"""


class FreeProbError(Exception):
    pass


class ValidationError(FreeProbError, ValueError):
    pass


class ResourceLimitError(FreeProbError):
    pass


class IrrationalRootError(ValidationError):
    """A root required for exactness does not exist in the rationals."""


class RouteMismatchError(FreeProbError):
    """Two computation routes that must agree produced different values.

    Raised only on an internal inconsistency, never on bad user input.
    """


def run_route(name: str, route: str, routes: dict):
    """Run routes[route]() for the function `name`.  "both" runs every
    route once, in dict order, and returns the first result if all are
    equal."""
    if route == "both":
        first, *rest = [run() for run in routes.values()]
        if any(value != first for value in rest):
            raise RouteMismatchError(f"{name} routes disagree")
        return first
    if route not in routes:
        raise ValidationError(f"unknown route {route!r}")
    return routes[route]()
