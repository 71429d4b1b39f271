"""Exception types, and the check of a level eps, shared across the package."""


class DomainError(ValueError):
    """An input violates a documented precondition."""


class NumericalError(RuntimeError):
    """An iterative routine failed to reach its accuracy target."""


def _check_eps(eps: float) -> None:
    """Refuse a level eps outside the open interval (0, 1)."""
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must lie in (0, 1), got {eps}")
