"""Level guard for quotient computations.

Chains at level n act on 2^n leaves and can hold on the order of 2^n strong
generators, so memory grows roughly as 4^n; the guard keeps accidental deep
requests from exhausting memory.  The GRIG_MAX_LEVEL environment variable
overrides the default.
"""

import os
from contextlib import contextmanager

DEFAULT_MAX_LEVEL = 10

_override = None


class LevelLimitError(ValueError):
    pass


def parse_level_limit(value, source):
    """A level limit read from ``source`` (named in the error): an integer
    of at least 1."""
    try:
        limit = int(value)
    except ValueError:
        raise LevelLimitError(
            f"{source} must be an integer, got {value!r}") from None
    if limit < 1:
        raise LevelLimitError(f"{source} must be at least 1, got {limit}")
    return limit


def max_level():
    if _override is not None:
        return _override
    env = os.environ.get("GRIG_MAX_LEVEL")
    if env:
        return parse_level_limit(env, "GRIG_MAX_LEVEL")
    return DEFAULT_MAX_LEVEL


def set_max_level(value):
    """Process-wide override (None restores env/default behaviour)."""
    global _override
    _override = None if value is None else int(value)


def require_level(n):
    if not 1 <= n <= max_level():
        raise LevelLimitError(
            f"level {n} outside the supported range 1..{max_level()} "
            f"(raise GRIG_MAX_LEVEL to go deeper)")
    return n


@contextmanager
def raised_level(n):
    """Temporarily allow levels up to n (never lowers the current limit)."""
    global _override
    old = _override
    if n > max_level():
        _override = n
    try:
        yield
    finally:
        _override = old

