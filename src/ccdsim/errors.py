"""The two failures a run can end with: ``ConfigError`` (exit 2) refuses what
the run asks for, before computing it; ``NumericalError`` (exit 3) reports a
result that fails its check (unitarity, norm, a population outside [0, 1]).
``cli.main`` is the one place that maps them, and other exceptions, to exit
codes. This module imports nothing, so every module may raise both.
"""
from __future__ import annotations

__all__ = ["ConfigError", "NumericalError"]


class ConfigError(ValueError):
    """Configuration parse or constraint failure with source position.

    ``key`` names the config key a constraint failure is about, if any.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None,
                 key: str | None = None):
        self.message, self.line, self.column, self.key = message, line, column, key
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", col {column}"
            where += ": "
        super().__init__(where + message)


class NumericalError(ArithmeticError):
    """A computation whose result fails its check (unitarity, norm, range)."""
