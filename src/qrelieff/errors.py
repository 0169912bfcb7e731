"""Exception types shared across the package, one per exit code.

The type alone picks the command line's exit code: 2 for a ConfigError, 3
for a DataError (every input fault: ``relieff.Dataset`` judges every input
value, ``load_csv`` only the CSV text, ``normalize`` a zero row), 4 for a
CapacityError, and 5 for a bare QReliefFError, which no input can raise: a
program fault, such as a postselection on a zero branch or a Grover search
that keeps reading unmarked elements.
"""


class QReliefFError(Exception):
    """Base class for all package errors; raised bare, a program fault."""


class CapacityError(QReliefFError):
    """Register size exceeds the simulator's memory guard."""


class ConfigError(QReliefFError):
    """Invalid run configuration."""


class DataError(QReliefFError):
    """Invalid or unreadable input data, or data the run cannot use."""
