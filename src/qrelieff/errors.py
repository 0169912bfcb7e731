"""Exception types shared across the package.

The type alone picks the command line's exit code: 2 for a ConfigError, 3
for a DataError (``relieff.Dataset`` judges every input value, ``load_csv``
only the CSV text), 4 for a CapacityError, and 5 for any other
QReliefFError, which no input can raise there: a program fault.
"""


class QReliefFError(Exception):
    """Base class for all package errors."""


class CapacityError(QReliefFError):
    """Register size exceeds the simulator's memory guard."""


class PostselectionError(QReliefFError):
    """Postselection on a (near-)zero-probability branch."""


class NoSolutionError(QReliefFError):
    """A search was requested with no marked elements."""


class SearchFailedError(QReliefFError):
    """A repeated search kept reading unmarked elements."""


class ConfigError(QReliefFError):
    """Invalid run configuration."""


class DataError(QReliefFError):
    """Invalid or unreadable input data, or data the run cannot use."""


class DegenerateSampleError(DataError):
    """A sample row cannot be normalized (zero norm)."""
