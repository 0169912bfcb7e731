"""Exception types shared across the package."""


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


class DegenerateSampleError(QReliefFError):
    """A sample row cannot be normalized (zero norm)."""


class ConfigError(QReliefFError):
    """Invalid run configuration."""


class DataError(QReliefFError):
    """Invalid or unreadable input data."""
