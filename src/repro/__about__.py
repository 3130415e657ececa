"""Package metadata."""

__version__ = "13.1.1"
