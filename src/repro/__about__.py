"""Package metadata."""

__version__ = "13.0.0"
