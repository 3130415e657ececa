"""Package metadata."""

__version__ = "7.0.0"
