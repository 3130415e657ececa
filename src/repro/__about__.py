"""Package metadata."""

__version__ = "9.0.0"
