"""Package metadata."""

__version__ = "6.0.0"
