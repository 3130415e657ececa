"""Package metadata."""

__version__ = "8.0.0"
