"""Package metadata."""

__version__ = "11.0.0"
