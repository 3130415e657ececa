"""Package metadata."""

__version__ = "4.0.0"
