"""Package metadata."""

__version__ = "12.0.0"
