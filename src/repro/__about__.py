"""Package metadata."""

__version__ = "2.0.0"
