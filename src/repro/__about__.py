"""Package metadata."""

__version__ = "5.0.0"
