"""Package metadata."""

__version__ = "14.0.0"
