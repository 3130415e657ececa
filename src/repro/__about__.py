"""Package metadata."""

__version__ = "15.0.0"
