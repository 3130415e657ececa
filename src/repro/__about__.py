"""Package metadata."""

__version__ = "17.0.0"
