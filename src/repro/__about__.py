"""Package metadata."""

__version__ = "10.0.0"
