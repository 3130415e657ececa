"""Package metadata."""

__version__ = "16.0.0"
