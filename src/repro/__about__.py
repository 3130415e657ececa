"""Package metadata."""

__version__ = "2.1.0"
