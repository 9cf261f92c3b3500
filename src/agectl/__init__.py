"""Age-control update transport and its evaluation toolkit."""

__version__ = "0.1.0"
