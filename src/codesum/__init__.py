"""Extreme summarization of source code into method-name-like summaries."""

__version__ = "0.1.0"
