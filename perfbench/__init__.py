"""Layered campaign benchmark of the DejaVuzz reproduction (see README.md)."""
