"""Truncated tensor algebra over paths: array kernels (``engine``) and
Lyndon-word coordinates (``lyndon``)."""
