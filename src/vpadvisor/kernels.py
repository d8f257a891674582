"""Kernel path flag read by the benchmark's run records.

The pricing and repair loops live with their callers:
``anneal.solve_subproblem_fix_*``, which return the price of the layout
they build, and ``oracle.brute_force``.  They have no compiled variant.
"""
USING_NUMBA = False
