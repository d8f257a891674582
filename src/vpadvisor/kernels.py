"""Kernel path flag read by the benchmark's run records.

The pricing and repair loops live with their callers:
``partitioning._folded_score``, ``anneal.solve_subproblem_fix_*`` and
``mip.brute_force``.  They have no compiled variant.
"""
USING_NUMBA = False
