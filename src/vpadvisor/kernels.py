"""Kernel path flag read by the benchmark's run records.

The pricing and repair loops live with their callers:
``anneal.solve_subproblem_fix_transactions``, which returns the price of
the layout it builds, and ``oracle.brute_force``.  They have no compiled
variant.
"""
USING_NUMBA = False
