"""Asymptotic-preserving micro-macro solver for oscillatory diffusion.

The package integrates the 1D parabolic problem

    du/dt = d/dx ( a(x, x/eps) du/dx ),   u = 0 on the walls,

whose coefficient oscillates on the fast scale eps, three ways: a brute-force
fine-grid reference, the homogenized equation with its first-order corrector,
and a two-scale micro-macro splitting that is uniformly stable in eps and
degenerates to the effective equation as eps -> 0.

The public API is the submodules (``apmm.problem``, ``apmm.solvers``,
``apmm.reconstruct``, ...); this package re-exports nothing.
"""

__version__ = "0.1.0"
