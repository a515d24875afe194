"""Desk-scale numerical laboratory for discrete moments of zeta'(rho) over
the critical-line zeros: zero location with completeness certificates,
Mobius mollifiers, exact Dirichlet-polynomial mean values, and the moment
sums with their predicted main terms."""

__version__ = "0.1.0"
