"""Coupled stress-kinetics / Couette-flow simulator.

A 1D momentum balance across a sheared gap, coupled at every interior
node to a kinetic equation for the local stress distribution: advection
by the shear loading, diffusion fed by the rearrangement activity, a
relaxation sink beyond the stress threshold, and re-injection at zero
stress.  Includes the closed-form fully relaxing limit as an oracle and
a diagnostic battery for every a-priori bound the scheme must honor.
"""

__version__ = "0.1.0"
