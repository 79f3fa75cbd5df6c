"""Exact verification toolkit for a three-factor Cauchy-Schwarz-type inequality.

Everything runs on exact rational arithmetic: canonical sparse polynomials
for the symbolic identity checks, plain integer numerator/denominator pairs
in the search loop and its hits (Fractions only for the reported minimum
and probe), and Fractions in the minimization tools.  See the README for the
math and the CLI.

Each name is imported from the module that defines it (``poly``, ``corpus``,
``verifier``, ``explorer`` or ``cli``); ``import cstriple`` loads none of them.
"""

__version__ = "0.1.0"
