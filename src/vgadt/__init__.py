"""Variance checking for datatype declarations in languages with subtyping.

The package decides whether declared parameter variances on plain and
constrained (GADT-style) datatypes are sound, and ships a brute-force
semantic oracle over bounded ground-type universes for validating the
syntactic judgments against their set-theoretic interpretations.
"""

__version__ = "0.1.0"
