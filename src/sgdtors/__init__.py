"""Desk-scale simplicial homotopy and torsor classification.

Everything here is finite and exhaustive: truncated simplicial sets with
explicit tables, finite sites, brute-force Kan and homotopy-group checks,
classifying complexes, homotopy colimits, and torsor classification in
six flavours.  Results that depend on the truncation dimension say so in
their reports.
"""

__version__ = "0.1.0"
