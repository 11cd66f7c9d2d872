"""Constructive satisfiability for ATL+ with certified model synthesis.

The pipeline: parse a formula, normalize it, build a pretableau by
alternating saturation and successor rules, eliminate unrealizable or
stuck states, and read off the verdict.  On SAT, a finite
concurrent game model is assembled from realization witnesses and certified
by an independent bounded model checker before it is ever emitted.
"""

__version__ = "0.1.0"
