"""hankelab: exact evaluation and verification of Hankel determinants of
binomial polynomial sequences, their generating functions, their product /
almost-product formulas, ODEs, and identity machinery.

Importing the package loads no submodule; each layer is imported by name
(``hankelab.cli``, ``hankelab.hankel``, ...), so a one-shot query loads
only the layers it runs.  Rational scalars are ``fractions.Fraction``;
the families and a_k are in ``sequences``, and the generating functions,
which no determinant query runs, are in ``series``.
"""
