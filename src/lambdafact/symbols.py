"""Canonical symbol names shared across the package.

Symbols are plain strings; a symbol is a nonempty string.  These are the
conventional names used by the built-in families and the CLI.
"""

LAM = "λ"
MU = "μ"
ALPHA = "α"
BETA = "β"
U = "u"
V = "v"
T = "t"
X = "x"
UMBRA = "D"
