"""Canonical symbols shared across the package, and their variables.

Symbols are plain strings; a symbol is a nonempty string.  These are the
conventional names used by the built-in families, the catalogue and the CLI.
The variable of each is built here, once, at import, in the fixed order
λ μ α β u v D t x a b.  Packed monomial keys take their slots in the order
the process first sees symbols, so every process that imports the package
gives these symbols the same slots; every other module imports the variables.
"""

from .polynomial import Polynomial

LAM = "λ"
MU = "μ"
ALPHA = "α"
BETA = "β"
U = "u"
V = "v"
T = "t"
X = "x"
UMBRA = "D"
A = "a"  # the two free symbols of Abel's binomial identity (3.1, 3.2)
B = "b"

lam, mu, alpha, beta, u, v, D, t, x, a, b = map(
    Polynomial.variable, (LAM, MU, ALPHA, BETA, U, V, UMBRA, T, X, A, B)
)
