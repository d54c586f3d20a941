"""Prime-characteristic commutative algebra workbench.

Sparse polynomial arithmetic over F_p, Groebner bases, filter regular
sequences, Frobenius powers/closures/test exponents, truncated limit local
cohomology with Frobenius actions, and HSL numbers, plus report generators
comparing the test-exponent and HSL sides on bundled example rings.
Each name is imported from its module (frobex.groebner, frobex.frobenius,
frobex.localcoh, ...); the package itself binds none.
"""
