"""Term-by-term substitution into polynomials: the tests' reference for
evaluation.  The package evaluates with ``poly._upoly_eval`` (Horner's
rule); this form takes a fresh power per term, so it shares no code path
with it."""

from charp.poly import _generic_pow


def substitute(f, values: dict, zero, one, add, mul, embed_coeff):
    """Map each variable of the polynomial f through ``values`` into any
    commutative ring described by (zero, one, add, mul); coefficients are
    sent through embed_coeff."""
    acc = zero
    for m, c in f.terms.items():
        term = embed_coeff(c)
        for i, e in enumerate(m):
            if e:
                term = mul(term, _generic_pow(values[f.ring.variables[i]], e, one, mul))
        acc = add(acc, term)
    return acc
