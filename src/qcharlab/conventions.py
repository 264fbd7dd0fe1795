"""Normalization choices that every artifact produced by this package depends on.

The literature contains more than one way to spell the dictionary between
A-monomials and Y-variables, and more than one shift in the braid operators.
This module records the exact choices made here, so serialized artifacts can
be tagged with them.

1. Spectral parameters live on the integer lattice; short roots are
   normalized to d_i = 1 so that every shift below is an integer.

2. A-monomial dictionary.  The inverse A-monomial at node i, parameter a, is

       A_{i,a}^{-1} = Y_{i,a+d_i}^{-1} Y_{i,a-d_i}^{-1}
                      * prod_{j != i} prod_s Y_{j,a+s}

   where s runs over the -c_ji integers c_ji+1, c_ji+3, ..., -c_ji-1
   (spaced by 2, symmetric about 0).  A transposed variant circulates in
   which the j-range is governed by c_ij instead of c_ji; that variant
   breaks the weight shadow in non-simply-laced types (in B2 it assigns the
   short-node A-monomial the weight 2*w1 - 2*w2 instead of the simple root
   2*w1 - w2) and is rejected here.  The two agree in simply-laced types.
   tests/test_lweights.py exercises the rejected reading explicitly.

3. Braid operators.  The generator rule is

       S_i(Y_{j,x}) = Y_{j,x} * A_{i, x - d_i}^{-delta_ij}

   extended multiplicatively, with inverse S_i^{-1}(Y_{j,x}) =
   Y_{j,x} * A_{i, x + d_i}^{-delta_ij}.  The downward shift x - d_i is the
   one under which S_i(A_{i,x}^{-1}) = A_{i, x-2d_i} holds exactly and the
   rank-one extremal checks pass; the upward-shift variant fails both.
   The rule is the convention, and the tests check the program against it
   through an oracle that applies it to Laurent monomials; the program
   itself computes with the closed form the rule induces on A-monomial
   vectors (``braid._reflect_rows``).

Bump the tag whenever any of the above changes: every artifact carries it.
"""

CONVENTIONS_VERSION = "qcharlab-conventions-1"
