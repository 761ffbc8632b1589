"""A from-scratch hash-consed ROBDD package.

The paper's simulator represents every symbolic expression with BDDs
built by CUDD; this package is the substitute.  Its node store runs in
C (``native.c``, built with cffi on first use) or, where that cannot
be built, in pure Python, with identical results.  It provides a
classic reduced ordered BDD with:

* a unique table (hash consing) so equality is pointer equality,
* an ``ite``-based operator core with a computed-table cache,
* restriction, functional composition, quantification,
* satisfiability helpers (``sat_one``, ``sat_count``, ``all_sat``)
  used for error-trace extraction (paper Section 5).

Variable order is the static order of creation; the paper's experiments
explicitly *disabled* dynamic variable reordering, so a static order is
the faithful default.
"""

from repro.bdd.manager import BddManager, FALSE, TRUE

__all__ = ["BddManager", "FALSE", "TRUE"]
